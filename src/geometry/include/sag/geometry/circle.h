#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "sag/geometry/vec2.h"

namespace sag::geom {

/// Geometric tolerance used throughout the library for containment and
/// tangency decisions. Coordinates in this codebase are O(1e3), so 1e-9
/// absolute slack is far below any physically meaningful distance.
inline constexpr double kEps = 1e-9;

/// Disk-membership slack for constructed points: a circle-circle
/// intersection point carries rounding error far above kEps, yet must
/// count as inside (and on the boundary of) both generating disks. The
/// hitting-set formulation and the candidate pruning must use the same
/// value, or a kept candidate could miss the disk it was kept for.
inline constexpr double kMembershipSlack = 1e-6;

/// A circle (and, where stated, the closed disk it bounds).
/// Subscriber "feasible coverage circles" (paper Table I, symbol c_i) are
/// Circles centered at the SS with radius equal to its distance request d_i.
struct Circle {
    Vec2 center;
    double radius = 0.0;

    constexpr Circle() = default;
    constexpr Circle(Vec2 c, double r) : center(c), radius(r) {}
    constexpr bool operator==(const Circle& o) const = default;

    /// True when `p` lies in the closed disk (with `eps` slack outward).
    bool contains(const Vec2& p, double eps = kEps) const {
        return distance_sq(center, p) <= (radius + eps) * (radius + eps);
    }
    /// True when `p` lies on the boundary circle within `eps`.
    bool on_boundary(const Vec2& p, double eps = kMembershipSlack) const;
    /// Point on the boundary at angle `theta` (radians, CCW from +x).
    Vec2 point_at_angle(double theta) const;
};

/// Intersection points of two circles' boundaries.
/// Returns 0 points when the circles are disjoint or one strictly contains
/// the other, 1 point when (nearly) tangent, 2 otherwise. Coincident
/// circles return 0 points (infinite intersection is not representable).
std::vector<Vec2> circle_intersections(const Circle& a, const Circle& b);

/// True when the closed disks of `a` and `b` share at least one point.
bool disks_overlap(const Circle& a, const Circle& b, double eps = kEps);

/// Axis-aligned rectangle [min.x, max.x] x [min.y, max.y].
struct Rect {
    Vec2 min;
    Vec2 max;

    constexpr double width() const { return max.x - min.x; }
    constexpr double height() const { return max.y - min.y; }
    constexpr Vec2 center() const { return {(min.x + max.x) / 2, (min.y + max.y) / 2}; }
    bool contains(const Vec2& p, double eps = kEps) const {
        return p.x >= min.x - eps && p.x <= max.x + eps &&
               p.y >= min.y - eps && p.y <= max.y + eps;
    }
    /// Square field of side `side` centered at the origin, matching the
    /// paper's plots which use axes [-side/2, side/2].
    static constexpr Rect centered_square(double side) {
        return {{-side / 2, -side / 2}, {side / 2, side / 2}};
    }
};

/// Smallest axis-aligned rectangle containing all `points`
/// (empty input -> degenerate rect at the origin).
Rect bounding_box(const std::vector<Vec2>& points);

}  // namespace sag::geom
