#include "sag/core/candidates.h"

#include <algorithm>

#include "sag/geometry/circle.h"
#include "sag/geometry/grid.h"
#include "sag/geometry/spatial_grid.h"

namespace sag::core {

std::vector<geom::Vec2> iac_candidates(const Scenario& scenario) {
    const auto circles = scenario.feasible_circles();
    std::vector<geom::Vec2> candidates;
    std::vector<bool> isolated(circles.size(), true);

    // Only circle pairs with overlapping disks can intersect: prefilter
    // pairs through the spatial index (radius = twice the largest circle).
    double r_top = 0.0;
    std::vector<geom::Vec2> centers;
    centers.reserve(circles.size());
    for (const geom::Circle& c : circles) {
        r_top = std::max(r_top, c.radius);
        centers.push_back(c.center);
    }
    // Circles are subscriber-ordered, so the pair query comes back typed.
    const geom::SpatialGridT<ids::SsId> index(std::move(centers),
                                              std::max(2.0 * r_top, 1.0));
    for (const auto& [i, j] : index.all_pairs_within(2.0 * r_top)) {
        const auto pts =
            geom::circle_intersections(circles[i.index()], circles[j.index()]);
        if (!pts.empty()) isolated[i.index()] = isolated[j.index()] = false;
        candidates.insert(candidates.end(), pts.begin(), pts.end());
    }
    for (std::size_t i = 0; i < circles.size(); ++i) {
        if (isolated[i]) candidates.push_back(circles[i].center);
    }
    return candidates;
}

std::vector<geom::Vec2> gac_candidates(const Scenario& scenario, double grid_size) {
    return geom::grid_centers(scenario.field, grid_size);
}

std::vector<geom::Vec2> prune_useless_candidates(const Scenario& scenario,
                                                 std::vector<geom::Vec2> candidates) {
    const auto circles = scenario.feasible_circles();
    std::erase_if(candidates, [&](const geom::Vec2& p) {
        return std::none_of(circles.begin(), circles.end(),
                            [&](const geom::Circle& c) {
                                return c.contains(p, geom::kMembershipSlack);
                            });
    });
    return candidates;
}

}  // namespace sag::core
