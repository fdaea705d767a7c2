#pragma once

#include <span>
#include <string>
#include <vector>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"
#include "sag/ids/ids.h"
#include "sag/units/units.h"

namespace sag::core {

class SnrField;

/// The lower-tier link test of eq. (3.4)/(3.5), one definition for every
/// check that decides whether an RS serves a subscriber: the verifier,
/// damage assessment, the repair kernel and placement. Each comparison
/// is written `x <= bound` / `x >= bound`, so a NaN never passes.
inline constexpr double kDistanceSlack = 1e-6;  ///< metres added to d_j
inline constexpr double kRelativeSlack = 1e-9;  ///< rate and SNR bounds x (1 - this)

/// d(s_j, rs) <= d_j, up to kDistanceSlack.
inline bool within_reach(double distance, double request) {
    return distance <= request + kDistanceSlack;
}
/// Received power >= P^j_ss, up to kRelativeSlack.
inline bool meets_rate(units::Watt received, units::Watt required) {
    return received >= required * (1.0 - kRelativeSlack);
}
/// SNR >= beta, up to kRelativeSlack.
inline bool meets_snr(units::SnrRatio snr, units::SnrRatio beta) {
    return snr >= beta * (1.0 - kRelativeSlack);
}

/// All three checks for RS `rs` of `field` serving tracked subscriber
/// `k`, at rs's power in the field and against the field's interference
/// totals. Short-circuits in the order distance, rate, SNR, so a link
/// rejected on distance costs no path-loss evaluation.
bool link_feasible(const SnrField& field, ids::RsId rs, ids::SsId k);

/// Per-subscriber verdicts from the coverage verifier.
struct SubscriberCheck {
    ids::RsId serving_rs = ids::RsId::invalid();
    double access_distance = 0.0;
    bool distance_ok = false;   ///< d(s_j, rs) <= d_j
    bool rate_ok = false;       ///< received power >= P^j_ss
    bool snr_ok = false;        ///< SNR >= beta
    double snr_db = 0.0;
};

struct CoverageReport {
    bool feasible = false;
    ids::IdVec<ids::SsId, SubscriberCheck> subscribers;
    std::size_t violations = 0;
};

/// Independent end-to-end check of a lower-tier solution: distance, data
/// rate and SNR for every subscriber, given explicit RS powers. Used by
/// tests and by the benchmark harness to reject silently-broken plans.
CoverageReport verify_coverage(const Scenario& scenario, const CoveragePlan& plan,
                               std::span<const double> powers);

/// Same, with every RS at max power (the LCRA placement assumption).
CoverageReport verify_coverage_max_power(const Scenario& scenario,
                                         const CoveragePlan& plan);

struct ConnectivityReport {
    bool feasible = false;
    /// Every non-root reaches a BaseStation root.
    bool all_rooted = false;
    /// Each hop (node -> parent) is no longer than the node's allowed hop
    /// length (min distance request over the coverage RSs beneath it).
    bool hops_ok = false;
    std::size_t violations = 0;
    std::string detail;
};

/// Structural check of an upper-tier solution against its coverage plan.
ConnectivityReport verify_connectivity(const Scenario& scenario,
                                       const CoveragePlan& coverage,
                                       const ConnectivityPlan& plan);

/// Alias of verify_connectivity under the paper-facing "topology" name —
/// the resilience layer's repair invariant is stated as "verify_coverage +
/// verify_topology pass on the surviving network".
inline ConnectivityReport verify_topology(const Scenario& scenario,
                                          const CoveragePlan& coverage,
                                          const ConnectivityPlan& plan) {
    return verify_connectivity(scenario, coverage, plan);
}

}  // namespace sag::core
