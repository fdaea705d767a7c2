#include "sag/core/dual_coverage.h"

#include <algorithm>
#include <limits>

#include "sag/core/feasibility.h"
#include "sag/core/snr.h"
#include "sag/core/snr_field.h"
#include "sag/obs/obs.h"
#include "sag/opt/set_cover.h"

namespace sag::core {

namespace {

/// Primary/secondary link selection for a fixed RS set: nearest and
/// second-nearest in-range RSs per subscriber. Returns false when some
/// subscriber lacks two in-range RSs.
bool assign_links(const Scenario& scenario, std::span<const geom::Vec2> rs,
                  ids::IdVec<ids::SsId, ids::RsId>& primary,
                  ids::IdVec<ids::SsId, ids::RsId>& secondary) {
    const std::size_t n = scenario.subscriber_count();
    primary.assign(n, ids::RsId::invalid());
    secondary.assign(n, ids::RsId::invalid());
    for (const ids::SsId j : scenario.ss_ids()) {
        const Subscriber& s = scenario.subscriber(j);
        double best = std::numeric_limits<double>::infinity();
        double second = std::numeric_limits<double>::infinity();
        for (const ids::RsId i : ids::first_ids<ids::RsId>(rs.size())) {
            const double d = geom::distance(rs[i.index()], s.pos);
            if (d > s.distance_request + geom::kEps) continue;
            if (d < best) {
                second = best;
                secondary[j] = primary[j];
                best = d;
                primary[j] = i;
            } else if (d < second) {
                second = d;
                secondary[j] = i;
            }
        }
        if (!primary[j].valid() || !secondary[j].valid()) return false;
    }
    return true;
}

/// Full feasibility for the field's current RS set: dual in-range links
/// plus the primary SNR constraint at max power, read off the cached
/// interference totals.
bool field_feasible(const Scenario& scenario, const SnrField& field) {
    ids::IdVec<ids::SsId, ids::RsId> primary, secondary;
    if (!assign_links(scenario, field.rs_positions(), primary, secondary)) {
        return false;
    }
    return field.all_meet_threshold(primary, 1e-12);
}

}  // namespace

DualCoveragePlan solve_dual_coverage(const Scenario& scenario,
                                     std::span<const geom::Vec2> candidates) {
    SAG_OBS_SPAN("dual_coverage.solve");
    DualCoveragePlan plan;
    const std::size_t n = scenario.subscriber_count();
    if (n == 0) {
        plan.feasible = true;
        return plan;
    }

    // Demand-2 multicover over the in-range link structure (entity IDs
    // cross into the generic set-cover instance as raw indices).
    opt::SetCoverInstance inst;
    inst.element_count = n;
    inst.sets.resize(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        for (const ids::SsId j : scenario.ss_ids()) {
            const Subscriber& s = scenario.subscriber(j);
            if (geom::distance(candidates[i], s.pos) <=
                s.distance_request + geom::kEps) {
                inst.sets[i].push_back(j.index());
            }
        }
    }
    const std::vector<std::size_t> demand(n, 2);
    const auto chosen = opt::greedy_set_multicover(inst, demand);
    if (!chosen) return plan;

    std::vector<geom::Vec2> rs;
    rs.reserve(chosen->size());
    for (const std::size_t i : *chosen) rs.push_back(candidates[i]);
    SnrField field = SnrField::at_max_power(scenario, rs);
    if (!field_feasible(scenario, field)) return plan;

    // Redundancy prune: drop RSs whose removal keeps everything feasible.
    // (Removing an RS also removes its interference, so pruning can only
    // help the SNR side.) Each trial removal is a rolled-back delta on the
    // field instead of a full copy-and-rebuild of the candidate set.
    for (ids::RsId i{0}; i.index() < field.rs_count();) {
        SAG_OBS_COUNT("dual_coverage.prune_trials");
        SnrField::Transaction trial(field);
        field.remove_rs(i);
        if (field.rs_count() >= 2 && field_feasible(scenario, field)) {
            trial.commit();
        } else {
            ++i;
        }
    }

    const auto pruned = field.rs_positions();
    plan.rs_positions.assign(pruned.begin(), pruned.end());
    plan.feasible =
        assign_links(scenario, plan.rs_positions, plan.primary, plan.secondary);
    return plan;
}

bool verify_dual_coverage(const Scenario& scenario, const DualCoveragePlan& plan) {
    if (!plan.feasible) return false;
    const std::size_t n = scenario.subscriber_count();
    if (plan.primary.size() != n || plan.secondary.size() != n) return false;
    for (const ids::SsId j : scenario.ss_ids()) {
        const Subscriber& s = scenario.subscriber(j);
        const ids::RsId p = plan.primary[j];
        const ids::RsId q = plan.secondary[j];
        if (p == q) return false;
        if (!p.valid() || !q.valid() || p.index() >= plan.rs_count() ||
            q.index() >= plan.rs_count())
            return false;
        const double dp = geom::distance(plan.rs_positions[p.index()], s.pos);
        const double ds = geom::distance(plan.rs_positions[q.index()], s.pos);
        if (!within_reach(dp, s.distance_request) ||
            !within_reach(ds, s.distance_request))
            return false;
        if (!within_reach(dp, ds)) return false;  // primary must be the nearer one
    }
    const SnrField field = SnrField::at_max_power(scenario, plan.rs_positions);
    return field.all_meet_threshold(plan.primary, 1e-9);
}

}  // namespace sag::core
