#include "sag/resilience/repair.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "sag/core/candidates.h"
#include "sag/core/feasibility.h"
#include "sag/core/ucra.h"
#include "sag/obs/obs.h"

namespace sag::resilience {

RepairState::RepairState(const core::Scenario& scenario,
                         std::span<const geom::Vec2> positions,
                         std::span<const double> caps)
    : field(scenario, positions, caps),
      dead(positions.size(), false),
      server(scenario.subscriber_count(), kUnserved),
      placed(scenario.subscriber_count(), false) {}

bool RepairState::link_ok(std::size_t slot, std::size_t ss) const {
    return !dead[slot] && core::link_feasible(field, ids::RsId{slot}, ids::SsId{ss});
}

void RepairState::assign(std::size_t ss, std::size_t slot) {
    server[ss] = slot;
    placed[ss] = true;
}

std::vector<std::size_t> RepairState::unserved() const {
    std::vector<std::size_t> out;
    for (std::size_t k = 0; k < server.size(); ++k) {
        if (server[k] == kUnserved) out.push_back(k);
    }
    return out;
}

std::vector<std::size_t> active_slots(const RepairState& state) {
    std::vector<bool> loaded(state.slot_count(), false);
    for (const std::size_t s : state.server) {
        if (s != RepairState::kUnserved) loaded[s] = true;
    }
    std::vector<std::size_t> active;
    for (std::size_t r = 0; r < loaded.size(); ++r) {
        assert(!(state.dead[r] && loaded[r]) &&
               "dead slot with load: callers must unassign it first");
        if (loaded[r] && !state.dead[r]) active.push_back(r);
    }
    return active;
}

RepairView build_view(const RepairState& state) {
    const core::Scenario& scenario = state.scenario();
    RepairView v;
    v.active = active_slots(state);
    std::vector<std::size_t> slot_to_plan(state.slot_count(), RepairState::kUnserved);
    for (const std::size_t r : v.active) {
        slot_to_plan[r] = v.plan.rs_positions.size();
        v.plan.rs_positions.push_back(state.field.rs_position(ids::RsId{r}));
        v.caps.push_back(state.field.rs_power(ids::RsId{r}).watts());
    }
    v.covered_scenario = scenario;
    v.covered_scenario.subscribers.clear();
    for (std::size_t k = 0; k < state.server.size(); ++k) {
        if (state.server[k] == RepairState::kUnserved) continue;
        v.covered.push_back(k);
        v.covered_scenario.subscribers.push_back(scenario.subscribers[k]);
    }
    v.plan.assignment.resize(v.covered.size());
    for (std::size_t c = 0; c < v.covered.size(); ++c) {
        v.plan.assignment[ids::SsId{c}] =
            ids::RsId{slot_to_plan[state.server[v.covered[c]]]};
    }
    v.plan.feasible = true;
    return v;
}

std::size_t rehome(RepairState& state, std::span<const std::size_t> subscribers) {
    std::size_t placed = 0;
    std::vector<std::size_t> order(state.slot_count());
    for (const std::size_t k : subscribers) {
        const geom::Vec2& sp = state.scenario().subscribers[k].pos;
        const auto dist_sq = [&](std::size_t slot) {
            return geom::distance_sq(state.field.rs_position(ids::RsId{slot}), sp);
        };
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            const double da = dist_sq(a);
            const double db = dist_sq(b);
            return da != db ? da < db : a < b;
        });
        for (const std::size_t slot : order) {
            if (!state.link_ok(slot, k)) continue;
            state.assign(k, slot);
            ++placed;
            break;
        }
    }
    return placed;
}

std::size_t patch(RepairState& state, std::size_t max_new_relays) {
    std::vector<std::size_t> unreached = state.unserved();
    if (unreached.empty() || max_new_relays == 0) return 0;
    const core::Scenario& scenario = state.scenario();

    core::Scenario orphan_view = scenario;
    orphan_view.subscribers.clear();
    for (const std::size_t k : unreached) {
        orphan_view.subscribers.push_back(scenario.subscribers[k]);
    }
    std::vector<geom::Vec2> cands = core::prune_useless_candidates(
        orphan_view, core::iac_candidates(orphan_view));
    // A candidate can coincide with an alive pool RS (the plan drew from
    // the same IAC pool); co-located transmitters are degenerate, drop
    // them. Dead slots are vacated sites and stay available.
    std::erase_if(cands, [&](const geom::Vec2& c) {
        for (std::size_t r = 0; r < state.slot_count(); ++r) {
            if (!state.dead[r] && state.field.rs_position(ids::RsId{r}) == c) {
                return true;
            }
        }
        return false;
    });

    const units::Watt p_max = scenario.rs_max_power();
    std::size_t added = 0;
    while (!unreached.empty() && added < max_new_relays && !cands.empty()) {
        // The candidate whose P_max relay would serve the most unreached
        // SSs, probed via a rolled-back add_rs delta so the field never
        // keeps uncommitted interference.
        std::size_t best_cand = cands.size();
        std::size_t best_count = 0;
        for (std::size_t c = 0; c < cands.size(); ++c) {
            core::SnrField::Transaction probe(state.field);
            const ids::RsId trial = state.field.add_rs(cands[c], p_max);
            std::size_t count = 0;
            for (const std::size_t k : unreached) {
                if (core::link_feasible(state.field, trial, ids::SsId{k})) ++count;
            }
            if (count > best_count) {
                best_count = count;
                best_cand = c;
            }
        }
        if (best_count == 0) break;  // nobody reachable: stop patching

        const geom::Vec2 site = cands[best_cand];
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(best_cand));
        const std::size_t slot = state.field.add_rs(site, p_max).index();
        state.dead.push_back(false);
        ++added;
        std::vector<std::size_t> still;
        for (const std::size_t k : unreached) {
            if (state.link_ok(slot, k)) {
                state.assign(k, slot);
            } else {
                still.push_back(k);
            }
        }
        unreached = std::move(still);
    }
    return added;
}

PowerStage reallocate_power(RepairState& state, int max_rounds) {
    // Yesterday's served SSs (the ones not placed by this run) are a
    // feasible witness below the caps, so the fixed point lands once
    // every placed SS that breaks it has been shed.
    PowerStage out;
    const int rounds = std::max(1, max_rounds);
    while (true) {
        out.view = build_view(state);
        const RepairView& v = out.view;
        out.lower = core::allocate_power_optimal(v.covered_scenario, v.plan, v.caps);
        ++out.rounds;
        const core::CoverageReport report =
            core::verify_coverage(v.covered_scenario, v.plan, out.lower.powers);
        out.lower.feasible = report.feasible;
        if (report.feasible) break;

        // Shed the placed SSs that failed verification; if only the
        // others fail (a placement's interference squeezed them), shed
        // every placed SS instead.
        std::vector<std::size_t> shed;
        for (std::size_t c = 0; c < v.covered.size(); ++c) {
            const auto& check = report.subscribers[ids::SsId{c}];
            const bool ok = check.distance_ok && check.rate_ok && check.snr_ok;
            if (!ok && state.placed[v.covered[c]]) shed.push_back(v.covered[c]);
        }
        if (shed.empty()) {
            for (const std::size_t k : v.covered) {
                if (state.placed[k]) shed.push_back(k);
            }
        }
        if (shed.empty()) break;  // only the others fail: nothing to shed
        for (const std::size_t k : shed) state.server[k] = RepairState::kUnserved;
        out.shed.insert(out.shed.end(), shed.begin(), shed.end());
        if (out.rounds == rounds) break;
    }
    return out;
}

core::ConnectivityPlan rebuild_backhaul(const RepairView& view) {
    core::ConnectivityPlan conn = core::solve_mbmc(view.covered_scenario, view.plan);
    core::allocate_power_ucpo(view.covered_scenario, view.plan, conn);
    return conn;
}

RepairOutcome repair(const core::Scenario& scenario,
                     const core::SagResult& deployment,
                     const FailureSet& failures, const RepairOptions& options) {
    SAG_OBS_SPAN("resilience.repair");
    RepairOutcome out;
    out.power_before = deployment.total_power();

    const DamageReport damage = assess_damage(scenario, deployment, failures);
    const double p_max = scenario.rs_max_power().watts();

    // The surviving pool: the dead coverage RSs compacted out, each
    // survivor at its post-failure cap.
    const std::size_t old_count = deployment.coverage.rs_count();
    std::vector<bool> dead(old_count, false);
    for (const ids::RsId rs : failures.coverage_down) dead[rs.index()] = true;
    std::vector<double> cap_of(old_count, p_max);
    for (const Degradation& d : failures.degraded)
        cap_of[d.rs.index()] = std::min(cap_of[d.rs.index()], d.factor * p_max);
    std::vector<geom::Vec2> positions;
    std::vector<double> caps;
    std::vector<std::size_t> old_to_pool(old_count, RepairState::kUnserved);
    for (const ids::RsId rs : deployment.coverage.rs_ids()) {
        if (dead[rs.index()]) continue;
        old_to_pool[rs.index()] = positions.size();
        positions.push_back(deployment.coverage.rs_position(rs));
        caps.push_back(cap_of[rs.index()]);
    }
    RepairState state(scenario, positions, caps);

    // Survivors keep their (remapped) server; orphans start unserved.
    std::vector<bool> orphaned(scenario.subscriber_count(), false);
    std::vector<std::size_t> orphans;
    for (const ids::SsId j : damage.orphaned) {
        orphaned[j.index()] = true;
        orphans.push_back(j.index());
    }
    for (const ids::SsId j : scenario.ss_ids()) {
        if (orphaned[j.index()]) continue;
        state.server[j.index()] =
            old_to_pool[deployment.coverage.assignment[j].index()];
    }

    {
        SAG_OBS_SPAN("resilience.repair.reassign");
        out.reassigned = rehome(state, orphans);
        SAG_OBS_COUNT_ADD("resilience.reassigned_ss", out.reassigned);
    }
    if (out.reassigned < orphans.size() && options.max_new_relays > 0) {
        SAG_OBS_SPAN("resilience.repair.patch");
        out.new_relays = patch(state, options.max_new_relays);
        SAG_OBS_COUNT_ADD("resilience.new_relays", out.new_relays);
    }
    for (const std::size_t k : state.unserved()) {
        out.unrecoverable.push_back(ids::SsId{k});
    }

    PowerStage power;
    {
        SAG_OBS_SPAN("resilience.repair.power");
        power = reallocate_power(state, options.max_rounds);
        for (const std::size_t k : power.shed) {
            out.unrecoverable.push_back(ids::SsId{k});
        }
        out.rounds = power.rounds;
        SAG_OBS_COUNT_ADD("resilience.repair_rounds",
                          static_cast<std::size_t>(out.rounds));
    }
    core::ConnectivityPlan conn;
    {
        SAG_OBS_SPAN("resilience.repair.backhaul");
        conn = rebuild_backhaul(power.view);
    }

    std::sort(out.unrecoverable.begin(), out.unrecoverable.end());
    SAG_OBS_COUNT_ADD("resilience.unrecoverable_ss", out.unrecoverable.size());

    for (const std::size_t k : power.view.covered) out.covered.push_back(ids::SsId{k});
    out.covered_scenario = std::move(power.view.covered_scenario);
    out.repaired.coverage = std::move(power.view.plan);
    out.repaired.lower_power = std::move(power.lower);
    out.repaired.connectivity = std::move(conn);
    const auto topo = core::verify_topology(
        out.covered_scenario, out.repaired.coverage, out.repaired.connectivity);
    out.repaired.feasible = out.repaired.lower_power.feasible && topo.feasible;
    out.power_after = out.repaired.total_power();
    return out;
}

}  // namespace sag::resilience
