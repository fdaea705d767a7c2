#pragma once

// Staged self-healing repair: turn a damaged deployment back into a
// verified-feasible (possibly smaller) network.
//
// One repair kernel serves both resilience::repair (a batch of failures
// against a solved deployment) and serve::Session (one churn event at a
// time). Its state is a RepairState: the RS pool held in a probe
// core::SnrField at the per-RS power caps, a dead mask, and who serves
// whom. Its stages, in order:
//   1. rehome — unserved SSs are placed on the nearest pool RS that
//      passes core::link_feasible at its cap (O(1) SNR reads off the
//      field's cached totals);
//   2. patch — SSs no pool RS can reach are served by new relays drawn
//      greedily from the IAC candidate pool of exactly those SSs;
//   3. reallocate_power — core::allocate_power_optimal (the Yates fixed
//      point) recomputes the minimal lower-tier vector under the caps:
//      P_max for healthy and patched RSs, factor * P_max for degraded
//      ones. verify_coverage audits it; SSs placed by this run that
//      break it are shed and the stage retries;
//   4. rebuild_backhaul — MBMC rebuilds the whole upper tier over the
//      active RSs, then UCPO re-optimizes the connectivity powers.
//
// repair() runs every stage once. Subscribers that still cannot be
// served are reported in `unrecoverable` — never asserted on.
// Everything the engine keeps is re-verified: RepairOutcome::repaired is
// a SagResult over `covered_scenario`, so verify_coverage /
// verify_topology run on it directly.

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "sag/core/deployment.h"
#include "sag/core/power.h"
#include "sag/core/sag.h"
#include "sag/core/scenario.h"
#include "sag/core/snr_field.h"
#include "sag/geometry/vec2.h"
#include "sag/ids/ids.h"
#include "sag/resilience/damage.h"
#include "sag/resilience/failure.h"

namespace sag::resilience {

struct RepairOptions {
    /// Power/verify rounds: a failed verification drops the offending
    /// newly-added SSs and retries, so each round strictly shrinks the
    /// instance toward the guaranteed-feasible surviving core.
    int max_rounds = 4;
    /// Stage-2 budget of patched-in relays; 0 disables patching.
    std::size_t max_new_relays = 8;
};

/// Result of one repair run. `repaired` and its verification live in the
/// SsId space of `covered_scenario`; `covered[k]` maps its subscriber k
/// back to the original scenario's SsId.
struct RepairOutcome {
    /// The original scenario restricted to the subscribers the repaired
    /// network serves (ascending original-SsId order).
    core::Scenario covered_scenario;
    /// Original SsIds of covered_scenario's subscribers, ascending.
    std::vector<ids::SsId> covered;
    /// The repaired two-tier network over covered_scenario.
    core::SagResult repaired;
    /// Original SsIds the engine could not restore, ascending.
    std::vector<ids::SsId> unrecoverable;

    std::size_t reassigned = 0;   ///< orphans re-homed onto surviving RSs
    std::size_t new_relays = 0;   ///< stage-2 relays patched in
    int rounds = 0;               ///< power/verify rounds executed
    double power_before = 0.0;    ///< P_total of the intact deployment
    double power_after = 0.0;     ///< P_total of the repaired network

    bool full_recovery() const { return unrecoverable.empty(); }
    /// Repaired-over-intact total power (the bench's overhead curve);
    /// 0/0 reports 1 (an empty network repaired to an empty network).
    double power_overhead() const {
        return power_before > 0.0 ? power_after / power_before
                                  : (power_after > 0.0 ? std::numeric_limits<
                                                             double>::infinity()
                                                       : 1.0);
    }
};

// --- The repair kernel ------------------------------------------------------

/// Working state of a repair. The pool is slot-stable: a dead slot keeps
/// its position at zero power, so slot numbers survive failures.
struct RepairState {
    static constexpr std::size_t kUnserved = static_cast<std::size_t>(-1);

    /// The pool at its caps over every subscriber of the scenario: slot
    /// i's position and cap are field.rs_position / rs_power(RsId{i}) (0
    /// when dead). Every link test probes this field.
    core::SnrField field;
    std::vector<bool> dead;  ///< per pool slot
    /// Per subscriber (SsId index): the serving pool slot, or kUnserved.
    std::vector<std::size_t> server;
    /// Per subscriber: placed by this run (rehome or patch). Only these
    /// SSs are shed when the power stage fails verification.
    std::vector<bool> placed;

    /// Every slot alive at its cap, every subscriber unserved.
    RepairState(const core::Scenario& scenario, std::span<const geom::Vec2> positions,
                std::span<const double> caps);

    const core::Scenario& scenario() const { return field.scenario(); }
    std::size_t slot_count() const { return dead.size(); }
    /// Alive slot `slot` serves subscriber `ss` at its cap (the core
    /// link predicate against the field).
    bool link_ok(std::size_t slot, std::size_t ss) const;
    /// Serve `ss` from `slot`, marking it placed by this run.
    void assign(std::size_t ss, std::size_t slot);
    /// Subscribers with no server, ascending.
    std::vector<std::size_t> unserved() const;
};

/// The compacted served view: the scenario restricted to the served SSs
/// and a plan over the alive slots that serve at least one of them.
struct RepairView {
    core::Scenario covered_scenario;
    std::vector<std::size_t> covered;  ///< per covered SS: its SsId index, ascending
    core::CoveragePlan plan;
    std::vector<double> caps;          ///< per plan RS, linear watts
    std::vector<std::size_t> active;   ///< plan RS -> pool slot
};

/// Alive pool slots serving at least one subscriber, ascending.
std::vector<std::size_t> active_slots(const RepairState& state);

/// The state's current served view.
RepairView build_view(const RepairState& state);

/// Stage 1: place each subscriber of `subscribers` (SsId indices, in
/// order) on the nearest slot passing link_ok, ties broken on
/// (distance², slot). Returns how many were placed.
std::size_t rehome(RepairState& state, std::span<const std::size_t> subscribers);

/// Stage 2: greedy max coverage of the unserved SSs over their IAC
/// candidate pool. Each candidate is probed as a P_max relay with a
/// rolled-back add_rs; the best one is committed as a new pool slot. Adds
/// at most `max_new_relays`; returns how many it added.
std::size_t patch(RepairState& state, std::size_t max_new_relays);

/// What the power stage leaves behind.
struct PowerStage {
    RepairView view;              ///< the view of the last round
    core::PowerAllocation lower;  ///< its powers; feasible = verify_coverage verdict
    std::vector<std::size_t> shed;  ///< SSs unassigned by failed rounds
    int rounds = 0;               ///< Yates + verify rounds run
};

/// Stage 3: Yates under the caps, then verify_coverage; on failure shed
/// the failing SSs placed by this run (or, when only the others fail,
/// every SS placed by this run) and retry, for at most `max_rounds`.
PowerStage reallocate_power(RepairState& state, int max_rounds);

/// Stage 4: MBMC + UCPO over the view.
core::ConnectivityPlan rebuild_backhaul(const RepairView& view);

/// Runs the staged repair: the kernel over the surviving coverage RSs
/// (compacted, at their post-failure caps), every stage once.
/// Deterministic: no randomness, all stages are greedy over sorted orders.
RepairOutcome repair(const core::Scenario& scenario,
                     const core::SagResult& deployment,
                     const FailureSet& failures, const RepairOptions& options = {});

}  // namespace sag::resilience
