#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sag/core/scenario.h"
#include "sag/ids/ids.h"
#include "sag/units/units.h"

namespace sag::core {

/// Stateful, delta-updatable interference field: the incremental SNR
/// evaluation engine behind every SNR-constrained step of the pipeline.
///
/// The field caches, per tracked subscriber, the *total* received power
/// from the current RS set. Definition 2's interference for a subscriber
/// served by RS i is then `total - signal_i + N_amb`, so one cached sum
/// answers SNR queries for any serving choice in O(1). Mutations
/// (`move_rs`, `set_power`, `add_rs`, `remove_rs`) update the cache in
/// O(tracked subscribers) — one path-loss evaluation per subscriber —
/// instead of the O(subscribers x RSs) full rebuild of `coverage_snrs`.
///
/// Exactness: each per-subscriber total is kept as a Neumaier-compensated
/// (sum, comp) pair. Every delta adds/subtracts the *same doubles* a
/// from-scratch evaluation would sum, and the compensation captures each
/// addition's rounding residual exactly, so an incrementally maintained
/// field and a freshly built one agree to the last few ulps no matter how
/// many deltas were applied. A debug-only full-recompute assert
/// (`set_check_interval`) makes that equivalence checkable on every path.
///
/// Layout and speed: subscriber and RS state live in structure-of-arrays
/// double columns (x, y, reach, power), and every O(tracked) loop runs
/// through the wireless::kernel_eval batch evaluators — 4-lane AVX2 when
/// the runtime `SAG_SIMD` dispatch and the kernel's shape allow it,
/// otherwise a scalar path byte-identical to the historical per-link
/// loop. A given buffer index always takes the same instructions, so the
/// add/subtract-the-same-double invariant holds in every mode; vector
/// and scalar totals agree to the docs/PERFORMANCE.md contract (1e-12
/// per term). The active vector width is exported once per field as the
/// `snr_field.simd_lanes` gauge.
///
/// ID spaces: RSs are addressed by RsId (position within this field's RS
/// array — `remove_rs` shifts later IDs down by one, exactly like the
/// vector it wraps). Zone-local solvers construct the field over a
/// subscriber subset; SsId values passed to/returned from per-subscriber
/// queries are then *tracked-local* (slot within that subset), and
/// `tracked_subscriber` maps a local SsId to the scenario-global one. The
/// strong types guard the entity kind — handing an RsId to a subscriber
/// query is a compile error; local-vs-global SsId remains a documented
/// contract per method.
class SnrField {
public:
    /// Field over a subset of subscribers (`subs` holds scenario-global
    /// subscriber IDs; kept by copy). `rs_positions` and `powers` must be
    /// the same length; `powers` entries are linear watts (the
    /// bulk-buffer boundary of the sag::units conventions).
    SnrField(const Scenario& scenario, std::span<const geom::Vec2> rs_positions,
             std::span<const double> powers, std::span<const ids::SsId> subs);

    /// Field over every subscriber of the scenario.
    SnrField(const Scenario& scenario, std::span<const geom::Vec2> rs_positions,
             std::span<const double> powers);

    /// Every RS at `scenario.radio.max_power` (the placement-phase query).
    static SnrField at_max_power(const Scenario& scenario,
                                 std::span<const geom::Vec2> rs_positions);
    static SnrField at_max_power(const Scenario& scenario,
                                 std::span<const geom::Vec2> rs_positions,
                                 std::span<const ids::SsId> subs);

    const Scenario& scenario() const { return *scenario_; }

    std::size_t rs_count() const { return rs_pos_.size(); }
    ids::IdRange<ids::RsId> rs_ids() const {
        return ids::first_ids<ids::RsId>(rs_pos_.size());
    }
    const geom::Vec2& rs_position(ids::RsId i) const { return rs_pos_[i.index()]; }
    units::Watt rs_power(ids::RsId i) const {
        return units::Watt{rs_power_[i.index()]};
    }
    std::span<const geom::Vec2> rs_positions() const { return rs_pos_; }
    /// Raw per-RS transmit powers in watts (bulk-buffer boundary).
    std::span<const double> rs_powers() const { return rs_power_; }

    std::size_t tracked_count() const { return sub_ids_.size(); }
    ids::IdRange<ids::SsId> tracked_ids() const {
        return ids::first_ids<ids::SsId>(sub_ids_.size());
    }
    /// Scenario-global subscriber ID of tracked-local slot k.
    ids::SsId tracked_subscriber(ids::SsId k) const { return sub_ids_[k]; }

    // --- Deltas: each O(tracked_count), journaled when a Transaction is open.

    /// Relocate RS i.
    void move_rs(ids::RsId i, const geom::Vec2& to);
    /// Change RS i's transmit power.
    void set_power(ids::RsId i, units::Watt power);
    /// Append an RS; returns its ID (== old rs_count()).
    ids::RsId add_rs(const geom::Vec2& pos, units::Watt power);
    /// Erase RS i; RSs after i shift down by one ID.
    void remove_rs(ids::RsId i);

    // --- Subscriber-set deltas: O(rs_count) each (one rx_total rebuild of
    // the touched slot). NOT journaled — the Transaction journal records
    // RS deltas only, so these assert that no transaction is open. The
    // serve::Session churn path (SS join/leave/move/rate change) is the
    // intended caller.

    /// Track scenario-global subscriber `global` in a new slot; returns
    /// its tracked-local ID (== old tracked_count()).
    ids::SsId add_subscriber(ids::SsId global);
    /// Stop tracking slot k; slots after k shift down by one ID.
    void remove_subscriber(ids::SsId k);
    /// Re-read slot k's position and distance request from the scenario
    /// (the subscriber moved or changed its request) and rebuild its
    /// total from scratch.
    void update_subscriber(ids::SsId k);

    // --- Reads: O(1) after the cached totals.

    /// Total received power at tracked subscriber k from the whole RS set.
    double total_rx(ids::SsId k) const {
        return total_[k.index()] + comp_[k.index()];
    }

    /// Definition-2 SNR of tracked subscriber k when served by RS
    /// `serving`: signal / (total - signal + N_amb). Zero signal reports
    /// 0 (never infinity); zero denominator with positive signal reports
    /// infinity.
    double snr_of(ids::SsId k, ids::RsId serving) const;

    /// True when snr_of(k, serving) clears beta with relative slack.
    bool meets_threshold(ids::SsId k, ids::RsId serving,
                         double rel_slack = 1e-12) const;

    /// Tracked-local IDs of subscribers failing either their distance
    /// request against `serving[k]` or the SNR threshold. `serving` maps
    /// tracked-local subscriber -> RS, one entry per tracked subscriber.
    std::vector<ids::SsId> violated(
        ids::IdSpan<ids::SsId, const ids::RsId> serving) const;

    /// True when every tracked subscriber clears beta under `serving`
    /// (distance not checked).
    bool all_meet_threshold(ids::IdSpan<ids::SsId, const ids::RsId> serving,
                            double rel_slack = 1e-12) const;

    /// Bulk snr_of: out[k] = snr_of(k, serving[k]) for every tracked
    /// subscriber, through the batch (SIMD-dispatched) kernel — the read
    /// side of the Fig. 3-7 sweep loops. Agrees with per-element snr_of
    /// to 1e-9 relative (docs/PERFORMANCE.md: the interference
    /// subtraction amplifies the per-term bound by the SNR magnitude);
    /// byte-identical under the scalar mode. `out` must have
    /// tracked_count() entries.
    void snrs(ids::IdSpan<ids::SsId, const ids::RsId> serving,
              std::span<double> out) const;

    // --- Maintenance.

    /// Exact from-scratch rebuild of tracked slot k's total. Safe to call
    /// concurrently for distinct k.
    void recompute_subscriber(ids::SsId k);
    /// From-scratch rebuild of every tracked total (serial).
    void refresh();

    /// Debug equivalence: every `interval` mutations, recompute the field
    /// from scratch and abort (assert) on >1e-9 relative divergence.
    /// 0 disables. Defaults: 64 in debug builds, 0 with NDEBUG.
    void set_check_interval(std::size_t interval) { check_interval_ = interval; }
    /// Immediate scratch comparison; returns the worst relative error seen.
    double verify_against_scratch() const;

    /// RAII guard for speculative probes: mutations made while a
    /// Transaction is open are rolled back (in reverse order) when it is
    /// destroyed, unless `commit()` was called. Transactions nest; an
    /// inner commit leaves its deltas to the outer transaction's fate.
    class Transaction {
    public:
        explicit Transaction(SnrField& field);
        ~Transaction();
        Transaction(const Transaction&) = delete;
        Transaction& operator=(const Transaction&) = delete;
        void commit() { committed_ = true; }

    private:
        SnrField& field_;
        std::size_t mark_;
        bool committed_ = false;
    };

private:
    struct UndoRecord {
        enum class Kind { Move, Power, Add, Remove } kind;
        ids::RsId index;
        geom::Vec2 pos;          // Move: old position; Remove: erased position
        units::Watt power{0.0};  // Power: old power;   Remove: erased power
    };

    /// Subtract/add RS (pos, power)'s contribution at every tracked sub
    /// (one batch accumulate_rx sweep over the subscriber columns).
    void apply_rs_contribution(const geom::Vec2& pos, units::Watt power, double sign);
    void insert_rs(ids::RsId i, const geom::Vec2& pos, units::Watt power);
    void journal(UndoRecord rec);
    void rollback_to(std::size_t mark);
    void after_mutation();

    geom::Vec2 sub_pos(std::size_t k) const { return {sub_x_[k], sub_y_[k]}; }
    units::MetersSpan sub_xs() const { return units::MetersSpan{sub_x_}; }
    units::MetersSpan sub_ys() const { return units::MetersSpan{sub_y_}; }
    units::MetersSpan rs_xs() const { return units::MetersSpan{rs_x_}; }
    units::MetersSpan rs_ys() const { return units::MetersSpan{rs_y_}; }

    const Scenario* scenario_;
    /// The scenario's propagation kernel, resolved once at construction:
    /// the one virtual call this class ever makes. Every delta and every
    /// scratch recompute evaluates this same kernel, which is both the
    /// model-consistency invariant and the hot-loop devirtualization.
    wireless::GainKernel kernel_;
    /// RS state: the Vec2 vector is the API master (rs_positions() hands
    /// out a span of it); the x/y columns mirror it for the gather-indexed
    /// batch reads and are updated by every mutation in lockstep.
    std::vector<geom::Vec2> rs_pos_;
    std::vector<double> rs_x_, rs_y_;
    std::vector<double> rs_power_;
    ids::IdVec<ids::SsId, ids::SsId> sub_ids_;  // tracked-local -> global SsId
    std::vector<double> sub_x_, sub_y_;  // subscriber positions, SoA columns
    std::vector<double> sub_reach_;      // cached distance requests
    std::vector<double> total_;          // compensated sums...
    std::vector<double> comp_;           // ...and their residuals
    std::vector<UndoRecord> journal_;
    std::size_t tx_depth_ = 0;
    bool journaling_paused_ = false;
    std::size_t mutations_ = 0;
#ifdef NDEBUG
    std::size_t check_interval_ = 0;
#else
    std::size_t check_interval_ = 64;
#endif
};

/// Incremental ILPQC feasibility oracle: keeps a persistent SnrField over
/// the candidate set chosen so far and diffs each query against the
/// previous one, so the branch-and-bound's stack-disciplined descent pays
/// only for the RSs that actually changed (add/remove deltas) instead of
/// rebuilding the interference sums per leaf.
class SnrFeasibilityOracle {
public:
    SnrFeasibilityOracle(const Scenario& scenario,
                         std::span<const geom::Vec2> candidates);

    /// True when the candidate subset `chosen` (IDs into the candidate
    /// array, in search order) admits a nearest assignment that clears the
    /// SNR threshold at max power. Equivalent to
    /// `snr_feasible_at_max_power` over the materialized positions.
    bool feasible(std::span<const ids::CandId> chosen);

private:
    const Scenario* scenario_;
    std::vector<geom::Vec2> candidates_;
    std::vector<ids::CandId> current_;  // chosen prefix mirrored in field_
    SnrField field_;
};

}  // namespace sag::core
