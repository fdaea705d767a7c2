#include "sag/core/snr_field.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sag/core/feasibility.h"
#include "sag/core/snr.h"
#include "sag/obs/obs.h"
#include "sag/wireless/kernel_eval.h"

namespace sag::core {

SnrField::SnrField(const Scenario& scenario, std::span<const geom::Vec2> rs_positions,
                   std::span<const double> powers, std::span<const ids::SsId> subs)
    : scenario_(&scenario),
      kernel_(scenario.gain_kernel()),
      rs_pos_(rs_positions.begin(), rs_positions.end()),
      rs_power_(powers.begin(), powers.end()),
      sub_ids_(std::vector<ids::SsId>(subs.begin(), subs.end())) {
    assert(rs_pos_.size() == rs_power_.size());
    rs_x_.reserve(rs_pos_.size());
    rs_y_.reserve(rs_pos_.size());
    for (const geom::Vec2& p : rs_pos_) {
        rs_x_.push_back(p.x);
        rs_y_.push_back(p.y);
    }
    sub_x_.reserve(sub_ids_.size());
    sub_y_.reserve(sub_ids_.size());
    sub_reach_.reserve(sub_ids_.size());
    for (const ids::SsId j : sub_ids_) {
        sub_x_.push_back(scenario.subscriber(j).pos.x);
        sub_y_.push_back(scenario.subscriber(j).pos.y);
        sub_reach_.push_back(scenario.subscriber(j).distance_request);
    }
    total_.assign(sub_ids_.size(), 0.0);
    comp_.assign(sub_ids_.size(), 0.0);
    SAG_OBS_GAUGE("snr_field.simd_lanes", wireless::simd_lanes());
    refresh();
}

SnrField::SnrField(const Scenario& scenario, std::span<const geom::Vec2> rs_positions,
                   std::span<const double> powers)
    : SnrField(scenario, rs_positions, powers,
               ids::all_ids<ids::SsId>(scenario.subscriber_count())) {}

SnrField SnrField::at_max_power(const Scenario& scenario,
                                std::span<const geom::Vec2> rs_positions) {
    const std::vector<double> powers(rs_positions.size(),
                                     scenario.rs_max_power().watts());
    return SnrField(scenario, rs_positions, powers);
}

SnrField SnrField::at_max_power(const Scenario& scenario,
                                std::span<const geom::Vec2> rs_positions,
                                std::span<const ids::SsId> subs) {
    const std::vector<double> powers(rs_positions.size(),
                                     scenario.rs_max_power().watts());
    return SnrField(scenario, rs_positions, powers, subs);
}

void SnrField::apply_rs_contribution(const geom::Vec2& pos, units::Watt power,
                                     double sign) {
    // Neumaier accumulation of sign * power * gain at every tracked
    // subscriber, one batch sweep over the SoA columns. The sign rides on
    // the power (exact negation), so a retraction subtracts exactly the
    // doubles the insertion added — the cancellation invariant the
    // Transaction rollback and remove_rs depend on.
    wireless::accumulate_rx(kernel_, pos, power * sign, sub_xs(), sub_ys(),
                            total_, comp_);
}

void SnrField::move_rs(ids::RsId i, const geom::Vec2& to) {
    assert(i.index() < rs_pos_.size());
    if (rs_pos_[i.index()] == to) return;
    journal({UndoRecord::Kind::Move, i, rs_pos_[i.index()], units::Watt{0.0}});
    apply_rs_contribution(rs_pos_[i.index()], rs_power(i), -1.0);
    rs_pos_[i.index()] = to;
    rs_x_[i.index()] = to.x;
    rs_y_[i.index()] = to.y;
    apply_rs_contribution(rs_pos_[i.index()], rs_power(i), +1.0);
    after_mutation();
}

void SnrField::set_power(ids::RsId i, units::Watt power) {
    assert(i.index() < rs_power_.size());
    if (rs_power_[i.index()] == power.watts()) return;
    journal({UndoRecord::Kind::Power, i, {}, rs_power(i)});
    // Subtract the old term and add the new one per subscriber (rather
    // than adding a fused difference) so both are the exact doubles a
    // from-scratch evaluation would produce. Two batch sweeps: the gain
    // for a given subscriber is the same double in both, so the per-slot
    // operation sequence matches the historical fused loop exactly.
    const units::Watt old_power = rs_power(i);
    apply_rs_contribution(rs_pos_[i.index()], old_power, -1.0);
    apply_rs_contribution(rs_pos_[i.index()], power, +1.0);
    rs_power_[i.index()] = power.watts();
    after_mutation();
}

ids::RsId SnrField::add_rs(const geom::Vec2& pos, units::Watt power) {
    const ids::RsId i{rs_pos_.size()};
    journal({UndoRecord::Kind::Add, i, {}, units::Watt{0.0}});
    rs_pos_.push_back(pos);
    rs_x_.push_back(pos.x);
    rs_y_.push_back(pos.y);
    rs_power_.push_back(power.watts());
    apply_rs_contribution(pos, power, +1.0);
    after_mutation();
    return i;
}

void SnrField::remove_rs(ids::RsId i) {
    assert(i.index() < rs_pos_.size());
    journal({UndoRecord::Kind::Remove, i, rs_pos_[i.index()], rs_power(i)});
    apply_rs_contribution(rs_pos_[i.index()], rs_power(i), -1.0);
    const auto at = static_cast<std::ptrdiff_t>(i.index());
    rs_pos_.erase(rs_pos_.begin() + at);
    rs_x_.erase(rs_x_.begin() + at);
    rs_y_.erase(rs_y_.begin() + at);
    rs_power_.erase(rs_power_.begin() + at);
    after_mutation();
}

void SnrField::insert_rs(ids::RsId i, const geom::Vec2& pos, units::Watt power) {
    assert(i.index() <= rs_pos_.size());
    const auto at = static_cast<std::ptrdiff_t>(i.index());
    rs_pos_.insert(rs_pos_.begin() + at, pos);
    rs_x_.insert(rs_x_.begin() + at, pos.x);
    rs_y_.insert(rs_y_.begin() + at, pos.y);
    rs_power_.insert(rs_power_.begin() + at, power.watts());
    apply_rs_contribution(pos, power, +1.0);
    after_mutation();
}

ids::SsId SnrField::add_subscriber(ids::SsId global) {
    assert(tx_depth_ == 0 && "subscriber deltas are not journaled");
    assert(global.index() < scenario_->subscriber_count());
    const ids::SsId k = sub_ids_.push_back(global);
    sub_x_.push_back(scenario_->subscriber(global).pos.x);
    sub_y_.push_back(scenario_->subscriber(global).pos.y);
    sub_reach_.push_back(scenario_->subscriber(global).distance_request);
    total_.push_back(0.0);
    comp_.push_back(0.0);
    recompute_subscriber(k);
    after_mutation();
    return k;
}

void SnrField::remove_subscriber(ids::SsId k) {
    assert(tx_depth_ == 0 && "subscriber deltas are not journaled");
    assert(k.index() < sub_ids_.size());
    const auto at = static_cast<std::ptrdiff_t>(k.index());
    // SAG_RAW_OK: erasing the tracked-local slot from the id column.
    sub_ids_.raw().erase(sub_ids_.raw().begin() + at);
    sub_x_.erase(sub_x_.begin() + at);
    sub_y_.erase(sub_y_.begin() + at);
    sub_reach_.erase(sub_reach_.begin() + at);
    total_.erase(total_.begin() + at);
    comp_.erase(comp_.begin() + at);
    after_mutation();
}

void SnrField::update_subscriber(ids::SsId k) {
    assert(tx_depth_ == 0 && "subscriber deltas are not journaled");
    assert(k.index() < sub_ids_.size());
    const ids::SsId global = sub_ids_[k];
    sub_x_[k.index()] = scenario_->subscriber(global).pos.x;
    sub_y_[k.index()] = scenario_->subscriber(global).pos.y;
    sub_reach_[k.index()] = scenario_->subscriber(global).distance_request;
    recompute_subscriber(k);
    after_mutation();
}

double SnrField::snr_of(ids::SsId k, ids::RsId serving) const {
    assert(k.index() < sub_x_.size() && serving.index() < rs_pos_.size());
    const geom::Vec2 sub = sub_pos(k.index());
    const units::Watt signal{
        rs_power(serving).watts() *
        kernel_.gain(rs_pos_[serving.index()], sub,
                     geom::distance(rs_pos_[serving.index()], sub))};
    if (signal <= units::Watt{0.0}) return 0.0;  // a silent server delivers no SNR
    const units::Watt interference =
        units::Watt{total_rx(k)} - signal + scenario_->radio.snr_ambient_noise;
    return interference > units::Watt{0.0}
               ? (signal / interference).ratio()
               : std::numeric_limits<double>::infinity();
}

bool SnrField::meets_threshold(ids::SsId k, ids::RsId serving,
                               double rel_slack) const {
    return snr_of(k, serving) >=
           scenario_->snr_threshold_linear() * (1.0 - rel_slack);
}

std::vector<ids::SsId> SnrField::violated(
    ids::IdSpan<ids::SsId, const ids::RsId> serving) const {
    assert(serving.size() == sub_x_.size());
    const double beta = scenario_->snr_threshold_linear();
    std::vector<ids::SsId> bad;
    for (const ids::SsId k : tracked_ids()) {
        const ids::RsId rs = serving[k];
        const double d =
            geom::distance(rs_pos_[rs.index()], sub_pos(k.index()));
        if (!within_reach(d, sub_reach_[k.index()]) ||
            snr_of(k, rs) < beta * (1.0 - 1e-12)) {
            bad.push_back(k);
        }
    }
    return bad;
}

bool SnrField::all_meet_threshold(ids::IdSpan<ids::SsId, const ids::RsId> serving,
                                  double rel_slack) const {
    assert(serving.size() == sub_x_.size());
    for (const ids::SsId k : tracked_ids()) {
        if (!meets_threshold(k, serving[k], rel_slack)) return false;
    }
    return true;
}

void SnrField::snrs(ids::IdSpan<ids::SsId, const ids::RsId> serving,
                    std::span<double> out) const {
    assert(serving.size() == sub_x_.size() && out.size() == sub_x_.size());
    // The batch kernel gathers RS columns through raw 32-bit indices;
    // this is the IdSpan -> bulk-buffer boundary.
    std::vector<std::uint32_t> raw(serving.size());
    for (const ids::SsId k : tracked_ids()) {
        assert(serving[k].index() < rs_pos_.size());
        // SAG_RAW_OK: building the kernel's u32 gather column from RsIds.
        raw[k.index()] = serving[k].value();
    }
    wireless::batch_snr(kernel_, rs_xs(), rs_ys(),
                        units::WattSpan{rs_power_}, raw, sub_xs(), sub_ys(),
                        total_, comp_, scenario_->radio.snr_ambient_noise,
                        out);
}

void SnrField::recompute_subscriber(ids::SsId kk) {
    const std::size_t k = kk.index();
    wireless::rx_total(kernel_, sub_pos(k), rs_xs(), rs_ys(),
                       units::WattSpan{rs_power_}, total_[k], comp_[k]);
}

void SnrField::refresh() {
    for (const ids::SsId k : tracked_ids()) recompute_subscriber(k);
}

double SnrField::verify_against_scratch() const {
    double worst = 0.0;
    for (std::size_t k = 0; k < sub_x_.size(); ++k) {
        double scratch = 0.0;
        for (std::size_t i = 0; i < rs_pos_.size(); ++i) {
            scratch += rs_power_[i] *
                       kernel_.gain(rs_pos_[i], sub_pos(k),
                                    geom::distance(rs_pos_[i], sub_pos(k)));
        }
        const double incr = total_[k] + comp_[k];
        const double scale =
            std::max({std::abs(scratch), std::abs(incr), 1e-300});
        worst = std::max(worst, std::abs(incr - scratch) / scale);
    }
    return worst;
}

void SnrField::journal(UndoRecord rec) {
    if (tx_depth_ > 0 && !journaling_paused_) journal_.push_back(rec);
}

void SnrField::rollback_to(std::size_t mark) {
    journaling_paused_ = true;
    while (journal_.size() > mark) {
        const UndoRecord rec = journal_.back();
        journal_.pop_back();
        switch (rec.kind) {
            case UndoRecord::Kind::Move:
                move_rs(rec.index, rec.pos);
                break;
            case UndoRecord::Kind::Power:
                set_power(rec.index, rec.power);
                break;
            case UndoRecord::Kind::Add:
                remove_rs(rec.index);
                break;
            case UndoRecord::Kind::Remove:
                insert_rs(rec.index, rec.pos, rec.power);
                break;
        }
    }
    journaling_paused_ = false;
}

void SnrField::after_mutation() {
    // journaling_paused_ is only true while rollback_to replays undo
    // records, so it cleanly splits applied from reverted deltas.
    if (journaling_paused_) {
        SAG_OBS_COUNT("snr_field.deltas.reverted");
    } else {
        SAG_OBS_COUNT("snr_field.deltas.applied");
    }
    ++mutations_;
    if (check_interval_ != 0 && mutations_ % check_interval_ == 0) {
        SAG_OBS_COUNT("snr_field.scratch_checks");
        assert(verify_against_scratch() <= 1e-9 &&
               "SnrField incremental state diverged from scratch recompute");
    }
}

SnrField::Transaction::Transaction(SnrField& field)
    : field_(field), mark_(field.journal_.size()) {
    ++field_.tx_depth_;
}

SnrField::Transaction::~Transaction() {
    if (!committed_) field_.rollback_to(mark_);
    --field_.tx_depth_;
    if (field_.tx_depth_ == 0) field_.journal_.clear();
}

SnrFeasibilityOracle::SnrFeasibilityOracle(const Scenario& scenario,
                                           std::span<const geom::Vec2> candidates)
    : scenario_(&scenario),
      candidates_(candidates.begin(), candidates.end()),
      field_(scenario, {}, {}) {}

bool SnrFeasibilityOracle::feasible(std::span<const ids::CandId> chosen) {
    SAG_OBS_COUNT("ilpqc.oracle.calls");
    // The branch-and-bound descends with stack discipline, so consecutive
    // queries share a long prefix: pop back to it, push the rest.
    std::size_t prefix = 0;
    while (prefix < current_.size() && prefix < chosen.size() &&
           current_[prefix] == chosen[prefix]) {
        ++prefix;
    }
    SAG_OBS_COUNT_ADD("ilpqc.oracle.rs_removed", current_.size() - prefix);
    SAG_OBS_COUNT_ADD("ilpqc.oracle.rs_added", chosen.size() - prefix);
    while (current_.size() > prefix) {
        field_.remove_rs(ids::RsId{current_.size() - 1});
        current_.pop_back();
    }
    for (std::size_t c = prefix; c < chosen.size(); ++c) {
        field_.add_rs(candidates_[chosen[c].index()], scenario_->rs_max_power());
        current_.push_back(chosen[c]);
    }

    const auto assignment = nearest_assignment(*scenario_, field_.rs_positions());
    if (!assignment) return false;
    return field_.all_meet_threshold(*assignment, 0.0);
}

}  // namespace sag::core
