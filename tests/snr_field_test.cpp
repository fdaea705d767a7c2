// SnrField: incremental-vs-scratch equivalence, transaction rollback,
// the incremental ILPQC oracle, and the grid-backed nearest assignment.
// The randomized property tests use fixed seeds.
#include <cmath>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "sag/core/snr.h"
#include "sag/core/snr_field.h"
#include "sag/ids/ids.h"
#include "sag/sim/scenario_gen.h"

namespace sag::core {
namespace {

using ids::CandId;
using ids::RsId;
using ids::SsId;

Scenario random_scenario(std::size_t users, double side, unsigned seed) {
    sim::GeneratorConfig cfg;
    cfg.field_side = side;
    cfg.subscriber_count = users;
    cfg.base_station_count = 2;
    cfg.snr_threshold_db = units::Decibel{-15.0};
    return sim::generate_scenario(cfg, seed);
}

/// Relative difference that treats a shared infinity as equal.
double rel_diff(double a, double b) {
    if (std::isinf(a) && std::isinf(b)) return 0.0;
    const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
    return std::abs(a - b) / scale;
}

/// Serving map: subscriber k -> RS (k % rs_count). Synthetic but exercises
/// every (signal, interference) split.
ids::IdVec<SsId, RsId> round_robin_serving(std::size_t subs, std::size_t rs) {
    ids::IdVec<SsId, RsId> serving;
    serving.reserve(subs);
    for (std::size_t k = 0; k < subs; ++k) serving.push_back(RsId{k % rs});
    return serving;
}

TEST(SnrFieldTest, OneShotMatchesCoverageSnrs) {
    const Scenario s = random_scenario(40, 500.0, 11);
    std::vector<geom::Vec2> rs;
    std::vector<double> powers;
    for (std::size_t i = 0; i < 8; ++i) {
        rs.push_back(s.subscribers[i * 5].pos);
        powers.push_back(
            (s.radio.max_power * (0.25 + 0.1 * static_cast<double>(i))).watts());
    }
    const auto serving = round_robin_serving(s.subscriber_count(), rs.size());
    const SnrField field(s, rs, powers);
    const auto snrs = coverage_snrs(s, rs, powers, serving);
    for (const SsId k : serving.ids()) {
        EXPECT_LE(rel_diff(field.snr_of(k, serving[k]), snrs[k.index()]), 1e-12)
            << k;
    }
}

// The headline property: 1000 mixed move / power / add / remove deltas,
// and after every delta the incrementally maintained field matches a
// fresh from-scratch coverage_snrs evaluation to 1e-12 relative.
TEST(SnrFieldTest, ThousandMixedDeltasMatchScratchTo1e12) {
    const Scenario s = random_scenario(60, 500.0, 23);
    std::mt19937 rng(1234);
    std::uniform_real_distribution<double> coord(-250.0, 250.0);
    std::uniform_real_distribution<double> power(0.0, s.radio.max_power.watts());
    std::uniform_int_distribution<int> op(0, 3);

    std::vector<geom::Vec2> rs;
    std::vector<double> powers;
    for (std::size_t i = 0; i < 12; ++i) {
        rs.push_back({coord(rng), coord(rng)});
        powers.push_back(power(rng));
    }
    SnrField field(s, rs, powers);
    field.set_check_interval(0);  // this test *is* the check

    for (int step = 0; step < 1000; ++step) {
        std::uniform_int_distribution<std::size_t> pick(0, field.rs_count() - 1);
        switch (op(rng)) {
            case 0:
                field.move_rs(RsId{pick(rng)}, {coord(rng), coord(rng)});
                break;
            case 1:
                field.set_power(RsId{pick(rng)}, units::Watt{power(rng)});
                break;
            case 2:
                field.add_rs({coord(rng), coord(rng)}, units::Watt{power(rng)});
                break;
            default:
                if (field.rs_count() > 2) {
                    field.remove_rs(RsId{pick(rng)});
                } else {
                    field.add_rs({coord(rng), coord(rng)}, units::Watt{power(rng)});
                }
                break;
        }

        const auto cur_rs = field.rs_positions();
        const auto cur_powers = field.rs_powers();
        const auto serving =
            round_robin_serving(s.subscriber_count(), field.rs_count());
        const auto scratch = coverage_snrs(
            s, cur_rs, cur_powers, serving);
        for (const SsId k : serving.ids()) {
            ASSERT_LE(rel_diff(field.snr_of(k, serving[k]), scratch[k.index()]),
                      1e-12)
                << "step " << step << " subscriber " << k;
        }
    }
    EXPECT_LE(field.verify_against_scratch(), 1e-12);
}

TEST(SnrFieldTest, TransactionRollsBackEveryDeltaKind) {
    const Scenario s = random_scenario(30, 500.0, 7);
    std::vector<geom::Vec2> rs = {{-100.0, 0.0}, {0.0, 50.0}, {120.0, -80.0}};
    SnrField field = SnrField::at_max_power(s, rs);

    std::vector<double> before(s.subscriber_count());
    for (std::size_t k = 0; k < before.size(); ++k) {
        before[k] = field.total_rx(SsId{k});
    }

    {
        SnrField::Transaction tx(field);
        field.move_rs(RsId{0}, {33.0, 44.0});
        field.set_power(RsId{1}, units::Watt{1.5});
        field.add_rs({-40.0, -40.0}, units::Watt{20.0});
        field.remove_rs(RsId{2});
        field.move_rs(RsId{0}, {-5.0, -5.0});  // second touch of the same RS
        // no commit -> rollback
    }
    ASSERT_EQ(field.rs_count(), 3u);
    EXPECT_EQ(field.rs_position(RsId{0}), rs[0]);
    EXPECT_EQ(field.rs_position(RsId{2}), rs[2]);
    EXPECT_EQ(field.rs_power(RsId{1}), s.radio.max_power);
    for (std::size_t k = 0; k < before.size(); ++k) {
        EXPECT_LE(rel_diff(field.total_rx(SsId{k}), before[k]), 1e-13) << k;
    }
    EXPECT_LE(field.verify_against_scratch(), 1e-12);
}

TEST(SnrFieldTest, NestedTransactionsCommitAndRollbackIndependently) {
    const Scenario s = random_scenario(20, 500.0, 9);
    std::vector<geom::Vec2> rs = {{-50.0, 0.0}, {50.0, 0.0}};
    SnrField field = SnrField::at_max_power(s, rs);

    {
        SnrField::Transaction outer(field);
        field.set_power(RsId{0}, units::Watt{10.0});
        {
            SnrField::Transaction inner(field);
            field.set_power(RsId{1}, units::Watt{20.0});
            inner.commit();  // survives the inner scope...
        }
        EXPECT_EQ(field.rs_power(RsId{1}), units::Watt{20.0});
        // ...but dies with the outer rollback.
    }
    EXPECT_EQ(field.rs_power(RsId{0}), s.radio.max_power);
    EXPECT_EQ(field.rs_power(RsId{1}), s.radio.max_power);

    {
        SnrField::Transaction outer(field);
        field.move_rs(RsId{0}, {0.0, 10.0});
        outer.commit();
    }
    EXPECT_EQ(field.rs_position(RsId{0}), geom::Vec2(0.0, 10.0));
    EXPECT_LE(field.verify_against_scratch(), 1e-12);
}

TEST(SnrFieldTest, ViolatedMatchesManualAudit) {
    const Scenario s = random_scenario(25, 400.0, 31);
    std::vector<geom::Vec2> rs;
    for (std::size_t i = 0; i < 5; ++i) rs.push_back(s.subscribers[i * 5].pos);
    const SnrField field = SnrField::at_max_power(s, rs);
    const auto serving = round_robin_serving(s.subscriber_count(), rs.size());

    const auto bad = field.violated(serving);
    const std::vector<double> powers(rs.size(), s.radio.max_power.watts());
    const auto snrs = coverage_snrs(s, rs, powers, serving);
    const double beta = s.snr_threshold_linear();
    std::vector<SsId> expected;
    for (const SsId k : serving.ids()) {
        const Subscriber& sub = s.subscriber(k);
        const double d = geom::distance(rs[serving[k].index()], sub.pos);
        if (d > sub.distance_request + 1e-6 ||
            snrs[k.index()] < beta * (1.0 - 1e-12)) {
            expected.push_back(k);
        }
    }
    EXPECT_EQ(bad, expected);
}

TEST(SnrFieldTest, TrackedSubsetOnlySeesItsSubscribers) {
    const Scenario s = random_scenario(30, 500.0, 17);
    const std::vector<SsId> subset = {SsId{3}, SsId{7}, SsId{11}, SsId{19}};
    std::vector<geom::Vec2> rs = {{0.0, 0.0}, {80.0, 80.0}};
    const SnrField field = SnrField::at_max_power(s, rs, subset);
    ASSERT_EQ(field.tracked_count(), subset.size());
    const std::vector<double> powers(rs.size(), s.radio.max_power.watts());
    const ids::IdVec<SsId, RsId> serving = {RsId{0}, RsId{1}, RsId{0}, RsId{1}};
    const auto scratch = coverage_snrs(s, rs, powers, subset, serving);
    for (const SsId k : serving.ids()) {
        EXPECT_EQ(field.tracked_subscriber(k), subset[k.index()]);
        EXPECT_LE(rel_diff(field.snr_of(k, serving[k]), scratch[k.index()]),
                  1e-12);
    }
}

TEST(SnrFieldOracleTest, MatchesFreeFunctionOnRandomSubsets) {
    const Scenario s = random_scenario(30, 500.0, 41);
    std::vector<geom::Vec2> candidates;
    for (const auto& sub : s.subscribers) candidates.push_back(sub.pos);

    SnrFeasibilityOracle oracle(s, candidates);
    const std::vector<SsId> all_subs = ids::all_ids<SsId>(s.subscriber_count());

    std::mt19937 rng(77);
    std::vector<CandId> chosen;
    for (int trial = 0; trial < 60; ++trial) {
        // Random walk over subsets: push/pop with stack discipline most of
        // the time, occasionally jump to an unrelated set (the oracle must
        // stay correct for arbitrary query sequences).
        const int act = std::uniform_int_distribution<int>(0, 9)(rng);
        if (act < 4 || chosen.empty()) {
            chosen.push_back(CandId{std::uniform_int_distribution<std::size_t>(
                0, candidates.size() - 1)(rng)});
        } else if (act < 7) {
            chosen.pop_back();
        } else {
            chosen.clear();
            const std::size_t n =
                std::uniform_int_distribution<std::size_t>(1, 6)(rng);
            for (std::size_t i = 0; i < n; ++i) {
                chosen.push_back(CandId{std::uniform_int_distribution<std::size_t>(
                    0, candidates.size() - 1)(rng)});
            }
        }
        std::vector<geom::Vec2> positions;
        for (const CandId c : chosen) positions.push_back(candidates[c.index()]);
        EXPECT_EQ(oracle.feasible(chosen),
                  snr_feasible_at_max_power(s, positions, all_subs))
            << "trial " << trial;
    }
}

TEST(NearestAssignmentGridTest, GridPathMatchesLinearScan) {
    // 48 RSs crosses the grid-lookup threshold; compare against a local
    // brute-force replica of the linear-scan semantics.
    const Scenario s = random_scenario(120, 800.0, 53);
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> coord(-400.0, 400.0);
    std::vector<geom::Vec2> rs;
    for (std::size_t i = 0; i < 48; ++i) rs.push_back({coord(rng), coord(rng)});

    const auto got = nearest_assignment(s, rs);
    ids::IdVec<SsId, RsId> expected(s.subscriber_count(), RsId::invalid());
    bool expected_ok = true;
    for (const SsId j : s.ss_ids()) {
        if (!expected_ok) break;
        const Subscriber& sub = s.subscriber(j);
        RsId best = RsId::invalid();
        double best_dist = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < rs.size(); ++i) {
            const double d = geom::distance(rs[i], sub.pos);
            if (d <= sub.distance_request + geom::kEps && d < best_dist) {
                best = RsId{i};
                best_dist = d;
            }
        }
        if (!best.valid()) expected_ok = false;
        expected[j] = best;
    }
    ASSERT_EQ(got.has_value(), expected_ok);
    if (got) {
        EXPECT_EQ(*got, expected);
    }
}

}  // namespace
}  // namespace sag::core
