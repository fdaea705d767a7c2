// sag::resilience — failure injection, damage assessment and the staged
// self-healing repair engine. The load-bearing properties here are the
// repair invariants: everything the engine keeps must re-verify through
// the same independent verifiers the benchmarks trust, no transmit power
// may ever exceed its (possibly degraded) cap, and repair must never
// shrink the set of subscribers the damaged network could still serve.
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "sag/core/feasibility.h"
#include "sag/core/sag.h"
#include "sag/io/resilience_io.h"
#include "sag/resilience/damage.h"
#include "sag/resilience/failure.h"
#include "sag/resilience/repair.h"
#include "sag/sim/scenario_gen.h"

namespace sag::resilience {
namespace {

core::Scenario make_scenario(int seed, std::size_t subscribers = 20) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = subscribers;
    cfg.base_station_count = 4;
    return sim::generate_scenario(cfg, seed);
}

struct Deployed {
    core::Scenario scenario;
    core::SagResult result;
};

Deployed deploy(int seed, std::size_t subscribers = 20) {
    Deployed d;
    d.scenario = make_scenario(seed, subscribers);
    d.result = core::solve_sag(d.scenario);
    return d;
}

// --- Failure models -------------------------------------------------------

TEST(FailureModelTest, IndependentIsSeedDeterministic) {
    const Deployed d = deploy(3);
    ASSERT_TRUE(d.result.feasible);
    IndependentFailureModel model;
    model.probability = 0.3;
    const FailureSet a = inject_independent(d.result, model, 42);
    const FailureSet b = inject_independent(d.result, model, 42);
    EXPECT_EQ(a.coverage_down, b.coverage_down);
    EXPECT_EQ(a.connectivity_down, b.connectivity_down);
}

TEST(FailureModelTest, ProbabilityZeroAndOneAreExact) {
    const Deployed d = deploy(3);
    ASSERT_TRUE(d.result.feasible);
    IndependentFailureModel none;
    none.probability = 0.0;
    EXPECT_TRUE(inject_independent(d.result, none, 1).empty());
    IndependentFailureModel all;
    all.probability = 1.0;
    const FailureSet f = inject_independent(d.result, all, 1);
    EXPECT_EQ(f.coverage_down.size(), d.result.coverage_rs_count());
    EXPECT_EQ(f.connectivity_down.size(), d.result.connectivity_rs_count());
}

TEST(FailureModelTest, IndependentRejectsBadProbability) {
    const Deployed d = deploy(3);
    IndependentFailureModel model;
    model.probability = 1.5;
    EXPECT_THROW((void)inject_independent(d.result, model, 1),
                 std::invalid_argument);
}

TEST(FailureModelTest, DiscOutageKillsExactlyTheDisc) {
    const Deployed d = deploy(5);
    ASSERT_TRUE(d.result.feasible);
    DiscOutageModel model;
    model.radius = units::Meters{150.0};
    model.center = geom::Vec2{0.0, 0.0};
    const FailureSet f = inject_disc_outage(d.scenario, d.result, model, 7);
    std::set<std::size_t> dead;
    for (const ids::RsId r : f.coverage_down) dead.insert(r.index());
    for (std::size_t i = 0; i < d.result.coverage.rs_count(); ++i) {
        const bool inside =
            (d.result.coverage.rs_positions[i] - *model.center).norm() <=
            model.radius.meters();
        EXPECT_EQ(dead.count(i) == 1, inside) << "coverage RS " << i;
    }
}

TEST(FailureModelTest, DegradationStaysWithinBounds) {
    const Deployed d = deploy(5);
    ASSERT_TRUE(d.result.feasible);
    PowerDegradationModel model;
    model.probability = 0.5;
    model.factor = 0.6;
    const FailureSet f = inject_power_degradation(d.result, model, 11);
    for (const Degradation& g : f.degraded) {
        EXPECT_LT(g.rs.index(), d.result.coverage.rs_count());
        EXPECT_DOUBLE_EQ(g.factor, 0.6);
    }
    EXPECT_TRUE(f.coverage_down.empty());
    EXPECT_TRUE(f.connectivity_down.empty());
}

TEST(FailureModelTest, DamagedPowersZeroDeadAndClampDegraded) {
    const Deployed d = deploy(9);
    ASSERT_TRUE(d.result.feasible);
    ASSERT_GE(d.result.coverage.rs_count(), 2u);
    FailureSet f;
    f.coverage_down = {ids::RsId{0}};
    f.degraded = {{ids::RsId{1}, 0.25}};
    const std::vector<double> p = damaged_powers(d.scenario, d.result, f);
    ASSERT_EQ(p.size(), d.result.lower_power.powers.size());
    EXPECT_DOUBLE_EQ(p[0], 0.0);
    EXPECT_LE(p[1], 0.25 * d.scenario.radio.max_power.watts() + 1e-12);
    for (std::size_t i = 2; i < p.size(); ++i) {
        EXPECT_DOUBLE_EQ(p[i], d.result.lower_power.powers[i]);
    }
}

// --- Damage assessment ----------------------------------------------------

TEST(DamageTest, EmptyFailureSetIsIntact) {
    const Deployed d = deploy(13);
    ASSERT_TRUE(d.result.feasible);
    const DamageReport report = assess_damage(d.scenario, d.result, FailureSet{});
    EXPECT_TRUE(report.intact());
    EXPECT_EQ(report.dead_coverage_rs, 0u);
    EXPECT_EQ(report.dead_connectivity_rs, 0u);
}

TEST(DamageTest, DeadServerOrphansItsSubscribers) {
    const Deployed d = deploy(13);
    ASSERT_TRUE(d.result.feasible);
    FailureSet f;
    f.coverage_down = {ids::RsId{0}};
    const DamageReport report = assess_damage(d.scenario, d.result, f);
    for (const ids::SsId k : d.scenario.ss_ids()) {
        if (d.result.coverage.assignment[k] == ids::RsId{0}) {
            EXPECT_TRUE(std::binary_search(report.orphaned.begin(),
                                           report.orphaned.end(), k))
                << "SS " << k.index() << " served by the dead RS must be orphaned";
        }
    }
}

TEST(DamageTest, AgreesWithVerifyCoverageOnDamagedPowers) {
    // The report's orphan set must be exactly the SS violations the
    // independent verifier finds under the post-failure power vector.
    const Deployed d = deploy(17, 25);
    ASSERT_TRUE(d.result.feasible);
    const FailureSet f =
        inject_independent(d.result, IndependentFailureModel{0.25, false}, 99);
    const DamageReport report = assess_damage(d.scenario, d.result, f);
    const auto verdict = core::verify_coverage(
        d.scenario, d.result.coverage, damaged_powers(d.scenario, d.result, f));
    EXPECT_EQ(report.coverage_intact(), verdict.feasible);
}

// --- Repair invariants ----------------------------------------------------

TEST(RepairTest, NoOpOnEmptyFailureSet) {
    const Deployed d = deploy(21);
    ASSERT_TRUE(d.result.feasible);
    const RepairOutcome out = repair(d.scenario, d.result, FailureSet{});
    EXPECT_TRUE(out.full_recovery());
    EXPECT_EQ(out.covered.size(), d.scenario.subscriber_count());
    EXPECT_TRUE(out.repaired.feasible);
    EXPECT_EQ(out.new_relays, 0u);
}

TEST(RepairTest, RepairedNetworkPassesBothVerifiers) {
    const Deployed d = deploy(23, 25);
    ASSERT_TRUE(d.result.feasible);
    const FailureSet f =
        inject_independent(d.result, IndependentFailureModel{0.2, true}, 5);
    const RepairOutcome out = repair(d.scenario, d.result, f);
    ASSERT_TRUE(out.repaired.feasible);
    EXPECT_TRUE(core::verify_coverage(out.covered_scenario, out.repaired.coverage,
                                      out.repaired.lower_power.powers)
                    .feasible);
    EXPECT_TRUE(core::verify_topology(out.covered_scenario, out.repaired.coverage,
                                      out.repaired.connectivity)
                    .feasible);
}

TEST(RepairTest, PowersNeverExceedPmax) {
    const Deployed d = deploy(23, 25);
    ASSERT_TRUE(d.result.feasible);
    const double pmax = d.scenario.radio.max_power.watts();
    const FailureSet f =
        inject_independent(d.result, IndependentFailureModel{0.2, true}, 5);
    const RepairOutcome out = repair(d.scenario, d.result, f);
    ASSERT_TRUE(out.repaired.feasible);
    for (const double p : out.repaired.lower_power.powers) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, pmax + 1e-9);
    }
    for (const double p : out.repaired.connectivity.powers) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, pmax + 1e-9);
    }
}

TEST(RepairTest, DegradedSurvivorsRespectTheirReducedCap) {
    const Deployed d = deploy(29, 25);
    ASSERT_TRUE(d.result.feasible);
    PowerDegradationModel model;
    model.probability = 0.5;
    model.factor = 0.4;
    const FailureSet f = inject_power_degradation(d.result, model, 3);
    const RepairOutcome out = repair(d.scenario, d.result, f);
    ASSERT_TRUE(out.repaired.feasible);
    // Repaired RS indices are compacted, so match degraded survivors by
    // position (positions are unique within a plan).
    const double cap = model.factor * d.scenario.radio.max_power.watts();
    for (const Degradation& g : f.degraded) {
        const geom::Vec2 pos = d.result.coverage.rs_positions[g.rs.index()];
        for (std::size_t i = 0; i < out.repaired.coverage.rs_count(); ++i) {
            if (out.repaired.coverage.rs_positions[i] == pos) {
                EXPECT_LE(out.repaired.lower_power.powers[i], cap + 1e-9)
                    << "degraded survivor at repaired slot " << i;
            }
        }
    }
}

TEST(RepairTest, CoveredAndUnrecoverablePartitionTheSubscribers) {
    const Deployed d = deploy(31, 25);
    ASSERT_TRUE(d.result.feasible);
    const FailureSet f =
        inject_independent(d.result, IndependentFailureModel{0.3, true}, 77);
    const RepairOutcome out = repair(d.scenario, d.result, f);
    std::set<std::size_t> seen;
    for (const ids::SsId k : out.covered) seen.insert(k.index());
    for (const ids::SsId k : out.unrecoverable) {
        EXPECT_TRUE(seen.insert(k.index()).second)
            << "SS " << k.index() << " both covered and unrecoverable";
    }
    EXPECT_EQ(seen.size(), d.scenario.subscriber_count());
    EXPECT_EQ(out.covered.size(), out.covered_scenario.subscriber_count());
}

/// Every coverage RS dead: with patching off the repaired plan is empty
/// (no RS, every SS unrecoverable); with patching on, the patched relays
/// serve what they can. Either way the run completes and covered ∪
/// unrecoverable partitions the subscribers.
TEST(RepairTest, EveryCoverageRsDeadStillPartitionsTheSubscribers) {
    const Deployed d = deploy(33, 25);
    ASSERT_TRUE(d.result.feasible);
    FailureSet f;
    for (const ids::RsId rs : d.result.coverage.rs_ids()) f.coverage_down.push_back(rs);
    for (const std::size_t max_new : {std::size_t{0}, std::size_t{8}}) {
        RepairOptions opts;
        opts.max_new_relays = max_new;
        const RepairOutcome out = repair(d.scenario, d.result, f, opts);
        std::set<std::size_t> seen;
        for (const ids::SsId k : out.covered) seen.insert(k.index());
        for (const ids::SsId k : out.unrecoverable) {
            EXPECT_TRUE(seen.insert(k.index()).second) << "max_new " << max_new;
        }
        EXPECT_EQ(seen.size(), d.scenario.subscriber_count()) << "max_new " << max_new;
        EXPECT_EQ(out.reassigned, 0u);
        EXPECT_EQ(out.new_relays, max_new);
        EXPECT_EQ(out.repaired.coverage_rs_count(), max_new);
        EXPECT_EQ(out.covered.size(), max_new == 0 ? 0u : 16u);
        EXPECT_TRUE(out.repaired.feasible);
        EXPECT_NEAR(out.power_after, max_new == 0 ? 0.0 : 1124.583812, 1e-4);
    }
}

/// Property, 20 seeds: repair must never reduce the covered set below
/// what the damaged network could still serve — every subscriber that was
/// NOT orphaned by the failures stays covered after repair.
class RepairMonotoneProperty : public ::testing::TestWithParam<int> {};

TEST_P(RepairMonotoneProperty, NeverDropsASurvivingSubscriber) {
    const Deployed d = deploy(100 + GetParam(), 22);
    ASSERT_TRUE(d.result.feasible);
    const FailureSet f = inject_independent(
        d.result, IndependentFailureModel{0.15, true}, 500 + GetParam());
    const DamageReport damage = assess_damage(d.scenario, d.result, f);
    const RepairOutcome out = repair(d.scenario, d.result, f);
    ASSERT_TRUE(out.repaired.feasible);
    for (const ids::SsId k : d.scenario.ss_ids()) {
        const bool orphaned = std::binary_search(damage.orphaned.begin(),
                                                 damage.orphaned.end(), k);
        if (orphaned) continue;
        EXPECT_TRUE(std::binary_search(out.covered.begin(), out.covered.end(), k))
            << "seed " << GetParam() << ": surviving SS " << k.index()
            << " was dropped by repair";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairMonotoneProperty,
                         ::testing::Range(0, 20));

/// Acceptance (ISSUE.md): a 20-seed batch at 10% independent failures
/// restores verified coverage for at least 90% of the initially covered
/// subscribers, without exceeding P_max anywhere.
TEST(RepairTest, TenPercentFailureBatchRestoresNinetyPercent) {
    std::size_t initially_covered = 0;
    std::size_t restored = 0;
    for (int seed = 0; seed < 20; ++seed) {
        const Deployed d = deploy(200 + seed, 20);
        ASSERT_TRUE(d.result.feasible) << "seed " << seed;
        const double pmax = d.scenario.radio.max_power.watts();
        const FailureSet f = inject_independent(
            d.result, IndependentFailureModel{0.1, true}, 900 + seed);
        const RepairOutcome out = repair(d.scenario, d.result, f);
        ASSERT_TRUE(out.repaired.feasible) << "seed " << seed;
        ASSERT_TRUE(core::verify_coverage(out.covered_scenario,
                                          out.repaired.coverage,
                                          out.repaired.lower_power.powers)
                        .feasible)
            << "seed " << seed;
        ASSERT_TRUE(core::verify_topology(out.covered_scenario,
                                          out.repaired.coverage,
                                          out.repaired.connectivity)
                        .feasible)
            << "seed " << seed;
        for (const double p : out.repaired.lower_power.powers) {
            ASSERT_LE(p, pmax + 1e-9) << "seed " << seed;
        }
        for (const double p : out.repaired.connectivity.powers) {
            ASSERT_LE(p, pmax + 1e-9) << "seed " << seed;
        }
        initially_covered += d.scenario.subscriber_count();
        restored += out.covered.size();
    }
    ASSERT_GT(initially_covered, 0u);
    const double fraction =
        static_cast<double>(restored) / static_cast<double>(initially_covered);
    EXPECT_GE(fraction, 0.9) << restored << "/" << initially_covered;
}

// --- Report serialization -------------------------------------------------

TEST(ResilienceIoTest, SurvivabilityJsonIsDeterministic) {
    const Deployed d = deploy(41, 18);
    ASSERT_TRUE(d.result.feasible);
    const FailureSet f =
        inject_independent(d.result, IndependentFailureModel{0.2, true}, 8);
    const DamageReport damage = assess_damage(d.scenario, d.result, f);
    const RepairOutcome out = repair(d.scenario, d.result, f);
    const std::string a = io::survivability_to_json(f, damage, out).dump(2);
    const std::string b = io::survivability_to_json(f, damage, out).dump(2);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"format\""), std::string::npos);
    // Round-trips through the strict parser.
    EXPECT_NO_THROW((void)io::Json::parse(a));
}

}  // namespace
}  // namespace sag::resilience
