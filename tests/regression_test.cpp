// Pinned-output regression tests: exact solver outputs for fixed seeds.
// These WILL break when an algorithm changes behaviour — that is the
// point: any diff here must be explained (and EXPERIMENTS.md re-run)
// rather than slipping silently into the benchmark numbers.
//
// Environment: 500x500 field, 4 BSs, SNR -15 dB, default RadioParams
// (alpha 3, Pmax 50, ambient noise 0.065); 20 subscribers for the
// pipeline and serve anchors, 60 for the repair anchors.
#include <algorithm>
#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sag/core/candidates.h"
#include "sag/core/ilpqc.h"
#include "sag/core/sag.h"
#include "sag/resilience/failure.h"
#include "sag/resilience/repair.h"
#include "sag/serve/session.h"
#include "sag/sim/scenario_gen.h"

namespace sag::core {
namespace {

struct Anchor {
    int seed;
    std::size_t samc_rs;
    std::size_t connectivity_rs;
    double lower_power;
    double upper_power;
    std::size_t iac_rs;
};

constexpr Anchor kAnchors[] = {
    {1, 14, 34, 300.009471, 1035.531176, 14},
    {2, 13, 28, 250.009543, 904.452404, 13},
    {3, 15, 34, 200.013230, 1029.232184, 15},
};

class RegressionAnchors : public ::testing::TestWithParam<Anchor> {};

TEST_P(RegressionAnchors, PipelineOutputsPinned) {
    const Anchor& a = GetParam();
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 20;
    cfg.base_station_count = 4;
    const auto s = sim::generate_scenario(cfg, a.seed);

    const auto result = solve_sag(s);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.coverage_rs_count(), a.samc_rs);
    EXPECT_EQ(result.connectivity_rs_count(), a.connectivity_rs);
    EXPECT_NEAR(result.lower_tier_power(), a.lower_power, 1e-4);
    EXPECT_NEAR(result.upper_tier_power(), a.upper_power, 1e-4);
}

TEST_P(RegressionAnchors, IlpqcOutputsPinned) {
    const Anchor& a = GetParam();
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 20;
    cfg.base_station_count = 4;
    const auto s = sim::generate_scenario(cfg, a.seed);
    const auto plan = solve_ilpqc_coverage(s, iac_candidates(s));
    ASSERT_TRUE(plan.feasible);
    EXPECT_TRUE(plan.proven_optimal);
    EXPECT_EQ(plan.rs_count(), a.iac_rs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegressionAnchors, ::testing::ValuesIn(kAnchors),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param.seed);
                         });

// --- Repair anchors ----------------------------------------------------------
// resilience::repair over seeded failures of pinned deployments: every
// stage's output (re-homes, patched relays, power rounds, the covered /
// unrecoverable split, the repaired RS counts and P_total).

enum class FailureKind { Independent10, Independent30, Disc100 };

struct RepairAnchor {
    int seed;
    FailureKind kind;
    std::size_t reassigned;
    std::size_t new_relays;
    int rounds;
    /// Original SsIds, space-separated; `covered` is pinned as exactly
    /// the complement.
    const char* unrecoverable;
    std::size_t coverage_rs;
    std::size_t connectivity_rs;
    double power_after;
};

constexpr const char* kFailureNames[] = {"indep10", "indep30", "disc100"};

// Stable test names: gtest would otherwise print the rows' raw bytes,
// string pointers included.
void PrintTo(const RepairAnchor& a, std::ostream* os) {
    *os << "seed " << a.seed << " " << kFailureNames[static_cast<int>(a.kind)];
}

std::string join_ids(const std::vector<ids::SsId>& v) {
    std::string out;
    for (const ids::SsId j : v) {
        if (!out.empty()) out.push_back(' ');
        out += std::to_string(j.index());
    }
    return out;
}

resilience::FailureSet inject(const Scenario& s, const SagResult& deployment,
                              FailureKind kind, int seed) {
    const auto fseed = static_cast<std::uint64_t>(1000 + seed);
    switch (kind) {
        case FailureKind::Independent10:
            return resilience::inject_independent(
                deployment, resilience::IndependentFailureModel{0.1, true}, fseed);
        case FailureKind::Independent30:
            return resilience::inject_independent(
                deployment, resilience::IndependentFailureModel{0.3, true}, fseed);
        case FailureKind::Disc100:
            return resilience::inject_disc_outage(
                s, deployment, resilience::DiscOutageModel{}, fseed);
    }
    return {};
}

// The rows with an unrecoverable SS pin the power stage on a covered
// scenario whose SsIds differ from the original ones: its gains must be
// read by compacted index (reading them by original SsId picks the
// wrong subscribers and pins most RSs at P_max).
constexpr RepairAnchor kRepairAnchors[] = {
    {1, FailureKind::Independent10, 0, 1, 1, "", 28, 49, 2177.677219},
    {1, FailureKind::Independent30, 2, 8, 1, "12", 27, 48, 2223.943260},
    {1, FailureKind::Disc100, 0, 1, 1, "", 28, 49, 2177.677219},
    {2, FailureKind::Independent10, 0, 0, 1, "", 24, 44, 1997.566789},
    {2, FailureKind::Independent30, 1, 5, 1, "", 24, 44, 2068.660926},
    {2, FailureKind::Disc100, 0, 3, 1, "", 24, 45, 2095.283748},
    {3, FailureKind::Independent10, 0, 3, 1, "", 25, 47, 2088.202450},
    {3, FailureKind::Independent30, 0, 8, 1, "13", 24, 46, 2163.380499},
    {3, FailureKind::Disc100, 0, 2, 1, "", 25, 47, 2184.812742},
    {4, FailureKind::Independent10, 1, 4, 1, "", 26, 45, 2043.782903},
    {4, FailureKind::Independent30, 1, 8, 1, "", 26, 45, 2041.877496},
    {4, FailureKind::Disc100, 0, 4, 1, "", 27, 46, 2068.263425},
    {5, FailureKind::Independent10, 0, 2, 1, "", 26, 42, 1943.036683},
    {5, FailureKind::Independent30, 0, 7, 1, "", 26, 44, 2015.212902},
    {5, FailureKind::Disc100, 0, 4, 1, "", 26, 43, 1993.033206},
    {6, FailureKind::Independent10, 0, 4, 1, "", 26, 48, 2170.457575},
    {6, FailureKind::Independent30, 0, 8, 1, "45", 25, 44, 2170.074881},
    {6, FailureKind::Disc100, 0, 2, 1, "", 26, 48, 2153.558580},
};

class RepairAnchors : public ::testing::TestWithParam<RepairAnchor> {};

TEST_P(RepairAnchors, RepairOutputsPinned) {
    const RepairAnchor& a = GetParam();
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 60;
    cfg.base_station_count = 4;
    const auto s = sim::generate_scenario(cfg, a.seed);
    const auto deployment = solve_sag(s);
    ASSERT_TRUE(deployment.feasible);

    const auto failures = inject(s, deployment, a.kind, a.seed);
    const auto out = resilience::repair(s, deployment, failures);
    EXPECT_EQ(out.reassigned, a.reassigned);
    EXPECT_EQ(out.new_relays, a.new_relays);
    EXPECT_EQ(out.rounds, a.rounds);
    EXPECT_EQ(join_ids(out.unrecoverable), a.unrecoverable);
    std::vector<ids::SsId> complement;
    for (const ids::SsId j : s.ss_ids()) {
        if (std::find(out.unrecoverable.begin(), out.unrecoverable.end(), j) ==
            out.unrecoverable.end()) {
            complement.push_back(j);
        }
    }
    EXPECT_EQ(out.covered, complement);
    EXPECT_EQ(out.repaired.coverage_rs_count(), a.coverage_rs);
    EXPECT_EQ(out.repaired.connectivity_rs_count(), a.connectivity_rs);
    EXPECT_NEAR(out.power_after, a.power_after, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairAnchors, ::testing::ValuesIn(kRepairAnchors),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param.seed) + "_" +
                                    kFailureNames[static_cast<int>(info.param.kind)];
                         });

// --- Serve anchors -----------------------------------------------------------
// One fixed 600-event churn stream (every event kind, stale keys and RS
// slots included) through a threads = 1 serve::Session: the summed stage
// counts and the final served state.

struct ServeAnchor {
    int seed;
    bool faults;  ///< inject stage timeouts (walks the degradation ladder)
    std::size_t rehomed;
    std::size_t patched;
    std::size_t shed;
    const char* unserved_keys;  ///< space-separated, ascending
    std::size_t active_rs;
    double total_power;
};

void PrintTo(const ServeAnchor& a, std::ostream* os) {
    *os << "seed " << a.seed << (a.faults ? " faults" : " clean");
}

std::vector<serve::Event> churn_stream(int seed, std::size_t subscribers,
                                       std::size_t rs_slots, std::size_t count) {
    using serve::EventKind;
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    std::uniform_real_distribution<double> coord(0.0, 500.0);
    std::uniform_real_distribution<double> rate(28.0, 42.0);
    std::uniform_real_distribution<double> factor(0.4, 1.0);
    std::vector<std::uint64_t> live(subscribers);
    for (std::size_t k = 0; k < subscribers; ++k) live[k] = k;
    std::uint64_t next_key = subscribers;

    std::vector<serve::Event> events;
    while (events.size() < count) {
        const auto roll = rng() % 10;
        serve::Event e;
        if (roll < 4) {  // population churn, regulated toward `subscribers`
            if (live.size() < subscribers ||
                (live.size() == subscribers && rng() % 2 == 0)) {
                e.kind = EventKind::SsJoin;
                e.key = next_key++;
                e.pos = {coord(rng), coord(rng)};
                e.distance_request = rate(rng);
                live.push_back(e.key);
            } else {
                const std::size_t at = rng() % live.size();
                e.kind = EventKind::SsLeave;
                e.key = live[at];
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
            }
        } else if (roll < 7) {
            e.kind = EventKind::SsMove;
            e.key = live[rng() % live.size()];
            e.pos = {coord(rng), coord(rng)};
        } else if (roll < 8) {
            e.kind = EventKind::SsRate;
            e.key = live[rng() % live.size()];
            e.distance_request = rate(rng);
        } else if (roll < 9) {
            e.kind = EventKind::RsFail;
            e.rs = ids::RsId{rng() % rs_slots};
        } else if (rng() % 2 == 0) {
            e.kind = EventKind::RsRecover;
            e.rs = ids::RsId{rng() % rs_slots};
        } else {
            e.kind = EventKind::RsDegrade;
            e.rs = ids::RsId{rng() % rs_slots};
            e.factor = factor(rng);
        }
        events.push_back(e);
    }
    return events;
}

constexpr ServeAnchor kServeAnchors[] = {
    {107, false, 300, 348, 0, "", 14, 1491.323449},
    {107, true, 271, 321, 57, "", 14, 1491.323449},
    {113, false, 300, 362, 0, "", 15, 1377.842740},
    {113, true, 233, 238, 37, "", 14, 1371.653403},
};

class ServeAnchors : public ::testing::TestWithParam<ServeAnchor> {};

TEST_P(ServeAnchors, ChurnOutputsPinned) {
    const ServeAnchor& a = GetParam();
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 20;
    cfg.base_station_count = 4;
    const auto s = sim::generate_scenario(cfg, a.seed);
    const auto deployment = solve_sag(s);
    ASSERT_TRUE(deployment.feasible);

    serve::ServeOptions opts;
    opts.threads = 1;
    if (a.faults) {
        serve::FaultOptions fopts;
        fopts.stage_timeout_probability = 0.05;
        fopts.resolve_timeout_probability = 0.25;
        fopts.seed = static_cast<std::uint64_t>(a.seed);
        opts.faults = serve::FaultPlan(fopts);
    }
    serve::Session session(s, deployment, opts);
    std::size_t rehomed = 0, patched = 0, shed = 0;
    for (const serve::Event& e :
         churn_stream(a.seed, 20, deployment.coverage.rs_count(), 600)) {
        const serve::EventOutcome out = session.apply(e);
        rehomed += out.rehomed;
        patched += out.patched;
        shed += out.shed;
    }
    std::string unserved;
    for (const std::uint64_t key : session.unserved_keys()) {
        if (!unserved.empty()) unserved.push_back(' ');
        unserved += std::to_string(key);
    }
    EXPECT_EQ(rehomed, a.rehomed);
    EXPECT_EQ(patched, a.patched);
    EXPECT_EQ(shed, a.shed);
    EXPECT_EQ(unserved, a.unserved_keys);
    EXPECT_EQ(session.active_rs_count(), a.active_rs);
    EXPECT_NEAR(session.total_power(), a.total_power, 1e-4);
}



INSTANTIATE_TEST_SUITE_P(Streams, ServeAnchors, ::testing::ValuesIn(kServeAnchors),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param.seed) +
                                    (info.param.faults ? "_faults" : "_clean");
                         });

}  // namespace
}  // namespace sag::core
