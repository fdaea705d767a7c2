// Unit tests for the benchmark's own code: input generators, statistics,
// span arithmetic, and the staged pipeline the traced run uses.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "generators.h"
#include "pipeline.h"
#include "sag/core/sag.h"
#include "sag/io/scenario_io.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Generators, SolveInstancesArePureFunctionsOfTheSeed) {
    const auto a = solve_instances(tight_grid(), 7);
    EXPECT_EQ(a, solve_instances(tight_grid(), 7));
    EXPECT_NE(a, solve_instances(tight_grid(), 8));
    ASSERT_EQ(a.size(), tight_grid().instances);
    // Grid cells cycle, so every run solves the same mix.
    EXPECT_EQ(a[0].subscribers, 40u);
    EXPECT_DOUBLE_EQ(a[0].snr_db, -10.0);
    EXPECT_DOUBLE_EQ(a[1].snr_db, -11.0);
    EXPECT_DOUBLE_EQ(a[2].snr_db, -10.0);
    EXPECT_EQ(sag::io::scenario_to_json(make_scenario(a[3])).dump(),
              sag::io::scenario_to_json(make_scenario(a[3])).dump());
}

TEST(Generators, ChurnStreamIsAPureFunctionOfTheSeed) {
    const auto a = churn_stream(11, 30, 12, 500.0, 500);
    EXPECT_EQ(a, churn_stream(11, 30, 12, 500.0, 500));
    EXPECT_NE(a, churn_stream(12, 30, 12, 500.0, 500));
    for (const auto& e : a) {
        EXPECT_LE(std::abs(e.pos.x), 250.0);
        EXPECT_LE(std::abs(e.pos.y), 250.0);
    }
}

TEST(Generators, FailureDrawsCycleModelsAndFollowTheSeed) {
    const auto a = failure_draws(3, 4, 16);
    EXPECT_EQ(a, failure_draws(3, 4, 16));
    EXPECT_NE(a, failure_draws(4, 4, 16));
    EXPECT_DOUBLE_EQ(a[0].probability, 0.1);
    EXPECT_DOUBLE_EQ(a[2].probability, 0.3);
    EXPECT_EQ(a[3].model, FailureDraw::Model::Disc);
    EXPECT_EQ(a[15].deployment, 3u);
}

TEST(Stats, NearestRankPercentile) {
    const std::vector<double> s{15, 20, 35, 40, 50};
    EXPECT_DOUBLE_EQ(percentile(s, 5), 15);
    EXPECT_DOUBLE_EQ(percentile(s, 30), 20);
    EXPECT_DOUBLE_EQ(percentile(s, 40), 20);
    EXPECT_DOUBLE_EQ(percentile(s, 50), 35);
    EXPECT_DOUBLE_EQ(percentile(s, 100), 50);
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i) hundred.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(hundred, 99), 99);
    EXPECT_DOUBLE_EQ(percentile(hundred, 90), 90);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, DigestAndSeedMixing) {
    Digest a, b;
    a.add("ab");
    b.add("a");
    b.add("b");
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_EQ(Digest{}.hex(), "cbf29ce484222325");
    EXPECT_NE(mix_seed(1, 0), mix_seed(1, 1));
    EXPECT_NE(mix_seed(1, 0), mix_seed(2, 0));
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildIntervals) {
    // op [0,10) has children a [1,4) and b [3,6) (overlapping: union 5);
    // a has a child c [2,3). A second op [20,22) has a child d [21,25)
    // that overruns it and is clipped.
    const std::vector<SpanRecord> spans{
        {"op", 0.0, 10.0, -1, 0}, {"a", 1.0, 4.0, 0, 0}, {"b", 3.0, 6.0, 0, 0},
        {"c", 2.0, 3.0, 1, 0},    {"op", 20.0, 22.0, -1, 1}, {"d", 21.0, 25.0, 4, 1},
    };
    const auto self = self_seconds_by_name(spans);
    EXPECT_DOUBLE_EQ(self.at("op"), 5.0 + 1.0);
    EXPECT_DOUBLE_EQ(self.at("a"), 2.0);
    EXPECT_DOUBLE_EQ(self.at("b"), 3.0);
    EXPECT_DOUBLE_EQ(self.at("c"), 1.0);
    EXPECT_DOUBLE_EQ(self.at("d"), 4.0);
    EXPECT_DOUBLE_EQ(layer_covered_seconds(spans), 5.0 + 1.0);
}

TEST(Trace, TracerNestsSpansAndNullTracerRecordsNothing) {
    Tracer t;
    {
        ScopedSpan outer(&t, "outer", 3);
        ScopedSpan inner(&t, "inner", 3);
        t.rename(inner.index(), "renamed");
    }
    { ScopedSpan next(&t, "next", 4); }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[0].parent, -1);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, -1);
    EXPECT_EQ(t.spans()[1].name, "renamed");
    EXPECT_EQ(t.spans()[1].trace_id, 3u);
    EXPECT_LE(t.spans()[0].start, t.spans()[1].start);
    EXPECT_GE(t.spans()[0].end, t.spans()[1].end);

    ScopedSpan none(nullptr, "untraced", 0);
    EXPECT_EQ(none.index(), -1);
}

TEST(Pipeline, StagedSolveMatchesSolveSagByteForByte) {
    // One instance per tight-grid cell: feasible and infeasible plans.
    const auto instances = solve_instances(tight_grid(), 5);
    int feasible = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        const auto scenario = make_scenario(instances[i]);
        const auto reference = sag::core::solve_sag(scenario);
        Tracer tracer;
        PipelineCounts counts;
        const auto staged = solve_sag_staged(scenario, {}, &tracer, i, &counts);
        EXPECT_EQ(sag::io::sag_result_to_json(staged).dump(),
                  sag::io::sag_result_to_json(reference).dump())
            << "instance " << i;
        EXPECT_GE(counts.zones, 1u);
        EXPECT_EQ(counts.hitting_points, reference.coverage_rs_count());
        EXPECT_FALSE(tracer.spans().empty());
        if (reference.feasible) {
            ++feasible;
            EXPECT_TRUE(plan_verifies(scenario, staged));
        }
    }
    EXPECT_GT(feasible, 0);
}

TEST(Metrics, ListsMatchBenchmarkJson) {
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = sag::io::Json::parse(text.str());
    const auto listed = [&](const std::string& key) {
        std::vector<std::pair<std::string, std::string>> out;
        for (const auto& m : doc.as_object().at(key).as_array()) {
            out.emplace_back(m.as_object().at("name").as_string(),
                             m.as_object().at("unit").as_string());
        }
        return out;
    };
    EXPECT_EQ(listed("end_to_end"), end_to_end_metrics());
    EXPECT_EQ(listed("per_layer"), per_layer_metrics());
}

}  // namespace
}  // namespace perfbench
