#include "pipeline.h"

#include <algorithm>
#include <vector>

#include "sag/core/feasibility.h"
#include "sag/core/power.h"
#include "sag/core/ucra.h"
#include "sag/core/zone_partition.h"
#include "sag/opt/hitting_set.h"

namespace perfbench {

using namespace sag;

core::SagResult solve_sag_staged(const core::Scenario& scenario,
                                 const core::SamcOptions& options,
                                 Tracer* tracer, std::uint64_t trace_id,
                                 PipelineCounts* counts) {
    // Mirrors core::solve_samc stage by stage.
    ids::IdVec<ids::ZoneId, std::vector<ids::SsId>> zones;
    {
        ScopedSpan span(tracer, "core.zone_partition", trace_id);
        zones = core::zone_partition(scenario);
    }
    core::CoveragePlan plan;
    plan.assignment.assign(scenario.subscriber_count(), ids::RsId{0});
    plan.feasible = true;

    std::vector<std::vector<geom::Vec2>> zone_points;
    {
        ScopedSpan span(tracer, "opt.hitting_set", trace_id);
        std::vector<std::vector<geom::Circle>> zone_disks;
        zone_disks.reserve(zones.size());
        for (const auto& zone : zones) {
            std::vector<geom::Circle> disks;
            disks.reserve(zone.size());
            for (const ids::SsId j : zone) disks.push_back(scenario.feasible_circle(j));
            zone_disks.push_back(std::move(disks));
        }
        zone_points = opt::geometric_hitting_sets(zone_disks, options.hitting_set,
                                                  options.threads);
    }
    if (counts) {
        counts->zones += zones.size();
        for (const auto& zone : zones) {
            counts->zone_ss_max = std::max(counts->zone_ss_max, zone.size());
        }
        for (const auto& points : zone_points) counts->hitting_points += points.size();
    }

    for (const ids::ZoneId z : zones.ids()) {
        const auto& zone = zones[z];
        core::samc_detail::ZoneAssignment assignment;
        {
            ScopedSpan span(tracer, "core.link_escape", trace_id);
            assignment = core::samc_detail::coverage_link_escape(
                scenario, zone, zone_points[z.index()]);
        }
        core::samc_detail::SlideResult slide;
        {
            ScopedSpan span(tracer, "core.sliding", trace_id);
            slide = core::samc_detail::sliding_movement(scenario, zone, assignment,
                                                        options);
        }
        if (!slide.feasible) plan.feasible = false;
        const std::size_t offset = plan.rs_positions.size();
        plan.rs_positions.insert(plan.rs_positions.end(), slide.points.begin(),
                                 slide.points.end());
        for (std::size_t k = 0; k < zone.size(); ++k) {
            plan.assignment[zone[k]] =
                ids::RsId{offset + slide.serving[ids::SsId{k}].index()};
        }
    }

    // Mirrors core::green_pipeline.
    core::SagResult result;
    result.coverage = std::move(plan);
    if (!result.coverage.feasible) return result;
    {
        ScopedSpan span(tracer, "core.pro", trace_id);
        result.lower_power = core::allocate_power_pro(scenario, result.coverage);
    }
    {
        ScopedSpan span(tracer, "core.mbmc", trace_id);
        result.connectivity = core::solve_mbmc(scenario, result.coverage);
    }
    {
        ScopedSpan span(tracer, "core.ucpo", trace_id);
        core::allocate_power_ucpo(scenario, result.coverage, result.connectivity);
    }
    result.feasible = result.lower_power.feasible && result.connectivity.feasible;
    return result;
}

bool plan_verifies(const core::Scenario& scenario, const core::SagResult& result) {
    return core::verify_coverage(scenario, result.coverage, result.lower_power.powers)
               .feasible &&
           core::verify_connectivity(scenario, result.coverage, result.connectivity)
               .feasible;
}

}  // namespace perfbench
