#pragma once

// core::solve_sag taken apart into the public stages it runs, in the
// same order, each call wrapped in a benchmark span. The traced run uses
// this in place of solve_sag and checks that the plan it builds is byte-
// identical to solve_sag's.

#include <cstddef>
#include <cstdint>

#include "sag/core/sag.h"
#include "sag/core/samc.h"
#include "sag/core/scenario.h"
#include "trace.h"

namespace perfbench {

/// Work counts the benchmark reads off the stage outputs.
struct PipelineCounts {
    std::size_t zones = 0;
    std::size_t zone_ss_max = 0;
    std::size_t hitting_points = 0;
};

/// Span names, one per stage: core.zone_partition, opt.hitting_set,
/// core.link_escape, core.sliding, core.pro, core.mbmc, core.ucpo.
sag::core::SagResult solve_sag_staged(const sag::core::Scenario& scenario,
                                      const sag::core::SamcOptions& options,
                                      Tracer* tracer, std::uint64_t trace_id,
                                      PipelineCounts* counts = nullptr);

/// verify_coverage + verify_connectivity of a plan reported feasible.
bool plan_verifies(const sag::core::Scenario& scenario,
                   const sag::core::SagResult& result);

}  // namespace perfbench
