#pragma once

// Workload inputs. Every list here is a pure function of the run seed,
// so a claim can be re-checked on a seed not used while it was made.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sag/core/scenario.h"
#include "sag/serve/event.h"

namespace perfbench {

/// One solve instance: the generator settings and the scenario seed.
struct SolveInstance {
    double field_side = 0.0;
    std::size_t subscribers = 0;
    std::size_t base_stations = 0;
    double snr_db = 0.0;
    std::uint64_t scenario_seed = 0;

    friend bool operator==(const SolveInstance&, const SolveInstance&) = default;
};

/// A solve workload's inputs: `instances` scenarios of one size, instance
/// i at threshold snr_db[i % snr_db.size()], so every run solves the same
/// mix.
struct SolveGrid {
    double field_side;
    std::size_t base_stations;
    std::size_t subscribers;
    std::vector<double> snr_db;
    std::size_t instances;
};
SolveGrid dense_grid();
SolveGrid tight_grid();

std::vector<SolveInstance> solve_instances(const SolveGrid& grid,
                                           std::uint64_t seed);

sag::core::Scenario make_scenario(const SolveInstance& instance);

/// The churn stream of bench_churn without injected faults: a stationary
/// population of SS join/leave/move/rate events plus RS fail/degrade/
/// recover, drawn over the scenario's field.
std::vector<sag::serve::Event> churn_stream(std::uint64_t seed,
                                            std::size_t initial_subscribers,
                                            std::size_t rs_slots,
                                            double field_side, std::size_t count);

/// One failure draw of the repair workload.
struct FailureDraw {
    enum class Model { Independent, Disc };
    std::size_t deployment = 0;  ///< index into the solved deployments
    Model model = Model::Independent;
    double probability = 0.0;    ///< Independent
    double radius_m = 0.0;       ///< Disc
    std::uint64_t seed = 0;

    friend bool operator==(const FailureDraw&, const FailureDraw&) = default;
};

/// Failure draws cycling through independent failures at 10/20/30% and
/// a 100 m disc outage, spread over `deployments` deployments.
std::vector<FailureDraw> failure_draws(std::uint64_t seed,
                                       std::size_t deployments,
                                       std::size_t count);

}  // namespace perfbench
