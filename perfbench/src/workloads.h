#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sag/io/json.h"

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// What one run reports: the contract's result line plus run metadata.
struct RunOutput {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::map<std::string, Metric> metrics;
    sag::io::Json::Object meta;  ///< samples, digest, named figures
};

/// (name, unit) of every end-to-end metric; an untraced run reports all.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// (name, unit) of every per-layer metric; a traced run reports all,
/// with 0 for the layers its workload does not reach.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
RunOutput run_workload(const RunConfig& config);

}  // namespace perfbench
