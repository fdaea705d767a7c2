// sag_perfbench — the repository benchmark. Runs one workload for a
// given time and prints, as its last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with every end-to-end metric (untraced run) or every per-layer metric
// (traced run). The line before it is "meta: {...}" with the run's
// metadata, sample counts and output digest. Exits 1 when any operation
// failed, 2 on bad arguments.
//
//   sag_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads and metrics: perfbench/README.md.
#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "sag/io/json.h"
#include "sag/wireless/kernel_eval.h"
#include "workloads.h"

namespace {

using sag::io::Json;

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: sag_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    std::exit(2);
}

/// CPU brand string from CPUID (no file access needed).
std::string cpu_model() {
    unsigned regs[12] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
        if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                         &regs[4 * leaf + 2], &regs[4 * leaf + 3])) {
            return "unknown";
        }
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunConfig cfg;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage();
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            cfg.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty()) usage();
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(cfg.seconds > 0.0)) usage();
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") usage();
            cfg.trace = value == "1";
        } else {
            usage();
        }
    }
    if (!have_workload) usage();

    perfbench::RunOutput out;
    try {
        out = perfbench::run_workload(cfg);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "sag_perfbench: %s\n", e.what());
        usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sag_perfbench: %s\n", e.what());
        return 1;
    }

    const char* simd_env = std::getenv("SAG_SIMD");
    out.meta["workload"] = Json(cfg.workload);
    out.meta["seed"] = Json(std::to_string(cfg.seed));
    out.meta["seconds"] = Json(cfg.seconds);
    out.meta["trace"] = Json(cfg.trace);
    out.meta["build_type"] = Json(PERFBENCH_BUILD_TYPE);
    out.meta["compiler"] = Json(PERFBENCH_COMPILER);
    out.meta["simd_lanes"] = Json(sag::wireless::simd_lanes());
    out.meta["SAG_SIMD"] = Json(simd_env ? simd_env : "unset");
    out.meta["nproc"] = Json(static_cast<std::size_t>(std::thread::hardware_concurrency()));
    out.meta["cpu_model"] = Json(cpu_model());
    std::printf("meta: %s\n", Json(out.meta).dump().c_str());

    Json::Object metrics;
    for (const auto& [name, m] : out.metrics) {
        Json::Object entry;
        entry["value"] = Json(m.value);
        entry["unit"] = Json(m.unit);
        metrics[name] = Json(std::move(entry));
    }
    Json::Object result;
    result["correct"] = Json(out.correct);
    result["attempted"] = Json(out.attempted);
    result["failed"] = Json(out.failed);
    result["metrics"] = Json(std::move(metrics));
    std::printf("%s\n", Json(std::move(result)).dump().c_str());
    return out.correct ? 0 : 1;
}
