#include "generators.h"

#include <random>

#include "sag/sim/scenario_gen.h"
#include "stats.h"

namespace perfbench {

namespace {
// Salts keep the sub-seed streams of different inputs independent.
constexpr std::uint64_t kSolveSalt = 0x501e;
constexpr std::uint64_t kDrawSalt = 0xd7a3;
}  // namespace

SolveGrid dense_grid() { return {800.0, 2, 80, {-15.0}, 250}; }

SolveGrid tight_grid() { return {500.0, 2, 40, {-10.0, -11.0}, 500}; }

std::vector<SolveInstance> solve_instances(const SolveGrid& grid,
                                           std::uint64_t seed) {
    std::vector<SolveInstance> out;
    out.reserve(grid.instances);
    for (std::size_t i = 0; i < grid.instances; ++i) {
        SolveInstance inst;
        inst.field_side = grid.field_side;
        inst.base_stations = grid.base_stations;
        inst.subscribers = grid.subscribers;
        inst.snr_db = grid.snr_db[i % grid.snr_db.size()];
        inst.scenario_seed = mix_seed(seed, kSolveSalt + i);
        out.push_back(inst);
    }
    return out;
}

sag::core::Scenario make_scenario(const SolveInstance& instance) {
    sag::sim::GeneratorConfig gen;
    gen.field_side = instance.field_side;
    gen.subscriber_count = instance.subscribers;
    gen.base_station_count = instance.base_stations;
    gen.snr_threshold_db = sag::units::Decibel{instance.snr_db};
    return sag::sim::generate_scenario(gen, instance.scenario_seed);
}

std::vector<sag::serve::Event> churn_stream(std::uint64_t seed,
                                            std::size_t initial_subscribers,
                                            std::size_t rs_slots,
                                            double field_side, std::size_t count) {
    using sag::serve::EventKind;
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coord(-field_side / 2.0, field_side / 2.0);
    std::uniform_real_distribution<double> rate(28.0, 42.0);
    std::uniform_real_distribution<double> factor(0.4, 1.0);
    std::vector<std::uint64_t> live(initial_subscribers);
    for (std::size_t k = 0; k < initial_subscribers; ++k) live[k] = k;
    std::uint64_t next_key = initial_subscribers;

    std::vector<sag::serve::Event> events;
    events.reserve(count);
    while (events.size() < count) {
        const int kind = static_cast<int>(rng() % 10);
        sag::serve::Event e;
        if (kind < 4) {
            // Joins and leaves hold the population near its initial size,
            // so the per-event cost stays stationary.
            if (live.size() < initial_subscribers ||
                (live.size() == initial_subscribers && rng() % 2 == 0)) {
                e.kind = EventKind::SsJoin;
                e.key = next_key++;
                e.pos = {coord(rng), coord(rng)};
                e.distance_request = rate(rng);
                live.push_back(e.key);
            } else {
                e.kind = EventKind::SsLeave;
                const std::size_t at = rng() % live.size();
                e.key = live[at];
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
            }
        } else if (kind < 7 && !live.empty()) {
            e.kind = EventKind::SsMove;
            e.key = live[rng() % live.size()];
            e.pos = {coord(rng), coord(rng)};
        } else if (kind < 8 && !live.empty()) {
            e.kind = EventKind::SsRate;
            e.key = live[rng() % live.size()];
            e.distance_request = rate(rng);
        } else if (kind < 9) {
            e.kind = EventKind::RsFail;
            e.rs = sag::ids::RsId{rng() % rs_slots};
        } else if (rng() % 2 == 0) {
            e.kind = EventKind::RsRecover;
            e.rs = sag::ids::RsId{rng() % rs_slots};
        } else {
            e.kind = EventKind::RsDegrade;
            e.rs = sag::ids::RsId{rng() % rs_slots};
            e.factor = factor(rng);
        }
        events.push_back(e);
    }
    return events;
}

std::vector<FailureDraw> failure_draws(std::uint64_t seed,
                                       std::size_t deployments,
                                       std::size_t count) {
    std::vector<FailureDraw> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        FailureDraw d;
        d.deployment = (i / 4) % deployments;
        switch (i % 4) {
            case 0: d.probability = 0.1; break;
            case 1: d.probability = 0.2; break;
            case 2: d.probability = 0.3; break;
            default:
                d.model = FailureDraw::Model::Disc;
                d.radius_m = 100.0;
                break;
        }
        d.seed = mix_seed(seed, kDrawSalt + i);
        out.push_back(d);
    }
    return out;
}

}  // namespace perfbench
