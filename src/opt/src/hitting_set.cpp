#include "sag/opt/hitting_set.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sag/exec/thread_pool.h"
#include "sag/obs/obs.h"
#include "sag/opt/set_cover.h"

namespace sag::opt {

namespace {

/// Disks hit by each candidate point.
std::vector<std::vector<std::size_t>> hit_sets(std::span<const geom::Circle> disks,
                                               std::span<const geom::Vec2> candidates) {
    std::vector<std::vector<std::size_t>> sets(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        for (std::size_t d = 0; d < disks.size(); ++d) {
            // Boundary intersection points must count as hitting both
            // generating disks.
            if (disks[d].contains(candidates[c], geom::kMembershipSlack)) {
                sets[c].push_back(d);
            }
        }
    }
    return sets;
}

bool hits_all(std::span<const geom::Circle> disks, const std::vector<std::size_t>& chosen,
              const std::vector<std::vector<std::size_t>>& sets, std::size_t skip_a,
              std::size_t skip_b, std::size_t extra) {
    std::vector<bool> hit(disks.size(), false);
    for (const std::size_t c : chosen) {
        if (c == skip_a || c == skip_b) continue;
        for (const std::size_t d : sets[c]) hit[d] = true;
    }
    if (extra != SIZE_MAX) {
        for (const std::size_t d : sets[extra]) hit[d] = true;
    }
    return std::all_of(hit.begin(), hit.end(), [](bool b) { return b; });
}

}  // namespace

std::vector<geom::Vec2> disk_hitting_candidates(std::span<const geom::Circle> disks) {
    std::vector<geom::Vec2> candidates;
    candidates.reserve(disks.size() * 3);
    for (const geom::Circle& d : disks) candidates.push_back(d.center);
    for (std::size_t i = 0; i < disks.size(); ++i) {
        for (std::size_t j = i + 1; j < disks.size(); ++j) {
            for (const geom::Vec2& p : geom::circle_intersections(disks[i], disks[j])) {
                candidates.push_back(p);
            }
        }
    }
    // Deduplicate (intersections of near-identical circles repeat).
    std::sort(candidates.begin(), candidates.end(),
              [](const geom::Vec2& a, const geom::Vec2& b) {
                  return a.x != b.x ? a.x < b.x : a.y < b.y;
              });
    candidates.erase(std::unique(candidates.begin(), candidates.end(),
                                 [](const geom::Vec2& a, const geom::Vec2& b) {
                                     return geom::distance_sq(a, b) < 1e-12;
                                 }),
                     candidates.end());
    return candidates;
}

std::vector<geom::Vec2> geometric_hitting_set(std::span<const geom::Circle> disks,
                                              const HittingSetOptions& options) {
    SAG_OBS_SPAN("opt.hitting_set");
    if (disks.empty()) return {};
    const std::vector<geom::Vec2> candidates = disk_hitting_candidates(disks);
    SAG_OBS_COUNT_ADD("opt.hitting_set.candidates", candidates.size());
    const auto sets = hit_sets(disks, candidates);

    SetCoverInstance inst{disks.size(), sets};
    auto greedy = greedy_set_cover(inst);
    // Always succeeds: each disk's center is a candidate hitting it.
    std::vector<std::size_t> chosen = std::move(*greedy);

    // Local search: (1,0) prune, (2,1) and optionally (3,2) swaps.
    for (int pass = 0; pass < options.max_passes; ++pass) {
        bool improved = false;

        // (1,0): drop redundant points.
        for (std::size_t i = 0; i < chosen.size();) {
            if (hits_all(disks, chosen, sets, chosen[i], SIZE_MAX, SIZE_MAX)) {
                chosen.erase(chosen.begin() + static_cast<std::ptrdiff_t>(i));
                improved = true;
                SAG_OBS_COUNT("opt.hitting_set.swaps");
            } else {
                ++i;
            }
        }

        // (2,1): replace two chosen points with one candidate.
        if (options.max_swap >= 2) {
            for (std::size_t i = 0; i < chosen.size() && !improved; ++i) {
                for (std::size_t j = i + 1; j < chosen.size() && !improved; ++j) {
                    for (std::size_t c = 0; c < candidates.size(); ++c) {
                        if (hits_all(disks, chosen, sets, chosen[i], chosen[j], c)) {
                            const std::size_t keep = c;
                            chosen.erase(chosen.begin() + static_cast<std::ptrdiff_t>(j));
                            chosen.erase(chosen.begin() + static_cast<std::ptrdiff_t>(i));
                            chosen.push_back(keep);
                            improved = true;
                            SAG_OBS_COUNT("opt.hitting_set.swaps");
                            break;
                        }
                    }
                }
            }
        }

        // (3,2): replace three chosen points with two candidates.
        if (options.max_swap >= 3 && !improved &&
            chosen.size() * candidates.size() <= options.swap3_cost_limit) {
            for (std::size_t i = 0; i < chosen.size() && !improved; ++i) {
                for (std::size_t j = i + 1; j < chosen.size() && !improved; ++j) {
                    for (std::size_t k = j + 1; k < chosen.size() && !improved; ++k) {
                        // Disks left unhit when i, j, k are removed.
                        std::vector<bool> hit(disks.size(), false);
                        for (const std::size_t c : chosen) {
                            if (c == chosen[i] || c == chosen[j] || c == chosen[k]) continue;
                            for (const std::size_t d : sets[c]) hit[d] = true;
                        }
                        std::vector<std::size_t> missing;
                        for (std::size_t d = 0; d < disks.size(); ++d) {
                            if (!hit[d]) missing.push_back(d);
                        }
                        // Find two candidates jointly hitting `missing`.
                        for (std::size_t a = 0; a < candidates.size() && !improved; ++a) {
                            std::vector<bool> hit_a(disks.size(), false);
                            for (const std::size_t d : sets[a]) hit_a[d] = true;
                            std::vector<std::size_t> rest;
                            for (const std::size_t d : missing) {
                                if (!hit_a[d]) rest.push_back(d);
                            }
                            if (rest.empty()) continue;  // (2,1) would have found it
                            for (std::size_t b = a + 1; b < candidates.size(); ++b) {
                                std::vector<bool> hit_b(disks.size(), false);
                                for (const std::size_t d : sets[b]) hit_b[d] = true;
                                if (std::all_of(rest.begin(), rest.end(),
                                                [&](std::size_t d) { return hit_b[d]; })) {
                                    std::vector<std::size_t> next;
                                    for (const std::size_t c : chosen) {
                                        if (c != chosen[i] && c != chosen[j] && c != chosen[k])
                                            next.push_back(c);
                                    }
                                    next.push_back(a);
                                    next.push_back(b);
                                    chosen = std::move(next);
                                    improved = true;
                                    SAG_OBS_COUNT("opt.hitting_set.swaps");
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }

        if (!improved) break;
    }

    std::vector<geom::Vec2> points;
    points.reserve(chosen.size());
    for (const std::size_t c : chosen) points.push_back(candidates[c]);
    return points;
}

std::vector<std::vector<geom::Vec2>> geometric_hitting_sets(
    std::span<const std::vector<geom::Circle>> instances,
    const HittingSetOptions& options, std::size_t threads) {
    SAG_OBS_SPAN("opt.hitting_set.batch");
    std::vector<std::vector<geom::Vec2>> out(instances.size());
    if (threads == 1 || instances.size() <= 1) {
        for (std::size_t z = 0; z < instances.size(); ++z) {
            out[z] = geometric_hitting_set(instances[z], options);
        }
        return out;
    }
    SAG_OBS_COUNT_ADD("opt.hitting_set.parallel_zones", instances.size());
    exec::ThreadPool pool(exec::resolve_thread_count(threads));
    // Each zone writes only its own slot; worker-thread obs events merge
    // at snapshot via the recorder's per-thread buffers. All locking
    // lives behind exec::ThreadPool / obs::Recorder (annotated
    // exec::Mutex — the check_static §6 confinement lint keeps it so).
    exec::parallel_for_index(pool, instances.size(), [&](std::size_t z) {
        out[z] = geometric_hitting_set(instances[z], options);
    });
    return out;
}

}  // namespace sag::opt
