#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are <= it. `p` in (0, 100]; 0 for an
/// empty sample.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// Peak resident set size of this process so far, in MB (10^6 bytes).
double peak_rss_mb();

/// 64-bit FNV-1a over a byte stream, fed incrementally.
class Digest {
public:
    void add(std::string_view bytes);
    std::string hex() const;

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// SplitMix64 finalizer: derives independent sub-seeds from the run
/// seed, so every input the benchmark makes is a function of it.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
