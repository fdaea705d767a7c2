#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
    const std::size_t index =
        static_cast<std::size_t>(std::clamp(rank, 1.0, double(samples.size()))) - 1;
    return samples[index];
}

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

double peak_rss_mb() {
    // VmHWM covers this program image only; getrusage's ru_maxrss keeps
    // the launching process's peak across execve.
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kib = -1;
        while (std::fgets(line, sizeof line, f)) {
            if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
        }
        std::fclose(f);
        if (kib >= 0) return static_cast<double>(kib) * 1024.0 / 1e6;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

void Digest::add(std::string_view bytes) {
    for (const unsigned char c : bytes) {
        hash_ ^= c;
        hash_ *= 0x100000001b3ULL;
    }
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace perfbench
