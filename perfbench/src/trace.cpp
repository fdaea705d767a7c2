#include "trace.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace perfbench {

double Tracer::now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

int Tracer::begin(std::string name, std::uint64_t trace_id) {
    SpanRecord rec;
    rec.name = std::move(name);
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.trace_id = trace_id;
    rec.start = now();
    spans_.push_back(std::move(rec));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void Tracer::end(int index) {
    assert(!open_.empty() && open_.back() == index);  // RAII closes LIFO
    spans_[static_cast<std::size_t>(index)].end = now();
    open_.pop_back();
}

void Tracer::rename(int index, std::string name) {
    spans_.at(static_cast<std::size_t>(index)).name = std::move(name);
}

namespace {

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double reach = lo;
    for (auto [s, e] : intervals) {
        s = std::max(s, reach);
        e = std::min(e, hi);
        if (e > s) {
            total += e - s;
            reach = e;
        }
    }
    return total;
}

/// Union of the direct children's intervals within each span.
std::vector<double> child_cover(const std::vector<SpanRecord>& spans) {
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const SpanRecord& s : spans) {
        if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
    std::vector<double> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        out[i] = covered(std::move(kids[i]), spans[i].start, spans[i].end);
    }
    return out;
}

}  // namespace

std::map<std::string, double> self_seconds_by_name(
    const std::vector<SpanRecord>& spans) {
    const std::vector<double> cover = child_cover(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        out[spans[i].name] += spans[i].end - spans[i].start - cover[i];
    }
    return out;
}

double layer_covered_seconds(const std::vector<SpanRecord>& spans) {
    const std::vector<double> cover = child_cover(spans);
    double total = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0) total += cover[i];
    }
    return total;
}

}  // namespace perfbench
