#pragma once

// Benchmark-side span recorder. Spans are opened around calls into the
// library's public functions from the benchmark's own code (the library
// itself is not modified), kept in memory, and reduced to per-layer self
// times when the run ends.
//
// One Tracer belongs to one thread: the benchmark opens spans only on
// its driving thread, so no locking is needed.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span, -1 for a root
    std::uint64_t trace_id = 0;  ///< instance, event or draw index
};

class Tracer {
public:
    Tracer() : origin_(std::chrono::steady_clock::now()) {}

    /// Opens a span nested in the innermost open span; returns its index.
    int begin(std::string name, std::uint64_t trace_id);
    /// Closes the innermost open span, which must be `index`.
    void end(int index);
    /// Renames a span, for spans whose kind is known only once the call
    /// it wraps has returned.
    void rename(int index, std::string name);

    const std::vector<SpanRecord>& spans() const { return spans_; }

private:
    double now() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

/// RAII span; a null tracer (an untraced run) records nothing.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, std::string name, std::uint64_t trace_id)
        : tracer_(tracer), index_(tracer ? tracer->begin(std::move(name), trace_id) : -1) {}
    ~ScopedSpan() {
        if (tracer_) tracer_->end(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int index() const { return index_; }

private:
    Tracer* tracer_;
    int index_;
};

/// Self seconds summed per span name: each span's duration minus the
/// union of its direct children's intervals, clipped to the span.
std::map<std::string, double> self_seconds_by_name(
    const std::vector<SpanRecord>& spans);

/// Wall seconds covered by the children of root spans: how much of the
/// traced operations' time falls under a named layer span.
double layer_covered_seconds(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
