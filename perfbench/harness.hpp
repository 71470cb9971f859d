// Small shared pieces of the benchmark program: clocks, quantiles, and the
// in-memory span log of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace airfinger::perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by every thread of this process, in seconds.
double process_cpu_s();

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample. Takes a
/// copy so callers keep their sample order.
double quantile(std::vector<double> v, double q);

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Spans recorded by traced runs around each call into a layer: name,
/// start, end, parent span, and a request id (the tick for host spans,
/// the labelled window for decision-core spans). Held in memory and
/// written out as JSON lines when the run ends.
class SpanLog {
 public:
  static constexpr std::int32_t kRoot = -1;

  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Opens a span now; returns its index for end() and as a parent.
  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint32_t request) {
    spans_.push_back({name, parent, request, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }

  /// Records a finished span with explicit bounds.
  void add(const char* name, std::int32_t parent, std::uint32_t request,
           std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, parent, request, start_ns, end_ns});
  }

  std::size_t size() const { return spans_.size(); }

  /// Writes one JSON object per span. Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int32_t parent;
    std::uint32_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

}  // namespace airfinger::perfbench
