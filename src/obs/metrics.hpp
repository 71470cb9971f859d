// Fixed-shape, allocation-free metrics registry.
//
// A Registry is built once (all counters/gauges/histograms registered at
// construction time, which is the only moment it allocates) and then
// recorded into through integer handles: `inc`, `set`, and `observe` are
// array writes with no locks, no maps, and no heap traffic — safe on the
// 0-allocs/frame serving hot path (DESIGN.md §11). The schema (names, help
// text, histogram bounds, registration order) is shared by every copy and
// immutable once copied, so a registry holds only its values: a process
// registers the session schema once and each session copies it.
// Registries over the same schema aggregate by index with `add_from`,
// which is how MultiSessionHost folds N per-session registries into one
// fleet view in deterministic session order.
//
// Counters saturate at UINT64_MAX instead of wrapping: a fleet aggregate
// over long-lived sessions must never report a small number because one
// lane overflowed.
//
// Histograms use log-spaced fixed bucket bounds chosen at registration
// (geometric series from `least` to `most`): latency spans decades, so
// uniform buckets would waste resolution where it matters. Observation is
// a branchless-enough binary search over the precomputed bounds.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace airfinger::obs {

/// Saturating add for metric counters (also used by core::HealthStats).
inline std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s < a ? std::numeric_limits<std::uint64_t>::max() : s;
}

/// Shape of one log-spaced histogram: `buckets` finite upper bounds in a
/// geometric series from `least` to `most`, plus an implicit +Inf bucket.
struct HistogramSpec {
  double least = 100.0;       ///< First finite upper bound (e.g. 100 ns).
  double most = 1e9;          ///< Last finite upper bound (e.g. 1 s in ns).
  std::size_t buckets = 36;   ///< Finite bucket count (>= 2).
};

/// One metric's state captured by Registry::snapshot(). Counters carry
/// `count`; gauges carry `value`; histograms carry count/sum/min/max plus
/// the per-bucket (non-cumulative) tallies and their upper bounds.
struct MetricEntry {
  enum class Type { kCounter, kGauge, kHistogram };
  Type type = Type::kCounter;
  std::string name;
  std::string help;
  std::uint64_t count = 0;            ///< Counter value / histogram count.
  double value = 0.0;                 ///< Gauge value / histogram sum.
  double min = 0.0;                   ///< Histogram observed minimum.
  double max = 0.0;                   ///< Histogram observed maximum.
  std::vector<double> bounds;         ///< Histogram finite upper bounds.
  std::vector<std::uint64_t> buckets; ///< bounds.size()+1 tallies (+Inf last).
};

/// A point-in-time copy of a registry (or an aggregate of several), ready
/// for exposition (obs/exposition.hpp). Plain data; freely copyable.
struct MetricsSnapshot {
  std::vector<MetricEntry> entries;

  /// Entry lookup by name (nullptr when absent).
  const MetricEntry* find(const std::string& name) const;
};

/// The fixed-shape registry. Registration returns dense handles; the
/// recording methods are bounds-checked array writes. Copies share the
/// schema and copy the values. Not thread-safe by design: each registry
/// has exactly one writer (its Session), and aggregation reads happen
/// between pump() rounds — the same single-writer discipline the rest of
/// the per-session state already follows.
class Registry {
 public:
  using Handle = std::uint32_t;

  /// Registers a monotone counter. Registration extends the schema, so it
  /// throws PreconditionError once a copy shares it.
  Handle counter(std::string name, std::string help);
  /// Registers a gauge (a settable instantaneous value).
  Handle gauge(std::string name, std::string help);
  /// Registers a log-spaced histogram.
  Handle histogram(std::string name, std::string help, HistogramSpec spec);

  // ---------------------------------------------------------- hot path
  void inc(Handle h, std::uint64_t n = 1) {
    auto& v = counters_[h];
    v = saturating_add(v, n);
  }
  std::uint64_t counter_value(Handle h) const { return counters_[h]; }

  /// The storage of a counter's value, for a single writer that bumps its
  /// hottest counter through a pointer it keeps beside its other per-frame
  /// state (saturating_add, like inc()). Valid until the next registration
  /// (which may reallocate); moving the registry keeps it valid.
  std::uint64_t* counter_cell(Handle h) { return &counters_[h]; }

  void set(Handle h, double v) { gauges_[h] = v; }
  double gauge_value(Handle h) const { return gauges_[h]; }

  /// Records one observation into a histogram: binary search over the
  /// precomputed bounds, then four scalar updates. No allocation.
  void observe(Handle h, double v);

  // ------------------------------------------------------- aggregation
  /// Adds every value of `other` into this registry, index by index.
  /// Requires that both share one schema (both are copies of one
  /// registry); throws PreconditionError otherwise. Lock-free and
  /// allocation-free: plain reads of the source and plain writes of the
  /// destination — callers serialize.
  void add_from(const Registry& other);

  /// Zeroes every counter, gauge, bucket, and histogram stat; the schema
  /// (and all storage) is retained.
  void reset_values();

  /// Deep copy of the schema and current values in registration order.
  MetricsSnapshot snapshot() const;

 private:
  struct Schema;  // names, help, bounds and order (metrics.cpp)
  struct HistogramStats {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  /// The schema, for registration: created on first use, and checked to
  /// be this registry's alone.
  Schema& own_schema();

  std::shared_ptr<Schema> schema_;  ///< Shared by copies; null when empty.
  std::vector<std::uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<HistogramStats> histograms_;
  /// Every histogram's tallies, concatenated in registration order: each
  /// has bounds.size()+1 (+Inf last).
  std::vector<std::uint64_t> buckets_;
};

}  // namespace airfinger::obs
