// Metric exposition: MetricsSnapshot -> Prometheus text / JSON.
//
// Both writers are deterministic: metrics in schema order, doubles printed
// with %.17g, which strtod reads back bit-exactly (tests/obs_test.cpp pins
// the text). They target the two consumers a serving deployment actually
// has: a Prometheus scraper (`af_stats --format prometheus`) and structured
// tooling / dashboards (`--format json`, which additionally carries the
// histogram min/max that the Prometheus exposition format has no field
// for). Nothing here reads either format back.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace airfinger::obs {

/// Prometheus text exposition format 0.0.4: HELP/TYPE headers, cumulative
/// `_bucket{le="..."}` series plus `_sum`/`_count` for histograms.
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);

/// JSON object {"metrics": [...]} with one entry per metric; histograms
/// carry bounds/buckets/min/max, the whole snapshot.
void write_json(std::ostream& os, const MetricsSnapshot& snapshot);

/// Convenience string forms.
std::string to_prometheus(const MetricsSnapshot& snapshot);
std::string to_json(const MetricsSnapshot& snapshot);

/// Quantile estimate from a histogram entry's buckets (linear
/// interpolation within the winning bucket, clamped to observed min/max).
/// Returns 0 for an empty histogram. `q` in [0, 1].
double histogram_quantile(const MetricEntry& entry, double q);

}  // namespace airfinger::obs
