#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace airfinger::obs {

const MetricEntry* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricEntry& e : entries)
    if (e.name == name) return &e;
  return nullptr;
}

struct Registry::Schema {
  struct Metric {
    MetricEntry::Type type;
    std::uint32_t index;  ///< Within its kind: the metric's handle.
    std::string name, help;
  };
  struct Histogram {
    std::vector<double> bounds;  ///< Ascending finite upper bounds.
    std::size_t first_bucket;    ///< Offset of its tallies in buckets_.
  };
  std::vector<Metric> metrics;  ///< Registration order.
  std::vector<Histogram> histograms;
};

Registry::Schema& Registry::own_schema() {
  if (!schema_) schema_ = std::make_shared<Schema>();
  AF_EXPECT(schema_.use_count() == 1,
            "register every metric before copying the registry");
  return *schema_;
}

Registry::Handle Registry::counter(std::string name, std::string help) {
  const auto h = static_cast<Handle>(counters_.size());
  own_schema().metrics.push_back(
      {MetricEntry::Type::kCounter, h, std::move(name), std::move(help)});
  counters_.push_back(0);
  return h;
}

Registry::Handle Registry::gauge(std::string name, std::string help) {
  const auto h = static_cast<Handle>(gauges_.size());
  own_schema().metrics.push_back(
      {MetricEntry::Type::kGauge, h, std::move(name), std::move(help)});
  gauges_.push_back(0.0);
  return h;
}

Registry::Handle Registry::histogram(std::string name, std::string help,
                                     HistogramSpec spec) {
  AF_EXPECT(spec.buckets >= 2, "histogram needs at least two buckets");
  AF_EXPECT(spec.least > 0.0 && spec.most > spec.least,
            "histogram bounds must satisfy 0 < least < most");
  Schema::Histogram hist{std::vector<double>(spec.buckets), buckets_.size()};
  // Geometric series least..most inclusive: bound[i] = least * r^i with
  // r^(n-1) = most/least. The endpoints are pinned exactly so the schema
  // is reproducible from the spec alone.
  const double ratio = std::pow(spec.most / spec.least,
                                1.0 / static_cast<double>(spec.buckets - 1));
  for (std::size_t i = 0; i < spec.buckets; ++i)
    hist.bounds[i] = spec.least * std::pow(ratio, static_cast<double>(i));
  hist.bounds.front() = spec.least;
  hist.bounds.back() = spec.most;
  const auto h = static_cast<Handle>(histograms_.size());
  Schema& schema = own_schema();
  schema.metrics.push_back(
      {MetricEntry::Type::kHistogram, h, std::move(name), std::move(help)});
  schema.histograms.push_back(std::move(hist));
  histograms_.emplace_back();
  buckets_.resize(buckets_.size() + spec.buckets + 1, 0);
  return h;
}

void Registry::observe(Handle h, double v) {
  const Schema::Histogram& shape = schema_->histograms[h];
  // First finite bound whose value is >= v; +Inf bucket when none.
  const auto it =
      std::lower_bound(shape.bounds.begin(), shape.bounds.end(), v);
  std::uint64_t& tally =
      buckets_[shape.first_bucket +
               static_cast<std::size_t>(it - shape.bounds.begin())];
  tally = saturating_add(tally, 1);
  HistogramStats& hist = histograms_[h];
  hist.min = hist.count > 0 ? std::min(hist.min, v) : v;
  hist.max = hist.count > 0 ? std::max(hist.max, v) : v;
  hist.count = saturating_add(hist.count, 1);
  hist.sum += v;
}

void Registry::add_from(const Registry& other) {
  AF_EXPECT(schema_ == other.schema_,
            "registry aggregation requires a shared schema");
  for (std::size_t i = 0; i < counters_.size(); ++i)
    counters_[i] = saturating_add(counters_[i], other.counters_[i]);
  for (std::size_t i = 0; i < gauges_.size(); ++i)
    gauges_[i] += other.gauges_[i];
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    HistogramStats& dst = histograms_[i];
    const HistogramStats& src = other.histograms_[i];
    if (src.count > 0) {
      dst.min = dst.count > 0 ? std::min(dst.min, src.min) : src.min;
      dst.max = dst.count > 0 ? std::max(dst.max, src.max) : src.max;
    }
    dst.count = saturating_add(dst.count, src.count);
    dst.sum += src.sum;
  }
  for (std::size_t b = 0; b < buckets_.size(); ++b)
    buckets_[b] = saturating_add(buckets_[b], other.buckets_[b]);
}

void Registry::reset_values() {
  std::fill(counters_.begin(), counters_.end(), 0u);
  std::fill(gauges_.begin(), gauges_.end(), 0.0);
  std::fill(histograms_.begin(), histograms_.end(), HistogramStats{});
  std::fill(buckets_.begin(), buckets_.end(), 0u);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  if (!schema_) return snap;
  snap.entries.reserve(schema_->metrics.size());
  for (const Schema::Metric& m : schema_->metrics) {
    MetricEntry e;
    e.type = m.type;
    e.name = m.name;
    e.help = m.help;
    switch (m.type) {
      case MetricEntry::Type::kCounter:
        e.count = counters_[m.index];
        break;
      case MetricEntry::Type::kGauge:
        e.value = gauges_[m.index];
        break;
      case MetricEntry::Type::kHistogram: {
        const Schema::Histogram& shape = schema_->histograms[m.index];
        const HistogramStats& h = histograms_[m.index];
        e.count = h.count;
        e.value = h.sum;
        e.min = h.min;
        e.max = h.max;
        e.bounds = shape.bounds;
        const std::uint64_t* first = &buckets_[shape.first_bucket];
        e.buckets.assign(first, first + shape.bounds.size() + 1);
        break;
      }
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

}  // namespace airfinger::obs
