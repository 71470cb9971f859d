#include "obs/exposition.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace airfinger::obs {

namespace {

/// %.17g: shortest-ish decimal form that still round-trips any double
/// bit-exactly through strtod.
std::string fmt(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

const char* type_name(MetricEntry::Type type) {
  switch (type) {
    case MetricEntry::Type::kCounter: return "counter";
    case MetricEntry::Type::kGauge: return "gauge";
    case MetricEntry::Type::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

// ------------------------------------------------------------- prometheus

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const MetricEntry& e : snapshot.entries) {
    AF_EXPECT(e.help.find('\n') == std::string::npos,
              "metric help must be single-line");
    os << "# HELP " << e.name << ' ' << e.help << '\n';
    os << "# TYPE " << e.name << ' ' << type_name(e.type) << '\n';
    switch (e.type) {
      case MetricEntry::Type::kCounter:
        os << e.name << ' ' << e.count << '\n';
        break;
      case MetricEntry::Type::kGauge:
        os << e.name << ' ' << fmt(e.value) << '\n';
        break;
      case MetricEntry::Type::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < e.bounds.size(); ++b) {
          cumulative = saturating_add(cumulative, e.buckets[b]);
          os << e.name << "_bucket{le=\"" << fmt(e.bounds[b]) << "\"} "
             << cumulative << '\n';
        }
        os << e.name << "_bucket{le=\"+Inf\"} " << e.count << '\n';
        os << e.name << "_sum " << fmt(e.value) << '\n';
        os << e.name << "_count " << e.count << '\n';
        break;
      }
    }
  }
}

// ------------------------------------------------------------------- json

void write_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << "{\n  \"metrics\": [";
  for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
    const MetricEntry& e = snapshot.entries[i];
    AF_EXPECT(e.name.find('"') == std::string::npos &&
                  e.help.find('"') == std::string::npos &&
                  e.help.find('\\') == std::string::npos,
              "metric names/help must not need JSON escaping");
    os << (i ? ",\n    " : "\n    ");
    os << "{\"name\": \"" << e.name << "\", \"type\": \"" << type_name(e.type)
       << "\", \"help\": \"" << e.help << "\"";
    switch (e.type) {
      case MetricEntry::Type::kCounter:
        os << ", \"value\": " << e.count;
        break;
      case MetricEntry::Type::kGauge:
        os << ", \"value\": " << fmt(e.value);
        break;
      case MetricEntry::Type::kHistogram: {
        os << ", \"count\": " << e.count << ", \"sum\": " << fmt(e.value)
           << ", \"min\": " << fmt(e.min) << ", \"max\": " << fmt(e.max);
        os << ", \"bounds\": [";
        for (std::size_t b = 0; b < e.bounds.size(); ++b)
          os << (b ? ", " : "") << fmt(e.bounds[b]);
        os << "], \"buckets\": [";
        for (std::size_t b = 0; b < e.buckets.size(); ++b)
          os << (b ? ", " : "") << e.buckets[b];
        os << "]";
        break;
      }
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  write_prometheus(os, snapshot);
  return os.str();
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  write_json(os, snapshot);
  return os.str();
}

double histogram_quantile(const MetricEntry& entry, double q) {
  AF_EXPECT(entry.type == MetricEntry::Type::kHistogram,
            "histogram_quantile needs a histogram entry");
  AF_EXPECT(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (entry.count == 0) return 0.0;
  const double target_rank =
      std::max(1.0, q * static_cast<double>(entry.count));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < entry.buckets.size(); ++b) {
    const std::uint64_t in_bucket = entry.buckets[b];
    if (static_cast<double>(cumulative + in_bucket) < target_rank) {
      cumulative += in_bucket;
      continue;
    }
    const double lower =
        b == 0 ? entry.min
               : std::max(entry.min, entry.bounds[b - 1]);
    const double upper = b < entry.bounds.size()
                             ? std::min(entry.max, entry.bounds[b])
                             : entry.max;
    if (in_bucket == 0) return std::clamp(lower, entry.min, entry.max);
    const double fraction =
        (target_rank - static_cast<double>(cumulative)) /
        static_cast<double>(in_bucket);
    return std::clamp(lower + (upper - lower) * fraction, entry.min,
                      entry.max);
  }
  return entry.max;
}

}  // namespace airfinger::obs
