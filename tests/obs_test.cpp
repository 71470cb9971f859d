// Unit tests for the observability layer (src/obs/, DESIGN.md §13):
// saturating counters, the fixed-shape Registry and its index-wise
// aggregation, log-spaced histograms, the deterministic TickClock, the
// overwrite-oldest EventRing, the exact text of both exposition writers,
// and the MultiSessionHost health/metrics aggregates over mixed healthy
// and quarantined lanes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/multi_session_host.hpp"
#include "core/trainer.hpp"
#include "obs/clock.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "synth/dataset.hpp"

namespace airfinger {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

// ------------------------------------------------- saturating arithmetic

TEST(SaturatingAdd, ClampsInsteadOfWrapping) {
  EXPECT_EQ(obs::saturating_add(2, 3), 5u);
  EXPECT_EQ(obs::saturating_add(kMax, 0), kMax);
  EXPECT_EQ(obs::saturating_add(kMax, 1), kMax);
  EXPECT_EQ(obs::saturating_add(kMax - 1, 1), kMax);
  EXPECT_EQ(obs::saturating_add(kMax, kMax), kMax);
}

TEST(HealthStats, AggregationSaturatesOnLargeCounts) {
  core::HealthStats a;
  a.frames = kMax - 10;
  a.non_finite_samples = kMax;
  a.quarantines = 7;
  core::HealthStats b;
  b.frames = 100;  // would wrap to 89 with plain addition
  b.non_finite_samples = 1;
  b.quarantines = 2;
  a += b;
  EXPECT_EQ(a.frames, kMax);
  EXPECT_EQ(a.non_finite_samples, kMax);
  EXPECT_EQ(a.quarantines, 9u);
}

// ---------------------------------------------------------------- registry

TEST(Registry, CountersGaugesAndHistogramsRecord) {
  obs::Registry reg;
  const auto frames = reg.counter("frames_total", "frames");
  const auto depth = reg.gauge("queue_depth", "depth");
  const auto lat = reg.histogram("latency_ns", "latency",
                                 {.least = 10.0, .most = 1e6, .buckets = 6});

  reg.inc(frames);
  reg.inc(frames, 4);
  EXPECT_EQ(reg.counter_value(frames), 5u);
  reg.inc(frames, kMax);  // saturates, never wraps
  EXPECT_EQ(reg.counter_value(frames), kMax);

  reg.set(depth, 3.5);
  EXPECT_EQ(reg.gauge_value(depth), 3.5);

  reg.observe(lat, 5.0);     // below first bound -> first bucket
  reg.observe(lat, 2e6);     // above last bound  -> +Inf bucket
  reg.observe(lat, 100.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricEntry* e = snap.find("latency_ns");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->type, obs::MetricEntry::Type::kHistogram);
  EXPECT_EQ(e->count, 3u);
  EXPECT_EQ(e->value, 5.0 + 2e6 + 100.0);  // sum
  EXPECT_EQ(e->min, 5.0);
  EXPECT_EQ(e->max, 2e6);
  ASSERT_EQ(e->bounds.size(), 6u);
  ASSERT_EQ(e->buckets.size(), 7u);
  // Geometric bounds with both endpoints pinned exactly.
  EXPECT_EQ(e->bounds.front(), 10.0);
  EXPECT_EQ(e->bounds.back(), 1e6);
  for (std::size_t i = 1; i < e->bounds.size(); ++i)
    EXPECT_GT(e->bounds[i], e->bounds[i - 1]);
  // Bounds are 10, 100, ..., 1e6 (ratio 10): 5.0 lands below the first
  // bound, 100.0 exactly on the second (le semantics), 2e6 in +Inf.
  EXPECT_EQ(e->buckets[0], 1u);
  EXPECT_EQ(e->buckets[1], 1u);
  std::uint64_t total = 0;
  for (const auto b : e->buckets) total += b;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(e->buckets.back(), 1u);  // the 2e6 observation
}

TEST(Registry, AddFromAggregatesIndexWise) {
  obs::Registry lhs;
  lhs.counter("a_total", "a");
  lhs.gauge("g", "g");
  lhs.histogram("h_ns", "h", {.least = 1.0, .most = 1e3, .buckets = 4});
  obs::Registry rhs = lhs;  // aggregation needs the one shared schema
  lhs.inc(0, 10);
  rhs.inc(0, 5);
  lhs.set(0, 1.0);
  rhs.set(0, 2.0);
  lhs.observe(0, 2.0);
  rhs.observe(0, 500.0);

  lhs.add_from(rhs);
  const auto snap = lhs.snapshot();
  EXPECT_EQ(snap.find("a_total")->count, 15u);
  // Gauges aggregate by sum (af_quarantined over N lanes = degraded count).
  EXPECT_EQ(snap.find("g")->value, 3.0);
  const auto* h = snap.find("h_ns");
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->value, 502.0);
  EXPECT_EQ(h->min, 2.0);
  EXPECT_EQ(h->max, 500.0);
  // The copies share one schema, so neither may extend it any more.
  EXPECT_THROW(rhs.counter("late_total", "late"), PreconditionError);
}

TEST(Registry, AddFromRejectsSchemaMismatch) {
  obs::Registry a;
  a.counter("x_total", "x");
  obs::Registry b;
  b.counter("y_total", "y");
  EXPECT_THROW(a.add_from(b), PreconditionError);

  obs::Registry c;
  c.gauge("x_total", "x");  // same name, different type
  EXPECT_THROW(a.add_from(c), PreconditionError);
}

TEST(Registry, ResetValuesKeepsSchema) {
  obs::Registry reg;
  const auto c = reg.counter("c_total", "c");
  const auto h = reg.histogram("h_ns", "h", {});
  reg.inc(c, 9);
  reg.observe(h, 1234.0);
  reg.reset_values();
  EXPECT_EQ(reg.counter_value(c), 0u);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.find("h_ns")->count, 0u);
  EXPECT_EQ(snap.find("h_ns")->value, 0.0);
}

// ------------------------------------------------------------------ clock

TEST(TickClock, AdvancesDeterministically) {
  obs::TickClock clock(250, 1000);
  EXPECT_EQ(clock.now_ns(), 1000u);
  EXPECT_EQ(clock.now_ns(), 1250u);
  EXPECT_EQ(clock.now_ns(), 1500u);
  obs::TickClock again(250, 1000);
  EXPECT_EQ(again.now_ns(), 1000u);  // same sequence every construction
}

// ------------------------------------------------------------- event ring

TEST(EventRing, OverwritesOldestAndCountsDrops) {
  obs::EventRing ring(3);
  obs::PipelineEvent e;
  for (std::uint64_t i = 0; i < 3; ++i) {
    e.frame = i;
    EXPECT_TRUE(ring.push(e));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);

  e.frame = 3;
  EXPECT_FALSE(ring.push(e));  // evicts frame 0
  EXPECT_EQ(ring.dropped(), 1u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().frame, 1u);  // oldest first
  EXPECT_EQ(events.back().frame, 3u);

  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(EventRing, WraparoundKeepsExactDropCountsAcrossCapacityBoundaries) {
  // Push totals chosen to land exactly on, one past, and well beyond the
  // capacity boundary (including several full wraps): the retained window
  // must always be the newest `capacity` events in order, and `dropped`
  // must equal pushes minus capacity, exactly.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3},
                                     std::size_t{4}, std::size_t{7}}) {
    for (const std::size_t pushes :
         {capacity, capacity + 1, 2 * capacity, 2 * capacity + 3,
          5 * capacity + capacity / 2}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + ", pushes " +
                   std::to_string(pushes));
      obs::EventRing ring(capacity);
      obs::PipelineEvent e;
      for (std::uint64_t i = 0; i < pushes; ++i) {
        e.frame = i;
        EXPECT_EQ(ring.push(e), i < capacity);
      }
      EXPECT_EQ(ring.size(), std::min(pushes, capacity));
      EXPECT_EQ(ring.dropped(), pushes - std::min(pushes, capacity));
      const auto events = ring.events();
      ASSERT_EQ(events.size(), std::min(pushes, capacity));
      for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].frame, pushes - events.size() + i);
    }
  }
}

TEST(EventRing, CopyRecentTakesTheNewestWindowWithoutAllocating) {
  obs::EventRing ring(4);
  obs::PipelineEvent e;
  for (std::uint64_t i = 0; i < 7; ++i) {  // wraps: retains frames 3..6
    e.frame = i;
    ring.push(e);
  }
  obs::PipelineEvent out[8];
  // Window smaller than retained: the newest two, oldest of them first.
  ASSERT_EQ(ring.copy_recent(out, 2), 2u);
  EXPECT_EQ(out[0].frame, 5u);
  EXPECT_EQ(out[1].frame, 6u);
  // Window larger than retained: everything, still oldest first.
  ASSERT_EQ(ring.copy_recent(out, 8), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].frame, 3 + i);
  EXPECT_EQ(ring.copy_recent(out, 0), 0u);
}

// ------------------------------------------------------------- exposition

obs::MetricsSnapshot sample_snapshot() {
  obs::Registry reg;
  const auto c = reg.counter("af_frames_total", "Frames seen");
  const auto g = reg.gauge("af_quarantined", "Degraded flag");
  const auto h = reg.histogram("af_stage_ingest_ns", "Ingest latency",
                               {.least = 100.0, .most = 1e9, .buckets = 36});
  reg.inc(c, 12345);
  reg.set(g, 1.0);
  reg.observe(h, 37.0);
  reg.observe(h, 41250.5);
  reg.observe(h, 2e9);
  reg.observe(h, 0.1);
  return reg.snapshot();
}

// The writers' exact output. Doubles print as %.17g, which strtod reads
// back to the same bits, so the text carries every value exactly.
TEST(Exposition, PrometheusTextIsPinned) {
  // Cumulative buckets; the format has no field for histogram min/max.
  const std::string expected =
      R"(# HELP af_frames_total Frames seen
# TYPE af_frames_total counter
af_frames_total 12345
# HELP af_quarantined Degraded flag
# TYPE af_quarantined gauge
af_quarantined 1
# HELP af_stage_ingest_ns Ingest latency
# TYPE af_stage_ingest_ns histogram
af_stage_ingest_ns_bucket{le="100"} 2
af_stage_ingest_ns_bucket{le="158.48931924611134"} 2
af_stage_ingest_ns_bucket{le="251.18864315095797"} 2
af_stage_ingest_ns_bucket{le="398.10717055349716"} 2
af_stage_ingest_ns_bucket{le="630.95734448019311"} 2
af_stage_ingest_ns_bucket{le="999.99999999999966"} 2
af_stage_ingest_ns_bucket{le="1584.8931924611127"} 2
af_stage_ingest_ns_bucket{le="2511.8864315095789"} 2
af_stage_ingest_ns_bucket{le="3981.0717055349705"} 2
af_stage_ingest_ns_bucket{le="6309.5734448019284"} 2
af_stage_ingest_ns_bucket{le="9999.9999999999927"} 2
af_stage_ingest_ns_bucket{le="15848.931924611123"} 2
af_stage_ingest_ns_bucket{le="25118.86431509578"} 2
af_stage_ingest_ns_bucket{le="39810.717055349684"} 2
af_stage_ingest_ns_bucket{le="63095.73444801927"} 3
af_stage_ingest_ns_bucket{le="99999.999999999898"} 3
af_stage_ingest_ns_bucket{le="158489.31924611118"} 3
af_stage_ingest_ns_bucket{le="251188.64315095771"} 3
af_stage_ingest_ns_bucket{le="398107.17055349675"} 3
af_stage_ingest_ns_bucket{le="630957.34448019241"} 3
af_stage_ingest_ns_bucket{le="999999.9999999986"} 3
af_stage_ingest_ns_bucket{le="1584893.1924611111"} 3
af_stage_ingest_ns_bucket{le="2511886.4315095763"} 3
af_stage_ingest_ns_bucket{le="3981071.7055349662"} 3
af_stage_ingest_ns_bucket{le="6309573.444801922"} 3
af_stage_ingest_ns_bucket{le="9999999.9999999832"} 3
af_stage_ingest_ns_bucket{le="15848931.924611107"} 3
af_stage_ingest_ns_bucket{le="25118864.315095752"} 3
af_stage_ingest_ns_bucket{le="39810717.055349648"} 3
af_stage_ingest_ns_bucket{le="63095734.448019192"} 3
af_stage_ingest_ns_bucket{le="99999999.999999791"} 3
af_stage_ingest_ns_bucket{le="158489319.24611101"} 3
af_stage_ingest_ns_bucket{le="251188643.15095744"} 3
af_stage_ingest_ns_bucket{le="398107170.55349636"} 3
af_stage_ingest_ns_bucket{le="630957344.48019171"} 3
af_stage_ingest_ns_bucket{le="1000000000"} 3
af_stage_ingest_ns_bucket{le="+Inf"} 4
af_stage_ingest_ns_sum 2000041287.5999999
af_stage_ingest_ns_count 4
)";
  EXPECT_EQ(obs::to_prometheus(sample_snapshot()), expected);
}

TEST(Exposition, JsonTextIsPinned) {
  // Per-bucket tallies plus the histogram min/max: the whole snapshot.
  const std::string expected =
      R"({
  "metrics": [
    {"name": "af_frames_total", "type": "counter", )"
      R"("help": "Frames seen", "value": 12345},
    {"name": "af_quarantined", "type": "gauge", )"
      R"("help": "Degraded flag", "value": 1},
    {"name": "af_stage_ingest_ns", "type": "histogram", )"
      R"("help": "Ingest latency", "count": 4, "sum": 2000041287.5999999, )"
      R"("min": 0.10000000000000001, "max": 2000000000, "bounds": [100, )"
      R"(158.48931924611134, 251.18864315095797, 398.10717055349716, )"
      R"(630.95734448019311, 999.99999999999966, 1584.8931924611127, )"
      R"(2511.8864315095789, 3981.0717055349705, 6309.5734448019284, )"
      R"(9999.9999999999927, 15848.931924611123, 25118.86431509578, )"
      R"(39810.717055349684, 63095.73444801927, 99999.999999999898, )"
      R"(158489.31924611118, 251188.64315095771, 398107.17055349675, )"
      R"(630957.34448019241, 999999.9999999986, 1584893.1924611111, )"
      R"(2511886.4315095763, 3981071.7055349662, 6309573.444801922, )"
      R"(9999999.9999999832, 15848931.924611107, 25118864.315095752, )"
      R"(39810717.055349648, 63095734.448019192, 99999999.999999791, )"
      R"(158489319.24611101, 251188643.15095744, 398107170.55349636, )"
      R"(630957344.48019171, 1000000000], "buckets": [2, 0, 0, 0, 0, 0, 0, )"
      R"(0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, )"
      R"(0, 0, 0, 0, 0, 0, 0, 1]}
  ]
}
)";
  EXPECT_EQ(obs::to_json(sample_snapshot()), expected);
}

TEST(Exposition, ExtremeValuesPrintExactlyInBothFormats) {
  // The %.17g contract at the edges of double: denormals (down to the
  // smallest positive 5e-324), near-overflow magnitudes, negative
  // zero-adjacent gauges, and infinite histogram sums (an observation of
  // +Inf lands in the +Inf bucket and poisons the sum — the exposition
  // must carry that faithfully, not normalize it away).
  constexpr double kDenormalMin = 5e-324;
  constexpr double kHuge = 1.7976931348623157e308;  // DBL_MAX
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::Registry reg;
  reg.set(reg.gauge("af_tiny", "denormal gauge"), kDenormalMin);
  reg.set(reg.gauge("af_huge", "near-overflow gauge"), kHuge);
  reg.set(reg.gauge("af_neg", "negative denormal gauge"), -kDenormalMin);
  reg.set(reg.gauge("af_inf", "infinite gauge"), kInf);
  const auto h = reg.histogram("af_h", "extreme observations",
                               {.least = 1e-30, .most = 1e30,
                                .buckets = 24});
  reg.observe(h, kDenormalMin);
  reg.observe(h, kHuge);
  reg.observe(h, kInf);
  const obs::MetricsSnapshot snapshot = reg.snapshot();

  const std::string prometheus =
      R"(# HELP af_tiny denormal gauge
# TYPE af_tiny gauge
af_tiny 4.9406564584124654e-324
# HELP af_huge near-overflow gauge
# TYPE af_huge gauge
af_huge 1.7976931348623157e+308
# HELP af_neg negative denormal gauge
# TYPE af_neg gauge
af_neg -4.9406564584124654e-324
# HELP af_inf infinite gauge
# TYPE af_inf gauge
af_inf inf
# HELP af_h extreme observations
# TYPE af_h histogram
af_h_bucket{le="1.0000000000000001e-30"} 1
af_h_bucket{le="4.0615859883769786e-28"} 1
af_h_bucket{le="1.6496480740980201e-25"} 1
af_h_bucket{le="6.700187503509586e-23"} 1
af_h_bucket{le="2.7213387683753065e-20"} 1
af_h_bucket{le="1.1052951411260207e-17"} 1
af_h_bucket{le="4.4892512582186013e-15"} 1
af_h_bucket{le="1.823348000868439e-12"} 1
af_h_bucket{le="7.4056846922624281e-10"} 1
af_h_bucket{le="3.0078825180430955e-07"} 1
af_h_bucket{le="0.00012216773489967902"} 1
af_h_bucket{le="0.049619476030028947"} 1
af_h_bucket{le="20.153376859417296"} 1
af_h_bucket{le="8185.4673070690123"} 1
af_h_bucket{le="3324597.9322709339"} 1
af_h_bucket{le="1350314037.8698702"} 1
af_h_bucket{le="548441657612.10046"} 1
af_h_bucket{le="222754295199955.19"} 1
af_h_bucket{le="90473572423492720"} 1
af_h_bucket{le="3.6746619407366787e+19"} 1
af_h_bucket{le="1.4924955450518249e+22"} 1
af_h_bucket{le="6.0618989934975531e+24"} 1
af_h_bucket{le="2.4620924014946174e+27"} 1
af_h_bucket{le="1e+30"} 1
af_h_bucket{le="+Inf"} 3
af_h_sum inf
af_h_count 3
)";
  EXPECT_EQ(obs::to_prometheus(snapshot), prometheus);
  const std::string json =
      R"({
  "metrics": [
    {"name": "af_tiny", "type": "gauge", )"
      R"("help": "denormal gauge", "value": 4.9406564584124654e-324},
    {"name": "af_huge", "type": "gauge", )"
      R"("help": "near-overflow gauge", "value": 1.7976931348623157e+308},
    {"name": "af_neg", "type": "gauge", )"
      R"("help": "negative denormal gauge", )"
      R"("value": -4.9406564584124654e-324},
    {"name": "af_inf", "type": "gauge", "help": "infinite gauge", )"
      R"("value": inf},
    {"name": "af_h", "type": "histogram", )"
      R"("help": "extreme observations", "count": 3, "sum": inf, )"
      R"("min": 4.9406564584124654e-324, "max": inf, )"
      R"("bounds": [1.0000000000000001e-30, 4.0615859883769786e-28, )"
      R"(1.6496480740980201e-25, 6.700187503509586e-23, )"
      R"(2.7213387683753065e-20, 1.1052951411260207e-17, )"
      R"(4.4892512582186013e-15, 1.823348000868439e-12, )"
      R"(7.4056846922624281e-10, 3.0078825180430955e-07, )"
      R"(0.00012216773489967902, 0.049619476030028947, 20.153376859417296, )"
      R"(8185.4673070690123, 3324597.9322709339, 1350314037.8698702, )"
      R"(548441657612.10046, 222754295199955.19, 90473572423492720, )"
      R"(3.6746619407366787e+19, 1.4924955450518249e+22, )"
      R"(6.0618989934975531e+24, 2.4620924014946174e+27, 1e+30], )"
      R"("buckets": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, )"
      R"(0, 0, 0, 0, 0, 0, 2]}
  ]
}
)";
  EXPECT_EQ(obs::to_json(snapshot), json);
}

TEST(Exposition, HistogramQuantileClampsToObservedRange) {
  obs::Registry reg;
  const auto h = reg.histogram("h_ns", "h",
                               {.least = 10.0, .most = 1e6, .buckets = 12});
  for (int i = 0; i < 100; ++i) reg.observe(h, 1000.0);
  const auto snap = reg.snapshot();
  const auto* e = snap.find("h_ns");
  EXPECT_EQ(obs::histogram_quantile(*e, 0.0), 1000.0);
  EXPECT_EQ(obs::histogram_quantile(*e, 1.0), 1000.0);
  const double p50 = obs::histogram_quantile(*e, 0.5);
  EXPECT_GE(p50, 1000.0);
  EXPECT_LE(p50, 1000.0);

  obs::MetricEntry empty;
  empty.type = obs::MetricEntry::Type::kHistogram;
  EXPECT_EQ(obs::histogram_quantile(empty, 0.5), 0.0);
}

// ------------------------------------------- host aggregation (satellite)

/// Small shared bundle (same scale as the golden-replay reference).
const std::shared_ptr<const core::ModelBundle>& test_bundle() {
  static const std::shared_ptr<const core::ModelBundle> bundle = [] {
    core::TrainerConfig config;
    config.users = 2;
    config.sessions = 1;
    config.repetitions = 3;
    config.non_gesture_repetitions = 3;
    config.seed = 11;
    return core::build_bundle(config);
  }();
  return bundle;
}

TEST(HostAggregation, HealthSumsQuarantinedAndHealthyLanes) {
  core::FaultPolicy policy;
  policy.enabled = true;
  policy.stuck_run_limit = 16;
  policy.recovery_frames = 32;

  core::MultiSessionHost host(test_bundle(), 2, policy);
  const std::size_t channels = test_bundle()->config().channels;

  // Lane 0: a stuck stream (bit-identical frames beyond the run limit)
  // that must quarantine. Lane 1: clean, varying samples.
  std::vector<double> stuck(channels, 0.25);
  std::vector<double> clean(channels);
  for (std::size_t f = 0; f < 200; ++f) {
    host.feed(0, stuck);
    for (std::size_t c = 0; c < channels; ++c)
      clean[c] = 0.01 * std::sin(0.37 * static_cast<double>(f + c));
    host.feed(1, clean);
  }
  host.pump();
  host.finish();

  const core::HealthStats health0 = host.session(0).health();
  const core::HealthStats health1 = host.session(1).health();
  EXPECT_GT(health0.quarantines, 0u);
  EXPECT_GT(health0.stuck_samples, 0u);
  EXPECT_TRUE(health1.clean());
  EXPECT_EQ(health1.frames, 200u);

  core::HealthStats expected = health0;
  expected += health1;
  EXPECT_EQ(host.aggregate_health(), expected);
}

TEST(HostAggregation, MetricsMergeLanesAndAppendHostSeries) {
  core::MultiSessionHost host(test_bundle(), 3);
  const std::size_t channels = test_bundle()->config().channels;
  std::vector<double> frame(channels, 0.0);
  for (std::size_t f = 0; f < 50; ++f) {
    for (std::size_t c = 0; c < channels; ++c)
      frame[c] = 0.01 * std::sin(0.29 * static_cast<double>(3 * f + c));
    host.feed(0, frame);
    if (f % 2 == 0) host.feed(1, frame);
  }
  host.pump();
  host.finish();

  const obs::MetricsSnapshot total = host.aggregate_metrics();
  EXPECT_EQ(total.find("af_frames_total")->count, 75u);  // 50 + 25 + 0
  EXPECT_EQ(total.find("af_host_sessions")->value, 3.0);
  EXPECT_EQ(total.find("af_host_faulted_sessions")->value, 0.0);
  EXPECT_EQ(total.find("af_host_frames_processed_total")->count, 75u);
  EXPECT_EQ(total.find("af_host_dropped_frames_total")->count, 0u);
  ASSERT_NE(total.find("af_bundle_load_seconds"), nullptr);
  // In-process bundles record no load time.
  EXPECT_EQ(total.find("af_bundle_load_seconds")->value, 0.0);
  // The merged snapshot must expose cleanly in both formats.
  EXPECT_FALSE(obs::to_prometheus(total).empty());
  EXPECT_FALSE(obs::to_json(total).empty());
}

}  // namespace
}  // namespace airfinger
