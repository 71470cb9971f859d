// Deeper pipeline tests: recognizer selection modes, ZEBRA proportionality
// and configuration, router thresholds, trainer wiring, and streaming/batch
// segmentation consistency on realistic traces.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.hpp"
#include "core/trainer.hpp"
#include "core/training.hpp"
#include "core/type_router.hpp"
#include "core/zebra.hpp"
#include "dsp/dynamic_threshold.hpp"
#include "synth/dataset.hpp"

namespace airfinger::core {
namespace {

synth::Dataset small_dataset(std::vector<synth::MotionKind> kinds,
                             int reps, std::uint64_t seed) {
  synth::CollectionConfig config;
  config.users = 2;
  config.sessions = 1;
  config.repetitions = reps;
  config.kinds = std::move(kinds);
  config.seed = seed;
  return synth::DatasetBuilder(config).collect();
}

// -------------------------------------------------- recognizer modes

TEST(RecognizerModes, SingleStageUsesWholeBank) {
  const auto data = small_dataset(
      {synth::MotionKind::kClick, synth::MotionKind::kRub}, 5, 41);
  const DataProcessor proc;
  DetectRecognizerConfig config;
  config.two_stage_selection = false;
  DetectRecognizer rec(config);
  const auto set = build_feature_set(data, proc, rec.bank(),
                                     LabelScheme::kDetectSix);
  rec.fit(set);
  EXPECT_EQ(rec.selected_features().size(), rec.bank().feature_count());
}

TEST(RecognizerModes, TwoStageSelectsRequestedCount) {
  const auto data = small_dataset(
      {synth::MotionKind::kClick, synth::MotionKind::kRub}, 5, 42);
  const DataProcessor proc;
  DetectRecognizerConfig config;
  config.selected_features = 7;
  DetectRecognizer rec(config);
  const auto set = build_feature_set(data, proc, rec.bank(),
                                     LabelScheme::kDetectSix);
  rec.fit(set);
  EXPECT_EQ(rec.selected_features().size(), 7u);
  // Selected indices are unique and in range.
  std::set<std::size_t> unique(rec.selected_features().begin(),
                               rec.selected_features().end());
  EXPECT_EQ(unique.size(), 7u);
  for (std::size_t idx : unique) EXPECT_LT(idx, rec.bank().feature_count());
  // Final importances cover exactly the selected columns.
  EXPECT_EQ(rec.final_importances().size(), 7u);
}

TEST(RecognizerModes, WrongArityRowsRejected) {
  DetectRecognizer rec;
  ml::SampleSet bad;
  bad.features = {{1.0, 2.0}};
  bad.labels = {0};
  EXPECT_THROW(rec.fit(bad), PreconditionError);
}

// -------------------------------------------------- ZEBRA details

ProcessedTrace scroll_like(double dt_fraction) {
  // Three channels with Gaussian humps; dt_fraction shifts P3 vs P1.
  const std::size_t n = 160;
  auto hump = [n](double centre) {
    std::vector<double> x(n, 0.3);
    for (std::size_t i = 0; i < n; ++i)
      x[i] += 300.0 * std::exp(-0.5 * std::pow(
                                   (static_cast<double>(i) - centre) / 9.0,
                                   2.0));
    return x;
  };
  const double mid = static_cast<double>(n) / 2.0;
  const double off = dt_fraction * static_cast<double>(n) / 2.0;
  ProcessedTrace p;
  p.sample_rate_hz = 100.0;
  p.delta_rss2 = {hump(mid - off), hump(mid), hump(mid + off)};
  p.energy.assign(n, 0.0);
  for (const auto& ch : p.delta_rss2)
    for (std::size_t i = 0; i < n; ++i) p.energy[i] += ch[i];
  return p;
}

TEST(ZebraDetails, VelocityInverselyProportionalToDt) {
  const ZebraTracker zebra;
  const auto fast = zebra.track(scroll_like(0.2), {0, 160});
  const auto slow = zebra.track(scroll_like(0.5), {0, 160});
  ASSERT_TRUE(fast && slow);
  ASSERT_TRUE(fast->delta_t_s && slow->delta_t_s);
  EXPECT_LT(*fast->delta_t_s, *slow->delta_t_s);
  // v = gain · span / Δt: the ratio of velocities inverts the Δt ratio.
  EXPECT_NEAR(fast->velocity_mps / slow->velocity_mps,
              *slow->delta_t_s / *fast->delta_t_s, 1e-9);
}

TEST(ZebraDetails, VelocityGainScalesOutput) {
  ZebraConfig doubled;
  doubled.velocity_gain = 2.0;
  const ZebraTracker base, scaled{doubled};
  const auto p = scroll_like(0.4);
  const auto a = base.track(p, {0, 160});
  const auto b = scaled.track(p, {0, 160});
  ASSERT_TRUE(a && b);
  EXPECT_NEAR(b->velocity_mps, 2.0 * a->velocity_mps, 1e-9);
}

TEST(ZebraDetails, InvalidConfigThrows) {
  ZebraConfig bad;
  bad.pd_span_m = 0.0;
  EXPECT_THROW(ZebraTracker{bad}, PreconditionError);
  ZebraConfig bad2;
  bad2.experience_velocity_mps = -1.0;
  EXPECT_THROW(ZebraTracker{bad2}, PreconditionError);
}

TEST(ZebraDetails, SegmentOutOfRangeThrows) {
  const auto p = scroll_like(0.4);
  const ZebraTracker zebra;
  EXPECT_THROW(zebra.track(p, {0, 500}), PreconditionError);
}

// -------------------------------------------------- router thresholds

TEST(RouterThresholds, HigherAsymmetryThresholdRoutesDetect) {
  const auto p = scroll_like(0.35);
  TypeRouterConfig strict;
  strict.asymmetry_threshold = 5.0;  // unreachable: A spans [-1, 1]
  EXPECT_EQ(TypeRouter{strict}.route(p, {0, 160}),
            GestureCategory::kDetectAimed);
  TypeRouterConfig normal;
  EXPECT_EQ(TypeRouter{normal}.route(p, {0, 160}),
            GestureCategory::kTrackAimed);
}

TEST(RouterThresholds, HugeIgRoutesDetect) {
  const auto p = scroll_like(0.35);
  TypeRouterConfig config;
  config.ig_threshold_s = 10.0;  // no gesture transit is that slow
  EXPECT_EQ(TypeRouter{config}.route(p, {0, 160}),
            GestureCategory::kDetectAimed);
}

// -------------------------------------------------- trainer wiring

TEST(Trainer, FilterCanBeDisabled) {
  TrainerConfig config;
  config.users = 2;
  config.sessions = 1;
  config.repetitions = 3;
  config.seed = 51;
  config.engine.interference_filtering = false;
  const auto bundle = build_bundle(config);
  // Scratch samples are not rejected when filtering is off.
  const auto data = small_dataset({synth::MotionKind::kScratch}, 3, 52);
  for (const auto& s : data.samples) {
    const auto v = run_sample(*bundle, s);
    EXPECT_FALSE(v.rejected);
  }
}

TEST(Trainer, MissingNonGestureDataThrowsWhenFilterEnabled) {
  synth::Dataset gestures = small_dataset({synth::MotionKind::kClick,
                                           synth::MotionKind::kRub}, 4, 53);
  synth::Dataset empty;
  AirFingerConfig config;
  EXPECT_THROW(build_bundle_from(config, gestures, empty),
               PreconditionError);
  config.interference_filtering = false;
  EXPECT_NO_THROW(build_bundle_from(config, gestures, empty));
}

// ------------------------------------------ streaming/batch consistency

TEST(SegmenterConsistency, StreamingFindsBatchSegmentsOnRealTraces) {
  const auto data = small_dataset(
      {synth::MotionKind::kClick, synth::MotionKind::kCircle}, 4, 54);
  const DataProcessor proc;
  int batch_total = 0, stream_matched = 0;
  for (const auto& s : data.samples) {
    const auto processed = proc.process(s.trace);

    dsp::SegmenterConfig config = proc.config().segmenter;
    config.sample_rate_hz = s.trace.sample_rate_hz();
    dsp::DynamicThresholdSegmenter stream(config);
    std::vector<dsp::Segment> streamed;
    for (std::size_t i = 0; i < processed.energy.size(); ++i)
      if (const auto seg = stream.push(processed.energy[i]))
        streamed.push_back(*seg);
    if (const auto seg = stream.flush()) streamed.push_back(*seg);

    for (const auto& b : processed.segments) {
      ++batch_total;
      for (const auto& st : streamed) {
        const auto lo = std::max(b.begin, st.begin);
        const auto hi = std::min(b.end, st.end);
        if (hi > lo && (hi - lo) * 2 >= b.length()) {
          ++stream_matched;
          break;
        }
      }
    }
  }
  ASSERT_GT(batch_total, 4);
  // The streaming segmenter sees a causal, growing history rather than the
  // whole trace, so boundaries differ; most gestures must still be found.
  EXPECT_GE(stream_matched * 10, batch_total * 7);
}

}  // namespace
}  // namespace airfinger::core
