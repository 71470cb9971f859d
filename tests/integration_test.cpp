// Integration tests: the full airFinger pipeline end-to-end — training on
// synthesized data, offline classification, and the streaming Session.
#include <gtest/gtest.h>

#include <map>

#include "common/stats.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "core/training.hpp"
#include "synth/dataset.hpp"

namespace airfinger::core {
namespace {

/// Shared, lazily trained engine: training is the expensive part, so the
/// suite trains once and every test runs against the same models.
Session& shared_engine() {
  static Session engine = [] {
    TrainerConfig config;
    config.users = 4;
    config.sessions = 2;
    config.repetitions = 8;
    config.non_gesture_repetitions = 10;
    config.seed = 1001;
    return Session(build_bundle(config));
  }();
  return engine;
}

synth::Dataset test_samples(std::vector<synth::MotionKind> kinds,
                            int repetitions, std::uint64_t seed) {
  synth::CollectionConfig config;
  config.users = 2;
  config.sessions = 1;
  config.repetitions = repetitions;
  config.kinds = std::move(kinds);
  config.seed = seed;  // disjoint from the training seed → unseen users
  return synth::DatasetBuilder(config).collect();
}

TEST(Integration, TrainingReportsSelectedFeatures) {
  TrainerConfig config;
  config.users = 2;
  config.sessions = 1;
  config.repetitions = 4;
  config.seed = 77;
  TrainingReport report;
  build_bundle(config, &report);
  EXPECT_GT(report.gesture_samples, 0u);
  EXPECT_GT(report.non_gesture_samples, 0u);
  EXPECT_EQ(report.selected_feature_names.size(), 25u);
}

TEST(Integration, ScrollDirectionIsReliable) {
  auto& engine = shared_engine();
  const auto data = test_samples(
      {synth::MotionKind::kScrollUp, synth::MotionKind::kScrollDown}, 10,
      2002);
  int correct = 0, total = 0;
  for (const auto& s : data.samples) {
    const auto v = run_sample(engine.bundle(), s);
    if (!v.scroll) continue;
    ++total;
    if (v.scroll->direction == s.scroll->direction) ++correct;
  }
  ASSERT_GT(total, 20);
  EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(Integration, DetectGesturesAreMostlyRecognized) {
  auto& engine = shared_engine();
  const auto data = test_samples({synth::MotionKind::kClick,
                                  synth::MotionKind::kDoubleRub}, 10, 2003);
  int correct = 0;
  for (const auto& s : data.samples) {
    const auto v = run_sample(engine.bundle(), s);
    if (v.predicted == s.kind) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) /
                static_cast<double>(data.size()),
            0.6);
}

TEST(Integration, NonGesturesAreMostlyRejected) {
  auto& engine = shared_engine();
  const auto data = test_samples({synth::MotionKind::kScratch}, 10, 2004);
  int rejected_or_missed = 0;
  for (const auto& s : data.samples) {
    const auto v = run_sample(engine.bundle(), s);
    if (!v.detected || v.rejected) ++rejected_or_missed;
  }
  // The engine biases towards keeping real gestures (rejection_threshold),
  // so unintentional-motion rejection is moderate at the engine level; the
  // paper-protocol binary accuracy is measured in bench_fig14.
  EXPECT_GT(static_cast<double>(rejected_or_missed) /
                static_cast<double>(data.size()),
            0.35);
}

TEST(Integration, StreamingEngineRecognizesGestureMix) {
  auto& engine = shared_engine();
  engine.reset();
  synth::CollectionConfig config;
  config.seed = 2005;
  const std::vector<synth::MotionKind> sequence{
      synth::MotionKind::kClick, synth::MotionKind::kScrollUp,
      synth::MotionKind::kDoubleClick};
  const auto stream = synth::make_gesture_stream(config, sequence, 2006);
  const auto events = engine.process_trace(stream.trace);
  // At least one decisive (non-early) event per gesture region.
  int decisive = 0;
  for (const auto& e : events)
    if (e.type != GestureEvent::Type::kScrollDirection) ++decisive;
  EXPECT_GE(decisive, 2);
}

TEST(Integration, ResetAllowsReprocessing) {
  auto& engine = shared_engine();
  const auto data = test_samples({synth::MotionKind::kClick}, 1, 2007);
  engine.reset();
  const auto a = engine.process_trace(data.samples[0].trace);
  engine.reset();
  const auto b = engine.process_trace(data.samples[0].trace);
  EXPECT_EQ(a.size(), b.size());
}

TEST(Integration, OfflineClassificationMatchesTrainingWindows) {
  auto& engine = shared_engine();
  const auto data = test_samples({synth::MotionKind::kClick}, 4, 2008);
  for (const auto& s : data.samples) {
    const auto events = engine.bundle().classify_recording(s.trace);
    for (const auto& e : events) {
      EXPECT_LE(e.segment_begin, e.segment_end);
      EXPECT_LE(e.segment_end, s.trace.sample_count());
    }
  }
}

TEST(Integration, EventDescriptionsAreHumanReadable) {
  auto& engine = shared_engine();
  const auto data = test_samples({synth::MotionKind::kScrollUp}, 8, 2009);
  bool saw_scroll = false;
  for (const auto& s : data.samples) {
    for (const auto& e : engine.bundle().classify_recording(s.trace)) {
      const auto text = e.describe();
      EXPECT_FALSE(text.empty());
      if (e.type == GestureEvent::Type::kScrollDetected) {
        saw_scroll = true;
        EXPECT_NE(text.find("scroll"), std::string::npos);
      }
    }
  }
  EXPECT_TRUE(saw_scroll);
}

TEST(Integration, HybridRoutingCanBeDisabled) {
  // Rule-only mode (the paper's exact architecture) must train and run.
  TrainerConfig config;
  config.users = 2;
  config.sessions = 1;
  config.repetitions = 4;
  config.seed = 2010;
  config.engine.hybrid_routing = false;
  const auto bundle = build_bundle(config);
  const auto data = test_samples({synth::MotionKind::kScrollUp}, 2, 2011);
  for (const auto& s : data.samples)
    EXPECT_NO_THROW(run_sample(*bundle, s));
}

TEST(Integration, VelocityCorrelatesWithTruth) {
  auto& engine = shared_engine();
  const auto data = test_samples(
      {synth::MotionKind::kScrollUp, synth::MotionKind::kScrollDown}, 16,
      2013);
  std::vector<double> truth, measured;
  for (const auto& s : data.samples) {
    const auto v = run_sample(engine.bundle(), s);
    if (!v.scroll || v.scroll->used_experience_velocity) continue;
    truth.push_back(s.scroll->mean_velocity_mps);
    measured.push_back(v.scroll->velocity_mps);
  }
  ASSERT_GT(truth.size(), 10u);
  EXPECT_GT(common::pearson(truth, measured), 0.1);
}

TEST(Integration, LongStreamRunsInBoundedMemory) {
  // Feed more than 3×1024 frames of idle-ish stream plus gestures: the
  // engine must keep producing events while it keeps only the open
  // segment's ΔRSS² (every decide asserts that the closed segment is a
  // prefix of the open-segment view).
  TrainerConfig config;
  config.users = 2;
  config.sessions = 1;
  config.repetitions = 4;
  config.seed = 3001;
  Session engine(build_bundle(config));

  synth::CollectionConfig stream_config;
  stream_config.seed = 3002;
  std::vector<synth::MotionKind> long_sequence;
  for (int i = 0; i < 24; ++i)
    long_sequence.push_back(i % 2 ? synth::MotionKind::kClick
                                  : synth::MotionKind::kScrollUp);
  const auto stream =
      synth::make_gesture_stream(stream_config, long_sequence, 3003);
  ASSERT_GT(stream.trace.sample_count(), 3 * 1024u);
  const auto events = engine.process_trace(stream.trace);
  int decisive = 0;
  for (const auto& e : events)
    if (e.type != GestureEvent::Type::kScrollDirection) ++decisive;
  EXPECT_GE(decisive, 12);  // most of the 24 gestures produce a verdict
}

}  // namespace
}  // namespace airfinger::core
