// Determinism regression suite: the contract that keeps every figure bench
// reproducible. Dataset synthesis, random-forest fitting, and full engine
// training must be bit-identical between 1 thread and N threads for the
// same seed (see DESIGN.md "Concurrency & determinism").
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/multi_session_host.hpp"
#include "core/trainer.hpp"
#include "core/training.hpp"
#include "ml/random_forest.hpp"
#include "synth/dataset.hpp"

namespace airfinger {
namespace {

synth::CollectionConfig small_protocol() {
  synth::CollectionConfig config;
  config.users = 2;
  config.sessions = 2;
  config.repetitions = 2;
  config.seed = 21;
  return config;
}

synth::Dataset collect_with(std::size_t threads,
                            const synth::CollectionConfig& config) {
  common::ScopedThreads scoped(threads);
  return synth::DatasetBuilder(config).collect();
}

void expect_samples_identical(const synth::GestureSample& a,
                              const synth::GestureSample& b,
                              std::size_t index) {
  SCOPED_TRACE("sample " + std::to_string(index));
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.user_id, b.user_id);
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.repetition, b.repetition);
  // Bit-exact double comparisons throughout: the contract is bit identity,
  // not tolerance.
  EXPECT_EQ(a.gesture_start_s, b.gesture_start_s);
  EXPECT_EQ(a.gesture_end_s, b.gesture_end_s);
  EXPECT_EQ(a.standoff_m, b.standoff_m);
  EXPECT_EQ(a.scroll.has_value(), b.scroll.has_value());
  if (a.scroll && b.scroll) {
    EXPECT_EQ(a.scroll->direction, b.scroll->direction);
    EXPECT_EQ(a.scroll->displacement_m, b.scroll->displacement_m);
    EXPECT_EQ(a.scroll->mean_velocity_mps, b.scroll->mean_velocity_mps);
  }
  ASSERT_EQ(a.trace.channel_count(), b.trace.channel_count());
  for (std::size_t c = 0; c < a.trace.channel_count(); ++c) {
    const auto ca = a.trace.channel(c);
    const auto cb = b.trace.channel(c);
    ASSERT_EQ(ca.size(), cb.size()) << "channel " << c;
    EXPECT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin()))
        << "channel " << c;
  }
}

TEST(Determinism, DatasetIsBitIdenticalAcrossThreadCounts) {
  const auto config = small_protocol();
  const synth::Dataset serial = collect_with(1, config);
  for (std::size_t threads : {2u, 3u, 8u}) {
    const synth::Dataset parallel = collect_with(threads, config);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i)
      expect_samples_identical(serial.samples[i], parallel.samples[i], i);
  }
}

/// Synthetic three-class set: class-dependent means on the first three
/// features, noise on the rest. Pure Rng arithmetic — fully deterministic.
ml::SampleSet toy_classification_set(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  ml::SampleSet set;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 3);
    std::vector<double> x(8);
    for (std::size_t f = 0; f < x.size(); ++f) {
      const double mean = f < 3 && static_cast<int>(f) == label ? 2.5 : 0.0;
      x[f] = rng.normal(mean, 1.0);
    }
    set.features.push_back(std::move(x));
    set.labels.push_back(label);
  }
  return set;
}

TEST(Determinism, ForestFitIsBitIdenticalAcrossThreadCounts) {
  const ml::SampleSet data = toy_classification_set(150, 0xF0DE);
  ml::RandomForestConfig config;
  config.num_trees = 24;
  config.seed = 17;

  ml::RandomForest serial(config);
  {
    common::ScopedThreads scoped(1);
    serial.fit(data);
  }
  for (std::size_t threads : {2u, 4u, 7u}) {
    ml::RandomForest parallel(config);
    {
      common::ScopedThreads scoped(threads);
      parallel.fit(data);
    }
    // Importances: exact equality (the ordered-reduction guarantee).
    EXPECT_EQ(serial.feature_importances(),
              parallel.feature_importances())
        << threads << " threads";
    // Predictions and probabilities over the whole set.
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(serial.predict(data.features[i]),
                parallel.predict(data.features[i]));
      EXPECT_EQ(serial.predict_proba(data.features[i]),
                parallel.predict_proba(data.features[i]));
    }
    // Serialized forests must be byte-identical.
    std::ostringstream sa, sb;
    serial.save(sa);
    parallel.save(sb);
    EXPECT_EQ(sa.str(), sb.str()) << threads << " threads";
  }
}

TEST(Determinism, ForestImportancesPinnedForFixedSeed) {
  // Pins the importance vector for a fixed seed: any change to the
  // per-tree RNG streams, the bootstrap, or the reduction order shows up
  // here as a diff, not as a silent reproducibility break. Values are the
  // 1-thread reference; the assertion runs under a parallel pool.
  const ml::SampleSet data = toy_classification_set(120, 0xBEEF);
  ml::RandomForestConfig config;
  config.num_trees = 16;
  config.seed = 17;
  ml::RandomForest forest(config);
  {
    common::ScopedThreads scoped(4);
    forest.fit(data);
  }
  const std::vector<double> expected = {
      0.19634739853801103,  0.26860384064423543, 0.26489846968408598,
      0.063546858449280347, 0.052736782968217252, 0.070937209195563608,
      0.03257495865882621,  0.050354481861780126,
  };
  const auto& imp = forest.feature_importances();
  ASSERT_EQ(imp.size(), expected.size());
  double total = 0.0;
  for (std::size_t f = 0; f < imp.size(); ++f) {
    EXPECT_NEAR(imp[f], expected[f], 1e-12) << "feature " << f;
    total += imp[f];
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // The informative features (class-dependent means) must dominate.
  EXPECT_GT(imp[0] + imp[1] + imp[2], 0.5);
}

core::TrainerConfig small_trainer() {
  core::TrainerConfig config;
  config.users = 2;
  config.sessions = 1;
  config.repetitions = 3;
  config.non_gesture_repetitions = 3;
  config.seed = 11;
  return config;
}

void expect_events_identical(const std::vector<core::GestureEvent>& a,
                             const std::vector<core::GestureEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    SCOPED_TRACE("event " + std::to_string(e));
    EXPECT_EQ(a[e].type, b[e].type);
    EXPECT_EQ(a[e].time_s, b[e].time_s);
    EXPECT_EQ(a[e].gesture, b[e].gesture);
    EXPECT_EQ(a[e].segment_begin, b[e].segment_begin);
    EXPECT_EQ(a[e].segment_end, b[e].segment_end);
    EXPECT_EQ(a[e].scroll.has_value(), b[e].scroll.has_value());
    if (a[e].scroll && b[e].scroll) {
      EXPECT_EQ(a[e].scroll->direction, b[e].scroll->direction);
      EXPECT_EQ(a[e].scroll->velocity_mps, b[e].scroll->velocity_mps);
      EXPECT_EQ(a[e].scroll->duration_s, b[e].scroll->duration_s);
    }
  }
}

TEST(Determinism, BuildEngineIsBitIdenticalAcrossThreadCounts) {
  const core::TrainerConfig config = small_trainer();

  core::TrainingReport serial_report;
  std::shared_ptr<const core::ModelBundle> serial;
  {
    common::ScopedThreads scoped(1);
    serial = core::build_bundle(config, &serial_report);
  }

  // Probe recordings the engines must agree on, byte for byte.
  synth::CollectionConfig probe_config;
  probe_config.users = 1;
  probe_config.sessions = 1;
  probe_config.repetitions = 1;
  probe_config.kinds = {synth::MotionKind::kCircle,
                        synth::MotionKind::kScrollUp};
  probe_config.seed = 404;
  const synth::Dataset probes =
      synth::DatasetBuilder(probe_config).collect();

  for (std::size_t threads : {2u, 4u}) {
    core::TrainingReport report;
    std::shared_ptr<const core::ModelBundle> parallel;
    {
      common::ScopedThreads scoped(threads);
      parallel = core::build_bundle(config, &report);
    }
    EXPECT_EQ(serial_report.gesture_samples, report.gesture_samples);
    EXPECT_EQ(serial_report.non_gesture_samples,
              report.non_gesture_samples);
    // Feature selection is RF-importance driven: identical name lists in
    // identical order prove the fitted forests match.
    EXPECT_EQ(serial_report.selected_feature_names,
              report.selected_feature_names);
    EXPECT_EQ(serial->config().zebra.velocity_gain,
              parallel->config().zebra.velocity_gain);
    for (const auto& probe : probes.samples)
      expect_events_identical(serial->classify_recording(probe.trace),
                              parallel->classify_recording(probe.trace));
  }
}

TEST(Determinism, MultiSessionHostIsBitIdenticalAcrossThreadCounts) {
  // Eight concurrent streams over one shared bundle must emit the exact
  // same event sequence whether the host pumps them on 1 thread or 8:
  // each session is advanced by exactly one task per pump and drain()
  // orders events by (session, emission), so no schedule can reorder or
  // perturb anything.
  std::shared_ptr<const core::ModelBundle> bundle;
  {
    common::ScopedThreads scoped(1);
    bundle = core::build_bundle(small_trainer());
  }

  constexpr std::size_t kStreams = 8;
  std::vector<sensor::MultiChannelTrace> traces;
  const std::vector<synth::MotionKind> mix{
      synth::MotionKind::kCircle, synth::MotionKind::kScrollUp,
      synth::MotionKind::kClick, synth::MotionKind::kScrollDown};
  for (std::size_t s = 0; s < kStreams; ++s) {
    synth::CollectionConfig config;
    config.users = 1;
    config.seed = 900 + s;
    traces.push_back(
        synth::make_gesture_stream(config, mix, config.seed).trace);
  }

  const auto run_with = [&](std::size_t threads) {
    common::ScopedThreads scoped(threads);
    core::MultiSessionHost host(bundle, kStreams);
    return host.run_round_robin(traces, 53);
  };

  const auto serial = run_with(1);
  ASSERT_FALSE(serial.empty());
  for (std::size_t threads : {2u, 8u}) {
    const auto parallel = run_with(threads);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    std::vector<core::GestureEvent> a, b;
    for (std::size_t e = 0; e < serial.size(); ++e) {
      EXPECT_EQ(serial[e].session, parallel[e].session)
          << threads << " threads, event " << e;
      a.push_back(serial[e].event);
      b.push_back(parallel[e].event);
    }
    expect_events_identical(a, b);
  }
}

TEST(Determinism, FeatureSetIsThreadCountInvariant) {
  const auto config = small_protocol();
  const synth::Dataset data = synth::DatasetBuilder(config).collect();
  const core::DataProcessor processor;
  const features::FeatureBank bank;
  std::optional<ml::SampleSet> serial;
  {
    common::ScopedThreads scoped(1);
    serial.emplace(core::build_feature_set(data, processor, bank,
                                           core::LabelScheme::kAllEight,
                                           core::GroupScheme::kUser));
  }
  for (std::size_t threads : {3u, 6u}) {
    common::ScopedThreads scoped(threads);
    const ml::SampleSet parallel = core::build_feature_set(
        data, processor, bank, core::LabelScheme::kAllEight,
        core::GroupScheme::kUser);
    EXPECT_EQ(serial->features, parallel.features);
    EXPECT_EQ(serial->labels, parallel.labels);
    EXPECT_EQ(serial->groups, parallel.groups);
  }
}

}  // namespace
}  // namespace airfinger
