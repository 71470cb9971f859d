#include "core/trainer.hpp"

#include "common/error.hpp"
#include "common/parallel.hpp"
#include <cmath>

#include "core/training.hpp"
#include "core/zebra.hpp"

namespace airfinger::core {

std::shared_ptr<const ModelBundle> build_bundle_from(
    const AirFingerConfig& engine_config, const synth::Dataset& gestures,
    const synth::Dataset& non_gestures, TrainingReport* report) {
  AF_EXPECT(!gestures.samples.empty(), "gesture training set is empty");

  const DataProcessor processor(engine_config.processing);
  DetectRecognizer recognizer(engine_config.recognizer);
  const features::FeatureBank& bank = recognizer.bank();

  // Gesture recognizer: eight-class when hybrid routing needs the scroll
  // classes as a cross-check, six-class (the paper's detect-aimed problem)
  // otherwise.
  const LabelScheme scheme = engine_config.hybrid_routing
                                 ? LabelScheme::kAllEight
                                 : LabelScheme::kDetectSix;
  const ml::SampleSet detect_set =
      build_feature_set(gestures, processor, bank, scheme);
  AF_EXPECT(!detect_set.features.empty(),
            "no detect-aimed samples in the gesture training set");
  recognizer.fit(detect_set);

  // Interference filter: binary over gestures + non-gestures.
  std::optional<InterferenceFilter> filter;
  if (engine_config.interference_filtering) {
    AF_EXPECT(!non_gestures.samples.empty(),
              "interference filtering enabled but no non-gesture data");
    synth::Dataset combined;
    combined.samples = gestures.samples;
    combined.samples.insert(combined.samples.end(),
                            non_gestures.samples.begin(),
                            non_gestures.samples.end());
    const ml::SampleSet binary_set = build_feature_set(
        combined, processor, bank, LabelScheme::kGestureVsNonGesture);
    filter.emplace(bank, engine_config.interference);
    filter->fit(binary_set);
  }

  // Velocity calibration: ZEBRA's Δt (asymmetry transit time) tracks the
  // true scroll velocity up to a systematic gain; fit that gain on the
  // training scrolls (least squares through the origin) and bake it into
  // the engine, so reported velocities/displacements are in physical
  // units. The paper's Alg. 1 only claims proportionality ("v(Δt) = Δt");
  // this is the application-side mapping it defers.
  AirFingerConfig config = engine_config;
  {
    const ZebraTracker zebra(config.zebra);
    // Per-sample contributions are tracked in parallel (tracker and
    // processor are immutable), then the least-squares sums are reduced
    // serially in sample order — floating-point addition order is part of
    // the bit-identical determinism contract.
    struct Contribution {
      double num = 0.0;
      double den = 0.0;
    };
    std::vector<Contribution> contributions(gestures.samples.size());
    common::parallel_for(0, gestures.samples.size(), [&](std::size_t i) {
      const auto& sample = gestures.samples[i];
      if (!sample.scroll) return;
      const ProcessedTrace processed = processor.process(sample.trace);
      const double rate = sample.trace.sample_rate_hz();
      const dsp::Segment seg = DataProcessor::select_segment(
          processed,
          static_cast<std::size_t>(
              std::lround(sample.gesture_start_s * rate)),
          static_cast<std::size_t>(
              std::lround(sample.gesture_end_s * rate)));
      if (seg.length() < 8) return;
      const auto est = zebra.track(processed, seg);
      if (!est || est->used_experience_velocity) return;
      contributions[i] = {
          sample.scroll->mean_velocity_mps * est->velocity_mps,
          est->velocity_mps * est->velocity_mps};
    });
    double num = 0.0, den = 0.0;
    for (const auto& c : contributions) {
      num += c.num;
      den += c.den;
    }
    if (den > 0.0 && num > 0.0)
      config.zebra.velocity_gain = engine_config.zebra.velocity_gain *
                                   (num / den);
  }

  if (report) {
    report->gesture_samples = gestures.samples.size();
    report->non_gesture_samples = non_gestures.samples.size();
    report->selected_feature_names.clear();
    for (std::size_t idx : recognizer.selected_features())
      report->selected_feature_names.push_back(bank.names()[idx]);
  }
  return ModelBundle::create(config, std::move(recognizer),
                             std::move(filter));
}

std::shared_ptr<const ModelBundle> build_bundle(const TrainerConfig& config,
                                                TrainingReport* report) {
  synth::CollectionConfig gesture_config;
  gesture_config.users = config.users;
  gesture_config.sessions = config.sessions;
  gesture_config.repetitions = config.repetitions;
  gesture_config.seed = config.seed;
  const synth::Dataset gestures =
      synth::DatasetBuilder(gesture_config).collect();

  synth::CollectionConfig non_gesture_config = gesture_config;
  non_gesture_config.kinds = {synth::non_gestures().begin(),
                              synth::non_gestures().end()};
  non_gesture_config.repetitions = config.non_gesture_repetitions;
  non_gesture_config.seed = config.seed ^ 0xBADF00D;
  const synth::Dataset non =
      synth::DatasetBuilder(non_gesture_config).collect();

  return build_bundle_from(config.engine, gestures, non, report);
}

}  // namespace airfinger::core
