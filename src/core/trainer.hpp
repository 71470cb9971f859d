// One-call training flow: synthesize (or accept) datasets, fit the detect
// recognizer and the interference filter, and assemble the frozen
// ModelBundle. This is the entry point the examples use; serve the bundle
// with `core::Session session(core::build_bundle(...))`.
#pragma once

#include "core/model_bundle.hpp"
#include "synth/dataset.hpp"

namespace airfinger::core {

/// Training-set sizing for build_bundle.
struct TrainerConfig {
  AirFingerConfig engine{};
  /// Gesture training protocol (defaults: a reduced version of Sec. V-B
  /// sized for interactive use; raise for paper-scale training).
  int users = 4;
  int sessions = 2;
  int repetitions = 8;
  /// Non-gesture repetitions per user/session for the filter.
  int non_gesture_repetitions = 8;
  std::uint64_t seed = 11;
};

/// Result of a training run.
struct TrainingReport {
  std::size_t gesture_samples = 0;
  std::size_t non_gesture_samples = 0;
  std::vector<std::string> selected_feature_names;
};

/// Trains both models on synthesized data and returns the frozen bundle
/// (the deployable artifact: save with ModelBundle::save_file, share
/// across any number of Sessions).
std::shared_ptr<const ModelBundle> build_bundle(
    const TrainerConfig& config, TrainingReport* report = nullptr);

/// Trains both models from externally built datasets (e.g. in benches that
/// need custom collection protocols). `gestures` must contain the designed
/// gesture kinds; `non_gestures` the unintentional-motion kinds.
std::shared_ptr<const ModelBundle> build_bundle_from(
    const AirFingerConfig& engine_config, const synth::Dataset& gestures,
    const synth::Dataset& non_gestures, TrainingReport* report = nullptr);

}  // namespace airfinger::core
