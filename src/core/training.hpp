// Dataset → feature-matrix conversion and evaluation harness helpers shared
// by the benches, examples, and integration tests.
#pragma once

#include <functional>
#include <string>

#include "core/ascending.hpp"
#include "core/data_processor.hpp"
#include "core/detect_recognizer.hpp"
#include "core/zebra.hpp"
#include "features/bank.hpp"
#include "ml/classifier.hpp"
#include "ml/metrics.hpp"
#include "synth/dataset.hpp"

namespace airfinger::core {

/// How raw motion kinds map to training labels.
enum class LabelScheme {
  kDetectSix,          ///< circle..double click → 0..5; others skipped.
  kAllEight,           ///< the eight designed gestures → 0..7.
  kGestureVsNonGesture ///< designed gesture → 1, non-gesture → 0.
};

/// Which sample attribute becomes the group key (for leave-one-group-out).
enum class GroupScheme { kNone, kUser, kSession };

/// Label of a motion kind under a scheme, or -1 when excluded.
int label_for(synth::MotionKind kind, LabelScheme scheme);

/// Display names of the classes of a scheme, in label order.
std::vector<std::string> class_names(LabelScheme scheme);

/// Number of classes of a scheme.
int class_count(LabelScheme scheme);

/// Runs every sample through the data processor, extracts the full feature
/// bank from the segment best matching the ground-truth window, and builds
/// a SampleSet. Samples excluded by the scheme are skipped.
ml::SampleSet build_feature_set(const synth::Dataset& dataset,
                                const DataProcessor& processor,
                                const features::FeatureBank& bank,
                                LabelScheme scheme,
                                GroupScheme groups = GroupScheme::kNone);

/// Raw-series variant for sequence classifiers (DTW): the segmented summed
/// ΔRSS² of each sample plus its label under the scheme.
struct SeriesSet {
  std::vector<std::vector<double>> series;
  std::vector<int> labels;
};
SeriesSet build_series_set(const synth::Dataset& dataset,
                           const DataProcessor& processor,
                           LabelScheme scheme);

/// Trains `classifier` on the train rows of `split` and evaluates on the
/// test rows, returning the confusion matrix.
ml::ConfusionMatrix evaluate_split(ml::Classifier& classifier,
                                   const ml::SampleSet& data,
                                   const ml::Split& split, int num_classes,
                                   std::vector<std::string> names = {});

/// Same but for a DetectRecognizer (which has its own selection stage).
ml::ConfusionMatrix evaluate_split(DetectRecognizer& recognizer,
                                   const ml::SampleSet& data,
                                   const ml::Split& split, int num_classes,
                                   std::vector<std::string> names = {});

/// End-to-end verdict of the streaming engine on one recorded sample.
struct PipelineVerdict {
  bool detected = false;          ///< Any gesture/scroll event was emitted.
  bool rejected = false;          ///< The interference filter rejected it.
  /// Predicted designed gesture (scrolls map to kScrollUp/Down via the
  /// estimated direction). Unset when nothing was detected or rejected.
  std::optional<synth::MotionKind> predicted;
  std::optional<ScrollEstimate> scroll;
};

/// Classifies one recorded sample offline (ModelBundle::classify_recording)
/// and summarizes the event closest to the ground-truth gesture window.
PipelineVerdict run_sample(const class ModelBundle& bundle,
                           const synth::GestureSample& sample);

}  // namespace airfinger::core
