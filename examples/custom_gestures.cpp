// Custom gestures: the paper's Sec. VI future-work item — user-defined
// gesture vocabularies. The recognition stack is vocabulary-agnostic: this
// example trains a recognizer on a custom 4-gesture set (two of the paper's
// gestures plus two motions the stock vocabulary treats as noise) from a
// handful of user demonstrations, then evaluates it on fresh repetitions.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/custom_gestures
#include <iostream>
#include <map>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/detect_recognizer.hpp"
#include "core/training.hpp"
#include "synth/dataset.hpp"

using namespace airfinger;

namespace {

/// The user's personal vocabulary: any motion kinds, any names.
struct CustomGesture {
  synth::MotionKind kind;
  std::string name;
};

/// Featurizes a dataset against an arbitrary vocabulary (label = index in
/// the vocabulary). This is all it takes to support self-defined gestures:
/// the feature bank and classifier never assume the stock gesture set.
ml::SampleSet featurize_custom(const synth::Dataset& data,
                               const std::vector<CustomGesture>& vocab) {
  const core::DataProcessor processor;
  const features::FeatureBank bank;
  std::map<synth::MotionKind, int> label_of;
  for (std::size_t i = 0; i < vocab.size(); ++i)
    label_of[vocab[i].kind] = static_cast<int>(i);

  ml::SampleSet set;
  for (const auto& sample : data.samples) {
    const auto it = label_of.find(sample.kind);
    if (it == label_of.end()) continue;
    const auto processed = processor.process(sample.trace);
    const double rate = sample.trace.sample_rate_hz();
    const auto seg = core::DataProcessor::select_segment(
        processed,
        static_cast<std::size_t>(sample.gesture_start_s * rate),
        static_cast<std::size_t>(sample.gesture_end_s * rate));
    if (seg.length() < 4) continue;
    const auto padded = core::pad_segment(
        seg, processed.energy.size(), processor.config().feature_pad_s,
        rate);
    std::vector<std::span<const double>> windows;
    for (const auto& ch : processed.delta_rss2)
      windows.emplace_back(ch.data() + padded.begin, padded.length());
    set.features.push_back(bank.extract(
        std::span<const std::span<const double>>(windows)));
    set.labels.push_back(it->second);
  }
  return set;
}

}  // namespace

static int program(int argc, char** argv) {
  common::Cli cli("custom_gestures",
                  "train a user-defined gesture vocabulary");
  cli.add_flag("seed", "808", "random seed");
  cli.add_flag("demos", "10", "demonstrations per custom gesture");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  // The user's vocabulary: "poke" and "spiral" reuse stock kinematics;
  // "lift-off" and "swipe-across" repurpose motions the stock vocabulary
  // rejects as unintentional.
  const std::vector<CustomGesture> vocab{
      {synth::MotionKind::kClick, "poke"},
      {synth::MotionKind::kDoubleCircle, "spiral"},
      {synth::MotionKind::kExtend, "lift-off"},
      {synth::MotionKind::kReposition, "swipe-across"},
  };

  std::cout << "Recording " << cli.get_int("demos")
            << " demonstrations of each custom gesture...\n";
  synth::CollectionConfig config;
  config.users = 1;  // personal vocabulary: one user
  config.sessions = 3;
  config.repetitions = static_cast<int>(cli.get_int("demos"));
  config.kinds.clear();
  for (const auto& g : vocab) config.kinds.push_back(g.kind);
  config.seed = seed;
  const auto all = synth::DatasetBuilder(config).collect();
  // Demonstrations from the first two sessions train the vocabulary; the
  // third (a later day) evaluates it.
  synth::Dataset train_data, test_data;
  for (const auto& sample : all.samples)
    (sample.session_id < 2 ? train_data : test_data)
        .samples.push_back(sample);
  const auto train_set = featurize_custom(train_data, vocab);

  core::DetectRecognizerConfig rc;
  rc.selected_features = 20;  // small vocabularies need fewer features
  core::DetectRecognizer recognizer(rc);
  recognizer.fit(train_set);
  std::cout << "  trained on " << train_set.size() << " demonstrations ("
            << recognizer.selected_features().size()
            << " features selected)\n";

  // Evaluate on the held-out later session of the same user.
  const auto test_set = featurize_custom(test_data, vocab);

  std::vector<std::string> names;
  for (const auto& g : vocab) names.push_back(g.name);
  ml::ConfusionMatrix cm(static_cast<int>(vocab.size()), names);
  for (std::size_t i = 0; i < test_set.size(); ++i)
    cm.add(test_set.labels[i], recognizer.predict(test_set.features[i]));

  std::cout << "\nCustom vocabulary on a fresh session:\n" << cm.to_string()
            << "  accuracy: " << common::Table::pct(cm.accuracy()) << "\n"
            << "\nThe same pipeline (SBC → DT → feature bank → RF with "
               "importance selection) supports any\nvocabulary — the "
               "paper's personalization story needs no new machinery.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
