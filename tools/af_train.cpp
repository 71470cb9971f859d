// af_train — train the airFinger models from a corpus and save them.
//
//   af_train --corpus corpus.csv --bundle models.af
//
// The output is the single-file `afbundle` artifact (config +
// recognizer + optional interference filter, see core/model_bundle.hpp).
//
// The corpus must contain the designed gestures; the interference filter
// additionally needs non-gesture samples (af_collect --non_gestures).
// Exits non-zero on any parse/validation failure.
#include <iostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/model_bundle.hpp"
#include "core/training.hpp"
#include "synth/io.hpp"

using namespace airfinger;

namespace {

int run(int argc, char** argv) {
  common::Cli cli("af_train", "train and save airFinger models");
  cli.add_flag("corpus", "corpus.csv", "input corpus (af_collect output)");
  cli.add_flag("bundle", "models.af", "output single-file model bundle");
  if (!cli.parse(argc, argv)) return 0;

  std::cout << "loading " << cli.get("corpus") << "...\n";
  const auto dataset = synth::load_dataset_csv(cli.get("corpus"));
  std::cout << "  " << dataset.size() << " samples\n";

  const core::DataProcessor processor;
  core::DetectRecognizer recognizer;
  const auto set = core::build_feature_set(
      dataset, processor, recognizer.bank(), core::LabelScheme::kAllEight);
  std::cout << "training recognizer on " << set.size() << " samples × "
            << set.feature_count() << " features...\n";
  recognizer.fit(set);

  // Interference filter: only trainable when the corpus carries both
  // designed gestures and non-gestures.
  std::optional<core::InterferenceFilter> filter;
  const auto binary = core::build_feature_set(
      dataset, processor, recognizer.bank(),
      core::LabelScheme::kGestureVsNonGesture);
  bool has_both = false;
  for (std::size_t i = 1; i < binary.labels.size(); ++i)
    if (binary.labels[i] != binary.labels[0]) has_both = true;
  if (has_both) {
    filter.emplace(recognizer.bank());
    filter->fit(binary);
  } else {
    std::cout << "  corpus has no non-gesture samples — interference "
                 "filtering disabled (re-collect with --non_gestures)\n";
  }

  core::AirFingerConfig config;
  config.interference_filtering = filter.has_value();
  const auto bundle = core::ModelBundle::create(config, std::move(recognizer),
                                                std::move(filter));
  bundle->save_file(cli.get("bundle"));
  std::cout << "  wrote " << cli.get("bundle") << " (afbundle v"
            << core::ModelBundle::kFormatVersion << ", filter "
            << (bundle->filter() ? "included" : "absent") << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return airfinger::common::run_main(argc, argv, run);
}
