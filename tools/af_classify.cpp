// af_classify — classify a corpus with saved models and report accuracy.
//
//   af_classify --corpus test.csv --bundle models.af
//
// Reads the single-file `afbundle` artifact af_train writes. Exits
// non-zero on any parse/validation failure.
#include <iostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/model_bundle.hpp"
#include "core/training.hpp"
#include "synth/io.hpp"

using namespace airfinger;

namespace {

int run(int argc, char** argv) {
  common::Cli cli("af_classify",
                  "classify a corpus with saved models and report accuracy");
  cli.add_flag("corpus", "corpus.csv", "input corpus");
  cli.add_flag("bundle", "models.af", "single-file model bundle");
  if (!cli.parse(argc, argv)) return 0;

  const auto dataset = synth::load_dataset_csv(cli.get("corpus"));
  const auto bundle = core::ModelBundle::load_file(cli.get("bundle"));

  ml::ConfusionMatrix cm(synth::kGestureCount + 1, [] {
    std::vector<std::string> names =
        core::class_names(core::LabelScheme::kAllEight);
    names.push_back("(rejected/missed)");
    return names;
  }());
  const int rejected_class = synth::kGestureCount;
  for (const auto& s : dataset.samples) {
    if (!synth::is_gesture(s.kind)) continue;
    const auto v = core::run_sample(*bundle, s);
    const int predicted = (v.predicted && !v.rejected)
                              ? static_cast<int>(*v.predicted)
                              : rejected_class;
    cm.add(static_cast<int>(s.kind), predicted);
  }
  std::cout << cm.to_string() << "overall accuracy: "
            << common::Table::pct(cm.accuracy()) << " over " << cm.total()
            << " gesture samples\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return airfinger::common::run_main(argc, argv, run);
}
