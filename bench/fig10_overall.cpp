// Fig. 10 — overall performance of the six detect-aimed gestures among 10
// volunteers: 5-fold cross-validation, confusion matrix, per-class
// accuracy/recall/precision.
//
// Paper: average accuracy 98.44%; every gesture's recall and precision
// above 90%.
#include <iostream>

#include "common/csv.hpp"
#include "support.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_fig10_overall",
      "Fig. 10: overall detect-aimed performance (5-fold CV)");
  if (!args) return 0;

  const auto data = synth::DatasetBuilder(bench::protocol(*args)).collect();
  const auto set = bench::featurize(data, core::LabelScheme::kDetectSix);
  std::cout << "feature set: " << set.size() << " samples × "
            << set.feature_count() << " features\n";

  common::Rng rng(args->seed ^ 0xF01D);
  const auto splits = ml::stratified_kfold(set, 5, rng);
  const auto cm =
      bench::cross_validate(set, splits, core::LabelScheme::kDetectSix);

  bench::print_summary("Fig. 10 — overall detect-aimed performance", cm,
                       0.9844);

  common::Table per_class({"gesture", "accuracy", "recall", "precision"});
  common::CsvWriter csv("fig10_per_class.csv",
                        {"gesture", "accuracy", "recall", "precision"});
  const auto names = core::class_names(core::LabelScheme::kDetectSix);
  for (int c = 0; c < cm.num_classes(); ++c) {
    per_class.add_row({names[static_cast<std::size_t>(c)],
                       common::Table::pct(cm.class_accuracy(c)),
                       common::Table::pct(cm.recall(c)),
                       common::Table::pct(cm.precision(c))});
    csv.write_row({names[static_cast<std::size_t>(c)],
                   common::Table::num(cm.class_accuracy(c), 4),
                   common::Table::num(cm.recall(c), 4),
                   common::Table::num(cm.precision(c), 4)});
  }
  per_class.print(std::cout);
  std::cout << "Paper: lowest recall 90.65%, lowest precision 92.13%.\n"
               "Wrote fig10_per_class.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
