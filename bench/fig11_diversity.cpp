// Fig. 11 — impact of individual diversity: leave-one-user-out evaluation
// of the six detect-aimed gestures.
//
// Paper: training on 9 users, testing on the held-out one, averaged over
// all 10 combinations gives 83.61% — noticeably below the same-user 98.44%
// of Fig. 10, while remaining usable without per-user calibration. The
// reproduction target is exactly that ordering and a comparable gap.
#include <iostream>

#include "common/csv.hpp"
#include "support.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_fig11_diversity",
      "Fig. 11: leave-one-user-out (individual diversity)");
  if (!args) return 0;

  const auto data = synth::DatasetBuilder(bench::protocol(*args)).collect();
  const auto set = bench::featurize(data, core::LabelScheme::kDetectSix,
                                    core::GroupScheme::kUser);
  const auto splits = ml::leave_one_group_out(set);
  std::cout << "evaluating " << splits.size()
            << " leave-one-user-out combinations...\n";

  ml::ConfusionMatrix total(core::class_count(core::LabelScheme::kDetectSix),
                            core::class_names(core::LabelScheme::kDetectSix));
  common::Table per_user({"held-out user", "accuracy", "recall",
                          "precision"});
  common::CsvWriter csv("fig11_per_user.csv",
                        {"user", "accuracy", "recall", "precision"});
  int user = 0;
  for (const auto& split : splits) {
    core::DetectRecognizer recognizer;
    const auto cm = core::evaluate_split(
        recognizer, set, split,
        core::class_count(core::LabelScheme::kDetectSix));
    per_user.add_row({"user " + std::to_string(user),
                      common::Table::pct(cm.accuracy()),
                      common::Table::pct(cm.macro_recall()),
                      common::Table::pct(cm.macro_precision())});
    csv.write_row({std::to_string(user),
                   common::Table::num(cm.accuracy(), 4),
                   common::Table::num(cm.macro_recall(), 4),
                   common::Table::num(cm.macro_precision(), 4)});
    total.merge(cm);
    ++user;
  }

  bench::print_summary("Fig. 11 — individual diversity (LOUO)", total,
                       0.8361);
  per_user.print(std::cout);
  std::cout << "Paper: 83.61% average; 80% of users above 80% accuracy; "
               "average recall 87.44% / precision 84.69%.\nShape check: "
               "markedly below the Fig. 10 same-user result, yet far above "
               "chance — pre-training without per-user calibration "
               "remains viable.\nWrote fig11_per_user.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
