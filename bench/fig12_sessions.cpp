// Fig. 12 — impact of gesture inconsistency: leave-one-session-out
// evaluation of the six detect-aimed gestures.
//
// Paper: training on 4 sessions of each user and testing on the remaining
// one gives 97.07% — only slightly below the same-session 98.44%, showing
// that a pre-trained classifier survives day-to-day variation. The
// characteristic failure the paper reports (slow double rubs splitting into
// two rubs) is also counted here.
#include <iostream>

#include "common/csv.hpp"
#include "support.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_fig12_sessions",
      "Fig. 12: leave-one-session-out (gesture inconsistency)");
  if (!args) return 0;

  const auto data = synth::DatasetBuilder(bench::protocol(*args)).collect();
  const auto set = bench::featurize(data, core::LabelScheme::kDetectSix,
                                    core::GroupScheme::kSession);
  const auto splits = ml::leave_one_group_out(set);
  std::cout << "evaluating " << splits.size()
            << " leave-one-session-out combinations...\n";

  ml::ConfusionMatrix total(core::class_count(core::LabelScheme::kDetectSix),
                            core::class_names(core::LabelScheme::kDetectSix));
  common::CsvWriter csv("fig12_per_session.csv", {"session", "accuracy"});
  int session = 0;
  for (const auto& split : splits) {
    core::DetectRecognizer recognizer;
    const auto cm = core::evaluate_split(
        recognizer, set, split,
        core::class_count(core::LabelScheme::kDetectSix));
    std::cout << "  held-out session " << session << ": "
              << common::Table::pct(cm.accuracy()) << "\n";
    csv.write_row({std::to_string(session),
                   common::Table::num(cm.accuracy(), 4)});
    total.merge(cm);
    ++session;
  }

  bench::print_summary("Fig. 12 — gesture inconsistency (LOSO)", total,
                       0.9707);
  // The paper's characteristic confusion: double rub recognized as rub.
  const auto names = core::class_names(core::LabelScheme::kDetectSix);
  const int rub = 2, double_rub = 3;
  std::cout << "  double rub → rub confusion: "
            << common::Table::pct(total.rate(double_rub, rub))
            << " (the paper's slow-double-rub failure mode)\n"
            << "Paper: 97.07% average; recall 91.28% / precision 91.11%; "
               "shape check: between the LOUO result (Fig. 11) and the "
               "same-session result (Fig. 10).\nWrote "
               "fig12_per_session.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
