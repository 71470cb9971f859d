// Fig. 14 — impact of unintentional motions: the gesture / non-gesture
// interference filter (Sec. IV-F) under the paper's protocol (6 volunteers,
// 2 sessions, 25 gestures + 25 non-gestures each, 3-fold CV).
//
// Paper: average accuracy 94.83%, recall 94.83%, precision 94.88%.
#include <iostream>

#include "common/csv.hpp"
#include "core/interference_filter.hpp"
#include "support.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_fig14_unintentional",
      "Fig. 14: gesture vs unintentional-motion filtering (3-fold CV)");
  if (!args) return 0;

  // The paper's protocol: 6 volunteers × 2 sessions, equal numbers of
  // designed gestures and non-gestures.
  synth::CollectionConfig config = bench::protocol(*args);
  config.users = 6;
  config.sessions = 2;
  config.kinds.insert(config.kinds.end(), synth::non_gestures().begin(),
                      synth::non_gestures().end());
  const auto data = synth::DatasetBuilder(config).collect();
  const auto set =
      bench::featurize(data, core::LabelScheme::kGestureVsNonGesture);
  std::cout << "binary set: " << set.size() << " samples\n";

  common::Rng rng(args->seed ^ 0x14);
  const auto splits = ml::stratified_kfold(set, 3, rng);

  ml::ConfusionMatrix total(2, {"non-gesture", "gesture"});
  const features::FeatureBank bank;
  for (const auto& split : splits) {
    core::InterferenceFilter filter(bank);
    filter.fit(set.subset(split.train));
    for (std::size_t i : split.test)
      total.add(set.labels[i],
                filter.is_gesture(set.features[i]) ? 1 : 0);
  }

  bench::print_summary("Fig. 14 — unintentional motions", total, 0.9483);
  bench::print_comparison("gesture recall", 0.9483, total.recall(1));
  bench::print_comparison("gesture precision", 0.9488, total.precision(1));

  // Which 9 features the RF importance feedback selected (the paper's
  // Table I bold subset analogue).
  core::InterferenceFilter full(bank);
  full.fit(set);
  std::cout << "  selected filter features:";
  for (std::size_t idx : full.feature_indices())
    std::cout << " " << bank.names()[idx];
  std::cout << "\n";

  common::CsvWriter csv("fig14_confusion.csv",
                        {"truth", "predicted", "rate"});
  const char* names[] = {"non-gesture", "gesture"};
  for (int t = 0; t < 2; ++t)
    for (int p = 0; p < 2; ++p)
      csv.write_row({names[t], names[p],
                     common::Table::num(total.rate(t, p), 4)});
  std::cout << "Wrote fig14_confusion.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
