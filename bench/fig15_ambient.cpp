// Fig. 15 — impact of environmental NIR changes: gestures performed at
// different times of day (8:00–20:00 every 3 hours).
//
// Paper: 2 volunteers, all gestures × 25 repetitions per time slot; average
// accuracy 92.97% (recall 93.8%, precision 95.02%) — ambient variation
// costs a few points relative to Fig. 10 but the system stays usable.
#include <iostream>

#include "common/csv.hpp"
#include "support.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_fig15_ambient",
      "Fig. 15: accuracy under environmental NIR changes (time of day)");
  if (!args) return 0;

  // Train on the standard mixed-hour protocol.
  synth::CollectionConfig train_config = bench::protocol(*args);
  train_config.users = 2;
  const auto train_data = synth::DatasetBuilder(train_config).collect();
  const auto train_set =
      bench::featurize(train_data, core::LabelScheme::kAllEight);
  core::DetectRecognizer recognizer;
  recognizer.fit(train_set);

  const std::vector<double> hours{8.0, 11.0, 14.0, 17.0, 20.0};
  common::Table table({"time of day", "accuracy", "samples"});
  common::CsvWriter csv("fig15_ambient.csv",
                        {"hour", "accuracy", "samples"});
  ml::ConfusionMatrix total(8, core::class_names(core::LabelScheme::kAllEight));

  const core::DataProcessor processor;
  const features::FeatureBank bank;
  for (double hour : hours) {
    synth::CollectionConfig test_config = bench::protocol(*args);
    test_config.users = 2;
    test_config.sessions = 1;
    // The paper evaluates the same two volunteers at each hour: keep the
    // training roster (same seed) so only the ambient changes.
    test_config.seed = args->seed;
    test_config.fixed_hour = hour;
    const auto test_data = synth::DatasetBuilder(test_config).collect();
    const auto test_set = core::build_feature_set(
        test_data, processor, bank, core::LabelScheme::kAllEight);

    ml::ConfusionMatrix cm(8);
    for (std::size_t i = 0; i < test_set.size(); ++i)
      cm.add(test_set.labels[i], recognizer.predict(test_set.features[i]));
    for (int t = 0; t < 8; ++t)
      for (int p = 0; p < 8; ++p)
        for (std::size_t k = 0; k < cm.count(t, p); ++k) total.add(t, p);

    table.add_row({common::Table::num(hour, 0) + ":00",
                   common::Table::pct(cm.accuracy()),
                   std::to_string(test_set.size())});
    csv.write_row({common::Table::num(hour, 0),
                   common::Table::num(cm.accuracy(), 4),
                   std::to_string(test_set.size())});
  }

  common::print_banner(std::cout, "Fig. 15 — environmental NIR changes");
  table.print(std::cout);
  bench::print_comparison("average accuracy across hours", 0.9297,
                          total.accuracy());
  std::cout << "Paper: 92.97% average; shape check: accuracy dips around "
               "midday (strongest ambient NIR) and stays usable at every "
               "hour.\nWrote fig15_ambient.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
