// Fig. 8 / Sec. V-D — accuracy of different sensing distances.
//
// The paper sweeps the finger-to-sensor distance from 0.5 cm to 12 cm in
// 0.5 cm steps with 3 volunteers and finds >90% accuracy within 0.5–6 cm.
// Our 10-bit acquisition chain has a smaller optical budget, so the working
// envelope is narrower; the *shape* — a plateau of high accuracy at close
// range followed by decay with distance — is the reproduction target.
#include <iostream>

#include "common/csv.hpp"
#include "support.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  common::Cli cli("bench_fig08_distance",
                  "Fig. 8: accuracy vs sensing distance");
  cli.add_flag("step_cm", "1.0", "distance increment (paper: 0.5)");
  cli.add_flag("max_cm", "12.0", "maximum distance (paper: 12)");
  const auto args = bench::parse_args(argc, argv, "", "", &cli);
  if (!args) return 0;

  const double step = cli.get_double("step_cm");
  const double max_cm = cli.get_double("max_cm");

  // Train across a spread of distances (the paper's volunteers performed
  // at whatever standoff they liked within the working range), then test
  // at each distance.
  synth::Dataset train_data;
  for (double train_cm : {1.5, 2.5, 3.5, 5.0}) {
    synth::CollectionConfig train_config = bench::protocol(*args);
    train_config.users = 3;  // the paper uses 3 volunteers here
    train_config.sessions = 2;
    train_config.standoff_override_m = train_cm / 100.0;
    train_config.seed =
        args->seed ^ static_cast<std::uint64_t>(train_cm * 10);
    const auto part = synth::DatasetBuilder(train_config).collect();
    train_data.samples.insert(train_data.samples.end(),
                              part.samples.begin(), part.samples.end());
  }
  const auto train_set =
      bench::featurize(train_data, core::LabelScheme::kAllEight);
  core::DetectRecognizer recognizer;
  recognizer.fit(train_set);

  common::print_banner(std::cout, "Fig. 8 — accuracy vs sensing distance");
  common::Table table({"distance (cm)", "accuracy", "samples"});
  common::CsvWriter csv("fig08_distance.csv",
                        {"distance_cm", "accuracy", "samples"});
  const core::DataProcessor processor;
  const features::FeatureBank bank;

  for (double cm = 0.5; cm <= max_cm + 1e-9; cm += step) {
    synth::CollectionConfig test_config = bench::protocol(*args);
    test_config.users = 3;
    test_config.sessions = 1;
    test_config.repetitions = std::max(2, args->reps / 2);
    test_config.seed = args->seed ^ 0xD157 ^
                       static_cast<std::uint64_t>(cm * 100);
    test_config.standoff_override_m = cm / 100.0;
    const auto test_data = synth::DatasetBuilder(test_config).collect();
    const auto test_set = core::build_feature_set(
        test_data, processor, bank, core::LabelScheme::kAllEight);

    int correct = 0;
    for (std::size_t i = 0; i < test_set.size(); ++i)
      if (recognizer.predict(test_set.features[i]) == test_set.labels[i])
        ++correct;
    // Samples whose segment could not even be extracted count as errors:
    // total = all recorded samples.
    const double accuracy =
        test_data.size() > 0
            ? static_cast<double>(correct) /
                  static_cast<double>(test_data.size())
            : 0.0;
    table.add_row({common::Table::num(cm, 1), common::Table::pct(accuracy),
                   std::to_string(test_data.size())});
    csv.write_row({common::Table::num(cm, 1),
                   common::Table::num(accuracy, 4),
                   std::to_string(test_data.size())});
  }
  table.print(std::cout);
  std::cout << "\nPaper: accuracy above 90% within 0.5–6 cm, degrading "
               "beyond. Our optical budget is smaller (10-bit ADC, "
               "auto-gain), so expect the same plateau-then-decay shape "
               "with an earlier knee.\nWrote fig08_distance.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
