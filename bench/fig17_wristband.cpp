// Fig. 17 — demo within a wristband: recognition while sitting, standing,
// and walking (body motion moves the whole hand relative to the board).
//
// Paper: 6 volunteers × 3 conditions × 25 repetitions; averaged accuracy
// 97.17% (recall 97.17%, precision 97.46%) — walking costs a little, the
// wristband deployment remains practical.
#include <iostream>

#include "common/csv.hpp"
#include "support.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_fig17_wristband",
      "Fig. 17: wristband conditions (sitting / standing / walking)");
  if (!args) return 0;

  const synth::Activity conditions[] = {synth::Activity::kSitting,
                                        synth::Activity::kStanding,
                                        synth::Activity::kWalking};

  common::Table table({"condition", "accuracy", "recall", "precision"});
  common::CsvWriter csv("fig17_wristband.csv", {"condition", "accuracy"});
  ml::ConfusionMatrix total(8,
                            core::class_names(core::LabelScheme::kAllEight));

  for (auto activity : conditions) {
    synth::CollectionConfig config = bench::protocol(*args);
    config.users = 6;
    config.sessions = 2;
    config.activity = activity;
    config.seed = args->seed ^ (static_cast<std::uint64_t>(activity) << 8);
    const auto data = synth::DatasetBuilder(config).collect();
    const auto set = bench::featurize(data, core::LabelScheme::kAllEight);
    common::Rng rng(args->seed ^ 0x3717);
    const auto splits = ml::stratified_kfold(set, 3, rng);
    const auto cm = bench::cross_validate(set, splits,
                                          core::LabelScheme::kAllEight,
                                          /*verbose=*/false);
    table.add_row({std::string(synth::activity_name(activity)),
                   common::Table::pct(cm.accuracy()),
                   common::Table::pct(cm.macro_recall()),
                   common::Table::pct(cm.macro_precision())});
    csv.write_row({std::string(synth::activity_name(activity)),
                   common::Table::num(cm.accuracy(), 4)});
    total.merge(cm);
  }

  common::print_banner(std::cout, "Fig. 17 — wristband conditions");
  table.print(std::cout);
  bench::print_comparison("averaged accuracy across conditions", 0.9717,
                          total.accuracy());
  std::cout << "Paper: 97.17% averaged; shape check: sitting ≥ standing > "
               "walking, with walking still usable.\nWrote "
               "fig17_wristband.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
