// Ablation — outdoor operation (the paper's Sec. VI discussion): the
// photodiodes saturate under strong sunlight; frequency modulation with
// synchronous (lock-in) detection is the proposed remedy. This bench sweeps
// the ambient intensity from a dim interior to direct sun and compares the
// standard front end against the lock-in front end.
#include <iostream>

#include "common/csv.hpp"
#include "support.hpp"

using namespace airfinger;

namespace {

enum class FrontEnd { kFixedGain, kAutoGain, kLockIn };

double accuracy_at(double attenuation, FrontEnd mode,
                   const bench::BenchArgs& args) {
  synth::CollectionConfig config = bench::protocol(args);
  config.users = 3;
  config.sessions = 2;
  config.prototype.ambient.indoor_attenuation = attenuation;
  config.prototype.front_end.lock_in = mode == FrontEnd::kLockIn;
  if (mode == FrontEnd::kFixedGain) {
    // The paper's actual chain: gain chosen once, indoors.
    config.auto_gain = false;
    config.prototype.adc.gain = 75.0;
  }
  config.fixed_hour = 13.0;  // midday: the harshest ambient
  config.seed = args.seed ^ static_cast<std::uint64_t>(attenuation * 1e4) ^
                (static_cast<std::uint64_t>(mode) << 20);
  const auto data = synth::DatasetBuilder(config).collect();
  const auto set = bench::featurize(data, core::LabelScheme::kAllEight);
  if (set.size() < 40) return 0.0;  // segmentation collapsed entirely

  common::Rng rng(args.seed ^ 0xAB1A);
  const auto split = ml::stratified_split(set, 0.3, rng);
  core::DetectRecognizer recognizer;
  const auto cm = core::evaluate_split(recognizer, set, split, 8);
  // Unsegmentable samples count as errors against the recorded total.
  const double coverage =
      static_cast<double>(set.size()) / static_cast<double>(data.size());
  return cm.accuracy() * coverage +
         0.0 * (1.0 - coverage);  // missed samples recognize nothing
}

}  // namespace

static int program(int argc, char** argv) {
  const auto args = bench::parse_args(
      argc, argv, "bench_ablation_outdoor",
      "Sec. VI ablation: sunlight intensity vs accuracy, standard front "
      "end vs modulated-LED lock-in");
  if (!args) return 0;

  // Ambient share of the clear-sky NIR irradiance reaching the scene:
  // 0.015 ≈ interior, 0.1 ≈ bright window seat, 0.4 ≈ shade outdoors,
  // 1.0 ≈ direct sun.
  const double levels[] = {0.015, 0.05, 0.15, 0.40, 1.00};

  common::print_banner(std::cout,
                       "Ablation — outdoor ambient vs front end");
  common::Table table({"ambient share", "fixed gain (paper's chain)",
                       "auto-gain", "lock-in"});
  common::CsvWriter csv("ablation_outdoor.csv",
                        {"ambient_share", "fixed_gain", "auto_gain",
                         "lock_in"});
  for (double level : levels) {
    std::cout << "  evaluating ambient share " << level << "...\n";
    const double fixed = accuracy_at(level, FrontEnd::kFixedGain, *args);
    const double auto_gain = accuracy_at(level, FrontEnd::kAutoGain, *args);
    const double lock_in = accuracy_at(level, FrontEnd::kLockIn, *args);
    table.add_row({common::Table::num(level, 3),
                   common::Table::pct(fixed),
                   common::Table::pct(auto_gain),
                   common::Table::pct(lock_in)});
    csv.write_row({common::Table::num(level, 3),
                   common::Table::num(fixed, 4),
                   common::Table::num(auto_gain, 4),
                   common::Table::num(lock_in, 4)});
  }
  table.print(std::cout);
  std::cout << "Expected shape: the paper's fixed-gain chain saturates and "
               "collapses as sunlight grows (its\nSec. VI observation); an "
               "adjustable amplifier survives at reduced resolution; the "
               "modulated-LED\nlock-in front end is essentially flat — the "
               "hardening the paper proposes.\nWrote "
               "ablation_outdoor.csv.\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
