// af_collect — synthesize a gesture corpus and export it to CSV.
//
//   af_collect --users 10 --sessions 5 --reps 25 --out corpus.csv
//
// The exported corpus freezes one realization of the collection protocol
// (Sec. V-B) so training and evaluation can run on identical data across
// machines, or be inspected in pandas/R.
#include <iostream>

#include "common/cli.hpp"
#include "synth/io.hpp"

using namespace airfinger;

static int program(int argc, char** argv) {
  common::Cli cli("af_collect", "synthesize and export a gesture corpus");
  cli.add_flag("users", "4", "synthetic volunteers");
  cli.add_flag("sessions", "2", "sessions per volunteer");
  cli.add_flag("reps", "5", "repetitions per gesture per session");
  cli.add_flag("seed", "7", "master random seed");
  cli.add_flag("non_gestures", "false",
               "also record scratch/extend/reposition motions");
  cli.add_flag("out", "corpus.csv", "output CSV path");
  if (!cli.parse(argc, argv)) return 0;

  synth::CollectionConfig config;
  config.users = static_cast<int>(cli.get_int("users"));
  config.sessions = static_cast<int>(cli.get_int("sessions"));
  config.repetitions = static_cast<int>(cli.get_int("reps"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (cli.get_bool("non_gestures"))
    config.kinds.insert(config.kinds.end(), synth::non_gestures().begin(),
                        synth::non_gestures().end());

  std::cout << "collecting " << config.users << " users × "
            << config.sessions << " sessions × " << config.kinds.size()
            << " kinds × " << config.repetitions << " repetitions...\n";
  const auto dataset = synth::DatasetBuilder(config).collect();
  synth::save_dataset_csv(dataset, cli.get("out"));
  std::cout << "wrote " << dataset.size() << " samples to " << cli.get("out")
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
