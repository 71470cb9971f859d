#include "support.hpp"

#include <algorithm>
#include <iomanip>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace airfinger::bench {

std::optional<BenchArgs> parse_args(int argc, const char* const* argv,
                                    const std::string& name,
                                    const std::string& description,
                                    common::Cli* extra) {
  common::Cli own(name, description);
  common::Cli& cli = extra ? *extra : own;
  cli.add_flag("seed", "7", "master random seed");
  cli.add_flag("users", "10", "synthetic volunteers (paper: 10)");
  cli.add_flag("sessions", "5", "sessions per volunteer (paper: 5)");
  cli.add_flag("reps", "8",
               "repetitions per gesture per session (paper: 25)");
  if (!cli.parse(argc, argv)) return std::nullopt;
  BenchArgs args;
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  args.users = static_cast<int>(cli.get_int("users"));
  args.sessions = static_cast<int>(cli.get_int("sessions"));
  args.reps = static_cast<int>(cli.get_int("reps"));
  return args;
}

synth::CollectionConfig protocol(const BenchArgs& args) {
  synth::CollectionConfig config;
  config.users = args.users;
  config.sessions = args.sessions;
  config.repetitions = args.reps;
  config.seed = args.seed;
  return config;
}

std::shared_ptr<const core::ModelBundle> train_bundle(
    const BenchArgs& args, core::TrainingReport* report) {
  core::TrainerConfig config;
  config.seed = args.seed;
  return core::build_bundle(config, report);
}

ml::SampleSet featurize(const synth::Dataset& data,
                        core::LabelScheme scheme,
                        core::GroupScheme groups) {
  const core::DataProcessor processor;
  const features::FeatureBank bank;
  return core::build_feature_set(data, processor, bank, scheme, groups);
}

ml::ConfusionMatrix cross_validate(const ml::SampleSet& set,
                                   const std::vector<ml::Split>& splits,
                                   core::LabelScheme scheme,
                                   bool verbose) {
  ml::ConfusionMatrix total(core::class_count(scheme),
                            core::class_names(scheme));
  // Folds are independent (each trains its own recognizer on the shared
  // read-only set), so they run in parallel; merging and per-fold printing
  // stay in fold order so output and counts are thread-count invariant.
  std::vector<std::optional<ml::ConfusionMatrix>> folds(splits.size());
  common::parallel_for(0, splits.size(), [&](std::size_t f) {
    core::DetectRecognizer recognizer;
    folds[f] = core::evaluate_split(recognizer, set, splits[f],
                                    core::class_count(scheme),
                                    core::class_names(scheme));
  });
  for (std::size_t f = 0; f < folds.size(); ++f) {
    if (verbose)
      std::cout << "  fold " << f + 1 << ": accuracy "
                << common::Table::pct(folds[f]->accuracy()) << "\n";
    total.merge(*folds[f]);
  }
  return total;
}

void print_summary(const std::string& experiment,
                   const ml::ConfusionMatrix& cm, double paper_accuracy) {
  common::print_banner(std::cout, experiment);
  std::cout << cm.to_string();
  common::Table table({"metric", "paper", "measured"});
  table.add_row({"accuracy", common::Table::pct(paper_accuracy),
                 common::Table::pct(cm.accuracy())});
  table.add_row({"macro recall", "-", common::Table::pct(cm.macro_recall())});
  table.add_row(
      {"macro precision", "-", common::Table::pct(cm.macro_precision())});
  table.print(std::cout);
}

void print_comparison(const std::string& metric, double paper,
                      double measured) {
  std::cout << std::fixed << std::setprecision(2) << "  " << metric
            << ": paper " << paper * 100.0 << "%  measured "
            << measured * 100.0 << "%\n";
}

void feed_pooled(core::MultiSessionHost& host,
                 const std::vector<sensor::MultiChannelTrace>& traces,
                 std::size_t sessions, std::size_t frames_per_stream,
                 std::size_t burst) {
  AF_EXPECT(!traces.empty(), "feed_pooled needs at least one trace");
  AF_EXPECT(burst >= 1, "feed_pooled burst must be >= 1");
  const std::size_t channels = traces.front().channel_count();
  const auto feed_lanes = [&](std::size_t first, std::size_t stride) {
    std::vector<double> frame(channels);
    for (std::size_t offset = 0; offset < frames_per_stream;
         offset += burst) {
      for (std::size_t lane = first; lane < sessions; lane += stride) {
        const auto& trace = traces[lane % traces.size()];
        const std::size_t limit = std::min(
            {offset + burst, frames_per_stream, trace.sample_count()});
        for (std::size_t f = offset; f < limit; ++f) {
          for (std::size_t c = 0; c < channels; ++c)
            frame[c] = trace.channel(c)[f];
          host.feed(lane, frame);
        }
      }
    }
  };
  const std::size_t shards = host.shard_count();
  if (shards < 2) {  // inline mode: single feeder only (drains on the caller)
    feed_lanes(0, 1);
    return;
  }
  std::vector<std::thread> feeders;
  feeders.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    feeders.emplace_back(feed_lanes, s, shards);
  for (auto& t : feeders) t.join();
}

}  // namespace airfinger::bench
