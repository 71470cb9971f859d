// af_inspect — show what a saved model artifact contains and learned.
//
//   af_inspect --model models.af
//   af_inspect --model models.af --stats --trace rec.aftrace
//
// Prints an `afbundle` artifact's version, configuration summary, and
// filter block, then the recognizer's selected features. Exits non-zero on
// any parse failure.
//
// With --stats, an `.aftrace` recording (sensor/trace_io.hpp) is replayed
// through one Session over the bundle under a deterministic TickClock
// (--tick-ns per clock read), then the session's metric registry and
// structured pipeline-event log are printed — the same numbers a serving
// host would export, reproducible byte-for-byte across runs (DESIGN.md
// §13). --format selects prometheus (default) or json for the metrics.
#include <algorithm>
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/model_bundle.hpp"
#include "core/session.hpp"
#include "obs/exposition.hpp"
#include "sensor/trace_io.hpp"

using namespace airfinger;

namespace {

void print_feature_table(const core::DetectRecognizer& rec) {
  // Importances of the selected columns, sorted descending.
  const auto& names = rec.bank().names();
  const auto& selected = rec.selected_features();
  const auto& importances = rec.final_importances();
  std::vector<std::size_t> order(selected.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return importances[a] > importances[b];
  });

  common::Table table({"rank", "feature", "importance"});
  for (std::size_t r = 0; r < order.size(); ++r)
    table.add_row({std::to_string(r + 1), names[selected[order[r]]],
                   common::Table::pct(importances[order[r]], 1)});
  std::cout << selected.size() << " selected features of "
            << rec.bank().feature_count() << " candidates\n";
  table.print(std::cout);
}

void print_bundle(const std::string& path,
                  const core::ModelBundle& bundle) {
  const auto& config = bundle.config();
  std::cout << path << ": afbundle v" << core::ModelBundle::kFormatVersion
            << "\n";
  common::Table meta({"field", "value"});
  meta.add_row({"sample rate", std::to_string(config.sample_rate_hz) + " Hz"});
  meta.add_row({"channels", std::to_string(config.channels)});
  meta.add_row({"hybrid routing", config.hybrid_routing ? "on" : "off"});
  meta.add_row({"interference filter",
                bundle.filter() ? "fitted (" +
                    std::to_string(bundle.filter()->feature_indices().size()) +
                    " features)" : "absent"});
  meta.add_row({"rejection threshold",
                std::to_string(config.rejection_threshold)});
  meta.add_row({"zebra velocity gain",
                std::to_string(config.zebra.velocity_gain)});
  meta.print(std::cout);
  std::cout << "\nrecognizer: ";
  print_feature_table(bundle.recognizer());
}

/// --stats: replay a recording through one instrumented Session and print
/// the pipeline metrics and event log the run produced.
void print_stats(const std::shared_ptr<const core::ModelBundle>& bundle,
                 const std::string& trace_path, std::uint64_t tick_ns,
                 const std::string& format) {
  AF_EXPECT(format == "prometheus" || format == "json",
            "--format must be prometheus or json");
  const sensor::MultiChannelTrace trace =
      sensor::load_trace_file(trace_path);
  core::Session session(bundle);
  // Deterministic virtual time: every clock read advances tick_ns, so the
  // emitted spans and event timestamps are identical across runs/machines.
  session.observability().set_clock(
      std::make_unique<obs::TickClock>(tick_ns));
  // Offline replay: trace every frame rather than the sampled default.
  session.observability().set_sample_every(1);
  const auto events = session.process_trace(trace);

  std::cout << "replayed " << trace.sample_count() << " frames ("
            << trace.channel_count() << " channels) -> " << events.size()
            << " events; bundle load "
            << static_cast<double>(bundle->load_ns()) * 1e-6 << " ms\n";
  std::cout << "\n# metrics (" << format << ")\n";
  const obs::MetricsSnapshot snapshot =
      session.observability().registry().snapshot();
  if (format == "json")
    obs::write_json(std::cout, snapshot);
  else
    obs::write_prometheus(std::cout, snapshot);
  std::cout << "\n# pipeline events (oldest first, ring capacity "
            << session.observability().ring().capacity() << ")\n";
  session.observability().dump_events(std::cout);
}

int run(int argc, char** argv) {
  common::Cli cli("af_inspect", "inspect a saved model bundle");
  cli.add_flag("model", "models.af", "model bundle (afbundle format)");
  cli.add_flag("stats", "false",
               "replay --trace through a Session and print its metrics");
  cli.add_flag("trace", "", "aftrace recording to replay (with --stats)");
  cli.add_flag("tick-ns", "1000",
               "deterministic clock step per read in ns (with --stats)");
  cli.add_flag("format", "prometheus",
               "metrics output format: prometheus or json (with --stats)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string path = cli.get("model");
  const auto bundle = core::ModelBundle::load_file(path);
  if (cli.get_bool("stats")) {
    AF_EXPECT(!cli.get("trace").empty(),
              "--stats requires --trace <file.aftrace>");
    print_stats(bundle, cli.get("trace"),
                static_cast<std::uint64_t>(cli.get_int("tick-ns")),
                cli.get("format"));
    return 0;
  }
  print_bundle(path, *bundle);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return airfinger::common::run_main(argc, argv, run);
}
