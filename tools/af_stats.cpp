// af_stats — host-aggregated pipeline metrics for a multi-stream run.
//
//   af_stats                         # 4 synthesized streams, small bundle
//   af_stats --model models.af --streams 8 --format json
//
// Exercises the production serving shape end-to-end: one ModelBundle
// (loaded from --model, or trained in-process at interactive scale when the
// flag is empty), a MultiSessionHost with one Session per stream, and a
// round-robin fan-out of synthesized gesture streams. After the run the
// host's aggregate_metrics() snapshot — every session's registry merged in
// deterministic lane order plus the host-level series — is written in the
// requested exposition format (DESIGN.md §13).
//
// The host shape is configurable: --shards picks the worker shard count
// (0 = auto from AF_THREADS, 1 = shardless inline reference), --ring the
// ingest queue frames per lane, --admission the full-queue policy
// (block/reject) — see DESIGN.md §14.
//
// Sessions run under a deterministic TickClock by default (--tick-ns per
// clock read), so the full output is byte-identical across runs, machines,
// shard counts, and AF_THREADS settings; pass --tick-ns 0 to time with the
// real monotonic clock instead. --load-series 1 opts into the
// scheduling-dependent backpressure series (queue high-water, blocked
// feeds, shard count), which trades that byte-identity away.
#include <fstream>
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/multi_session_host.hpp"
#include "core/trainer.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "synth/dataset.hpp"

using namespace airfinger;

namespace {

std::shared_ptr<const core::ModelBundle> obtain_bundle(
    const std::string& path, std::uint64_t seed) {
  if (!path.empty()) return core::ModelBundle::load_file(path);
  core::TrainerConfig trainer;
  trainer.users = 2;
  trainer.sessions = 1;
  trainer.repetitions = 3;
  trainer.non_gesture_repetitions = 3;
  trainer.seed = seed;
  return core::build_bundle(trainer);
}

/// Human-oriented view: one row per metric, histograms summarized by
/// count/p50/p99 instead of their full bucket vectors.
void print_table(const obs::MetricsSnapshot& snapshot) {
  common::Table table({"metric", "value", "p50", "p99"});
  for (const auto& e : snapshot.entries) {
    switch (e.type) {
      case obs::MetricEntry::Type::kCounter:
        table.add_row({e.name, std::to_string(e.count), "", ""});
        break;
      case obs::MetricEntry::Type::kGauge:
        table.add_row({e.name, std::to_string(e.value), "", ""});
        break;
      case obs::MetricEntry::Type::kHistogram:
        table.add_row(
            {e.name, std::to_string(e.count) + " obs",
             std::to_string(obs::histogram_quantile(e, 0.50)),
             std::to_string(obs::histogram_quantile(e, 0.99))});
        break;
    }
  }
  table.print(std::cout);
}

/// Per-shard utilization table (table mode + --load-series only): how the
/// load was actually served, which legitimately varies run to run.
void print_shard_table(const core::MultiSessionHost& host) {
  std::cout << "\nper-shard utilization:\n";
  common::Table table({"shard", "lanes", "busy", "frames", "batch p50",
                       "wait p50 ns", "wait p99 ns", "parks", "occ hw"});
  for (std::size_t s = 0; s < host.shard_count(); ++s) {
    const core::ShardTelemetry t = host.shard_telemetry(s);
    table.add_row({std::to_string(t.shard), std::to_string(t.lanes),
                   common::Table::pct(t.busy_fraction()),
                   std::to_string(t.frames_drained),
                   common::Table::num(t.drain_batch_p50, 1),
                   common::Table::num(t.queue_wait_p50_ns, 0),
                   common::Table::num(t.queue_wait_p99_ns, 0),
                   std::to_string(t.parks),
                   std::to_string(t.occupancy_high_water)});
  }
  table.print(std::cout);
}

int run(int argc, char** argv) {
  common::Cli cli("af_stats",
                  "dump host-aggregated pipeline metrics for a "
                  "multi-stream run");
  cli.add_flag("model", "",
               "afbundle artifact to serve (empty: train a small "
               "reference bundle in-process)");
  cli.add_flag("streams", "4", "concurrent simulated streams");
  cli.add_flag("turn", "64", "frames fanned to each stream per turn");
  cli.add_flag("seed", "11", "master random seed for synthesis/training");
  cli.add_flag("tick-ns", "1000",
               "deterministic clock step per read in ns (0: real clock)");
  cli.add_flag("shards", "0",
               "worker shards for the host (0: auto from AF_THREADS; "
               "1: shardless inline reference)");
  cli.add_flag("ring", "16",
               "ingest queue frames per lane (a shard's queue holds this "
               "times its lanes)");
  cli.add_flag("admission", "block",
               "full-queue policy: block (lossless) or reject (bounded "
               "latency, counted)");
  cli.add_flag("load-series", "0",
               "1: include the scheduling-dependent load series (shards, "
               "queue high-water, blocked feeds) — these vary across "
               "machines and runs, so the output is no longer "
               "byte-identical");
  cli.add_flag("format", "prometheus",
               "output format: prometheus, json, or table");
  cli.add_flag("trace", "",
               "write completed gesture traces as Chrome trace-event JSON "
               "to this path (load in Perfetto / chrome://tracing); "
               "byte-identical across runs under the deterministic clock");
  if (!cli.parse(argc, argv)) return 0;

  const std::string format = cli.get("format");
  AF_EXPECT(format == "prometheus" || format == "json" || format == "table",
            "--format must be prometheus, json, or table");
  const auto streams = static_cast<std::size_t>(cli.get_int("streams"));
  AF_EXPECT(streams >= 1, "--streams must be >= 1");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto tick_ns = static_cast<std::uint64_t>(cli.get_int("tick-ns"));

  const auto bundle = obtain_bundle(cli.get("model"), seed);

  // One synthesized gesture stream per lane, seeded apart so the lanes are
  // out of phase like independent wearers.
  const std::vector<synth::MotionKind> mix{
      synth::MotionKind::kCircle,   synth::MotionKind::kClick,
      synth::MotionKind::kScrollUp, synth::MotionKind::kScrollDown,
  };
  std::vector<sensor::MultiChannelTrace> traces;
  traces.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    synth::CollectionConfig config;
    config.users = 1;
    config.seed = seed ^ (0x5747 + s);
    traces.push_back(
        synth::make_gesture_stream(config, mix, config.seed).trace);
  }

  const std::string admission = cli.get("admission");
  AF_EXPECT(admission == "block" || admission == "reject",
            "--admission must be block or reject");
  core::HostConfig host_config;
  host_config.shards = static_cast<std::size_t>(cli.get_int("shards"));
  host_config.ring_frames = static_cast<std::size_t>(cli.get_int("ring"));
  host_config.admission = admission == "reject" ? core::Admission::kReject
                                                : core::Admission::kBlock;
  core::MultiSessionHost host(bundle, streams,
                              bundle->config().fault_policy, host_config);
  for (std::size_t s = 0; s < streams; ++s) {
    auto& obs = host.mutable_session(s).observability();
    // Offline analysis: trace every frame rather than the serving path's
    // sampled default.
    obs.set_sample_every(1);
    if (tick_ns > 0)
      obs.set_clock(std::make_unique<obs::TickClock>(tick_ns));
  }

  const auto events =
      host.run_round_robin(traces,
                           static_cast<std::size_t>(cli.get_int("turn")));

  std::cerr << "af_stats: " << streams << " streams, "
            << host.frames_processed() << " frames, " << events.size()
            << " events over " << host.shard_count() << " shard(s)\n";

  const bool load_series = cli.get_int("load-series") == 1;
  const obs::MetricsSnapshot snapshot = host.aggregate_metrics(load_series);
  if (format == "json")
    obs::write_json(std::cout, snapshot);
  else if (format == "table")
    print_table(snapshot);
  else
    obs::write_prometheus(std::cout, snapshot);
  if (format == "table" && load_series) print_shard_table(host);

  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) {
    std::vector<obs::SessionTraces> sessions;
    sessions.reserve(streams);
    std::size_t total = 0;
    for (std::size_t s = 0; s < streams; ++s) {
      const auto& recorder = host.session(s).observability().tracer();
      sessions.push_back(obs::SessionTraces{s, recorder.completed()});
      total += sessions.back().traces.size();
    }
    std::ofstream out(trace_path, std::ios::binary);
    AF_EXPECT(out.good(), "cannot open --trace path " + trace_path);
    obs::write_chrome_trace(out, sessions);
    std::cerr << "af_stats: wrote " << total << " gesture trace(s) to "
              << trace_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return airfinger::common::run_main(argc, argv, run);
}
