// perfbench_serve — the airFinger serving benchmark.
//
//   perfbench_serve --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench_serve --describe
//
// Builds the workload's inputs from the seed (a labelled trace pool and
// per-lane offsets; see workload.hpp), sets up the serving host over a
// freshly trained model bundle, and drives it through the public serving
// API for the measured window, open loop: a generator thread ticks every
// 10 ms, feeds each stream's due frame, then pump() + drain(); events are
// timed from the due time of the frame they stamp to the return of the
// drain() that delivered them.
//
// Every run also checks the outputs: sampled lanes replayed through
// standalone Sessions must emit byte-identical events, steady-state
// push_frame must not allocate, and the host's frame ledger must balance.
// A run whose p99 event latency (the median of five sub-window p99s)
// exceeds the workload's budget counts its late events as failed.
// Emissions are scored against the synthesizer's labels (scorer.hpp), and
// the traffic mix the run carried is measured and printed.
//
// --trace 1 repeats the run with spans around every host call, times
// direct calls into each layer (layers.hpp), prints the untraced and
// traced figures side by side with the layer share table, and writes the
// spans to .bench_out/. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/multi_session_host.hpp"
#include "core/trainer.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "memory.hpp"
#include "scorer.hpp"
#include "workload.hpp"

namespace {

using namespace airfinger;
using namespace airfinger::perfbench;

/// Frames at the start of every lane that are never scored (segmenter
/// calibration), and frames at the end whose decisions may fall past the
/// end of the run.
constexpr std::size_t kScoreFrom = 300;
constexpr std::size_t kScoreTail = 150;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Threads synthesizing the inputs (the workloads use at most three).
constexpr std::size_t kSetupThreads = 3;
/// Lanes replayed standalone for the output check, evenly spaced (plus
/// one lane per storm class where the workload has storms).
constexpr std::size_t kSampledLanes = 16;
/// Sub-windows of the measured ticks (see RunResult).
constexpr std::size_t kSubWindows = 5;
/// Traced runs: one feed() in this many is timed individually.
constexpr std::size_t kFeedSampleEvery = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool describe = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      args.describe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end) return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end || !(args.seconds > 0.0) || args.seconds > 600.0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return args.describe || !args.workload.empty();
}

// ------------------------------------------------------------- set-up

struct Setup {
  std::shared_ptr<const core::ModelBundle> bundle;
  Inputs inputs;
  std::unique_ptr<core::MultiSessionHost> host;
  double total_s = 0.0;
  double train_s = 0.0;
  double synth_s = 0.0;
  double construct_ms = 0.0;
  std::uint64_t rss_before = 0;
};

std::unique_ptr<core::MultiSessionHost> make_host(
    const WorkloadSpec& spec,
    const std::shared_ptr<const core::ModelBundle>& bundle,
    const Inputs& in) {
  core::HostConfig config;
  config.shards = spec.shards;
  return std::make_unique<core::MultiSessionHost>(bundle, spec.streams,
                                                  in.policy, config);
}

/// Trains the bundle (on one thread: training is bit-identical at any
/// width, and one thread keeps its time steady), synthesizes the inputs on
/// kSetupThreads, and constructs the host. Memory baselines are taken just
/// before the host.
Setup set_up(const WorkloadSpec& spec, const Args& args) {
  Setup s;
  const std::int64_t t0 = now_ns();
  {
    common::ScopedThreads one(1);
    s.bundle = core::build_bundle(core::TrainerConfig{});
  }
  const std::int64_t t1 = now_ns();
  {
    common::ScopedThreads pool(kSetupThreads);
    s.inputs = make_inputs(spec, args.seed, args.seconds);
  }
  const std::int64_t t2 = now_ns();
  release_free_heap();
  s.rss_before = resident_bytes();
  const std::int64_t t3 = now_ns();
  s.host = make_host(spec, s.bundle, s.inputs);
  const std::int64_t t4 = now_ns();
  s.train_s = static_cast<double>(t1 - t0) / 1e9;
  s.synth_s = static_cast<double>(t2 - t1) / 1e9;
  s.construct_ms = static_cast<double>(t4 - t3) / 1e6;
  s.total_s = static_cast<double>((t2 - t0) + (t4 - t3)) / 1e9;
  return s;
}

// ---------------------------------------------------------------- runs

struct RunResult {
  std::vector<std::vector<core::GestureEvent>> lane_events;
  std::vector<double> latency_ms;
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_processed = 0;
  std::uint64_t frames_refused = 0;  ///< Rejected or dropped by the host.
  std::uint64_t events = 0;          ///< Events delivered in the window.
  std::uint64_t ticks = 0;           ///< Measured ticks.
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t rss_after = 0;
  std::vector<double> lag_ms;  ///< Tick start minus due time.
  /// The measured window split into kSubWindows consecutive equal tick
  /// ranges, with the event latencies and streams per core of each. Reported figures are
  /// medians over sub-windows, so a burst of host noise in one of them
  /// does not move the result.
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> window_spc;
  // Traced runs only.
  std::vector<double> feed_ns, pump_ms, drain_us;
  std::vector<core::ShardTelemetry> telemetry_before, telemetry_after;
  std::string error;  ///< Non-empty when a check failed.
};

/// Destroys the host and returns the heap bytes that freed: everything the
/// host and its sessions held at that point, rings and event queues
/// included.
std::int64_t destroy_host(std::unique_ptr<core::MultiSessionHost>& host) {
  const std::int64_t before = live_heap_bytes();
  host.reset();
  return before - live_heap_bytes();
}

/// Ledger of one host after a run: processed + dropped + rejected must
/// equal what was offered, and no lane may have faulted. Adds the lost
/// frames to `refused`; sets `error` when the ledger does not balance.
void check_ledger(const core::MultiSessionHost& host, std::uint64_t offered,
                  std::uint64_t* refused, std::string* error) {
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < host.session_count(); ++i)
    lost += host.dropped_frames(i) + host.rejected_frames(i);
  const std::uint64_t processed = host.frames_processed();
  *refused += lost;
  if (processed + lost != offered || host.faulted_count() != 0) {
    *error = "host ledger does not balance: processed " +
             std::to_string(processed) + " + lost " + std::to_string(lost) +
             " != offered " + std::to_string(offered) + ", faulted lanes " +
             std::to_string(host.faulted_count());
  }
}

std::vector<core::ShardTelemetry> telemetry(const core::MultiSessionHost& host) {
  std::vector<core::ShardTelemetry> out;
  for (std::size_t s = 0; s < host.shard_count(); ++s)
    out.push_back(host.shard_telemetry(s));
  return out;
}

RunResult run_open(const WorkloadSpec& spec, core::MultiSessionHost& host,
                   const Inputs& in, SpanLog* spans) {
  RunResult r;
  const std::size_t lanes = in.lanes.size();
  r.lane_events.resize(lanes);
  const std::int64_t period_ns = std::llround(1e9 / spec.rate_hz);
  const std::size_t measured = in.ticks - kPacedWarmTicks;

  // Lead-in, closed loop: calibrates every lane's segmenter and staggers
  // the lanes' stream positions before the first tick. Its events are
  // scored but not timed.
  std::size_t max_lead = 0;
  for (const Lane& l : in.lanes) max_lead = std::max(max_lead, l.lead);
  for (std::size_t k = 0; k < max_lead; ++k) {
    for (std::size_t lane = 0; lane < lanes; ++lane)
      if (k < in.lanes[lane].lead) host.feed(lane, in.frame(lane, k));
    if ((k + 1) % 32 == 0 || k + 1 == max_lead) {
      host.pump();
      for (core::SessionEvent& e : host.drain())
        r.lane_events[e.session].push_back(e.event);
    }
  }
  r.lag_ms.reserve(measured);
  r.latency_ms.reserve(lanes * measured / 20 + 1024);
  if (spans) {
    r.feed_ns.reserve(lanes * measured / kFeedSampleEvery + 1);
    r.pump_ms.reserve(measured);
    r.drain_us.reserve(measured);
    spans->reserve(spans->size() + 4 * measured);
  }

  // Paced ticks. The first kPacedWarmTicks run the same way but are not
  // measured (first-touch faults, frequency ramp after the lead-in burst).
  r.window_latency_ms.resize(kSubWindows);
  std::vector<double> window_cpu(kSubWindows + 1, 0.0);
  const auto window_of = [&](std::size_t tick) {
    return (tick - kPacedWarmTicks) * kSubWindows / measured;
  };
  double cpu0 = 0.0;
  const std::int64_t start_ns = now_ns() + 2'000'000;
  const SteadyClock::time_point start =
      SteadyClock::time_point(std::chrono::nanoseconds(start_ns));
  const std::int64_t window_ns =
      start_ns + static_cast<std::int64_t>(kPacedWarmTicks) * period_ns;
  for (std::size_t j = 0; j < in.ticks; ++j) {
    const std::int64_t due_ns = start_ns + static_cast<std::int64_t>(j) * period_ns;
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(j) * period_ns));
    const bool timed = j >= kPacedWarmTicks;
    if (j == kPacedWarmTicks) {
      r.telemetry_before = telemetry(host);
      cpu0 = process_cpu_s();
    }
    if (timed && (j == kPacedWarmTicks || window_of(j) != window_of(j - 1)))
      window_cpu[window_of(j)] = process_cpu_s();
    const std::int64_t begin_ns = now_ns();
    if (timed) r.lag_ms.push_back(static_cast<double>(begin_ns - due_ns) / 1e6);
    const auto tick = static_cast<std::uint32_t>(j);
    std::vector<core::SessionEvent> batch;
    if (!spans || !timed) {
      for (std::size_t lane = 0; lane < lanes; ++lane)
        host.feed(lane, in.frame(lane, in.lanes[lane].lead + j));
      host.pump();
      batch = host.drain();
    } else {
      const std::int32_t root = spans->begin("tick", SpanLog::kRoot, tick);
      std::int32_t span = spans->begin("host.feed", root, tick);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const auto frame = in.frame(lane, in.lanes[lane].lead + j);
        if (lane % kFeedSampleEvery != 0) {
          host.feed(lane, frame);
          continue;
        }
        const std::int64_t t0 = now_ns();
        host.feed(lane, frame);
        r.feed_ns.push_back(static_cast<double>(now_ns() - t0));
      }
      spans->end(span);
      span = spans->begin("host.pump", root, tick);
      const std::int64_t pump0 = now_ns();
      host.pump();
      const std::int64_t pump1 = now_ns();
      spans->end(span);
      span = spans->begin("host.drain", root, tick);
      batch = host.drain();
      r.pump_ms.push_back(static_cast<double>(pump1 - pump0) / 1e6);
      r.drain_us.push_back(static_cast<double>(now_ns() - pump1) / 1e3);
      spans->end(span);
      spans->end(root);
    }
    const std::int64_t done_ns = now_ns();
    for (core::SessionEvent& e : batch) {
      // time_s counts the frames the session had consumed, so the frame
      // that produced the event is the one before; the tick that fed it
      // is that frame minus the lane's lead.
      const long frame =
          static_cast<long>(std::llround(e.event.time_s * spec.rate_hz)) - 1;
      const long fed_tick = frame - static_cast<long>(in.lanes[e.session].lead);
      if (fed_tick >= static_cast<long>(kPacedWarmTicks)) {
        const std::int64_t frame_due = start_ns + fed_tick * period_ns;
        const double ms = static_cast<double>(done_ns - frame_due) / 1e6;
        r.latency_ms.push_back(ms);
        r.window_latency_ms[window_of(static_cast<std::size_t>(fed_tick))]
            .push_back(ms);
        ++r.events;
      }
      r.lane_events[e.session].push_back(e.event);
    }
  }
  r.cpu_s = process_cpu_s() - cpu0;
  window_cpu[kSubWindows] = cpu0 + r.cpu_s;
  for (std::size_t w = 0; w < kSubWindows; ++w) {
    const std::size_t ticks_w = (w + 1) * measured / kSubWindows -
                                w * measured / kSubWindows;
    const double cpu_w = window_cpu[w + 1] - window_cpu[w];
    r.window_spc.push_back(cpu_w > 0.0 ? static_cast<double>(lanes * ticks_w) /
                                             spec.rate_hz / cpu_w
                                       : 0.0);
  }
  r.wall_s = static_cast<double>(now_ns() - window_ns) / 1e9;
  r.ticks = measured;
  r.rss_after = resident_bytes();
  r.telemetry_after = telemetry(host);
  for (const Lane& l : in.lanes) r.frames_offered += l.frames;
  r.frames_processed = static_cast<std::uint64_t>(lanes) * measured;
  check_ledger(host, r.frames_offered, &r.frames_refused, &r.error);
  return r;
}

// ------------------------------------------------------------ metrics

QualityTally score(const Inputs& in, const RunResult& r, double rate_hz) {
  QualityTally q;
  for (std::size_t lane = 0; lane < in.lanes.size(); ++lane)
    q.merge(score_stream(in.lane_labels(lane), r.lane_events[lane],
                         kScoreFrom, in.lanes[lane].frames - kScoreTail,
                         rate_hz));
  return q;
}

double streams_per_core(const RunResult& r) { return median(r.window_spc); }

/// Median over sub-windows of the latency quantile q within each.
double latency_quantile(const RunResult& r, double q) {
  std::vector<double> per_window;
  for (const auto& w : r.window_latency_ms)
    if (!w.empty()) per_window.push_back(quantile(w, q));
  return median(per_window);
}

struct EndToEnd {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double slo_miss_share = 0.0;
  /// p99_ms exceeded the budget: every late event counts as failed.
  bool slo_missed = false;
  /// Event latencies, medians over sub-windows. Per-layer figures: on a
  /// shared machine they swing by more than any bound allows. The SLO is
  /// checked on p99_ms, which one stalled sub-window cannot move.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double pooled_p99_ms = 0.0;  ///< p99 over the whole window (log only).
};

EndToEnd end_to_end(const WorkloadSpec& spec, std::uint64_t rss_before,
                    const std::vector<double>& setup_totals,
                    const RunResult& r, const QualityTally& q) {
  EndToEnd e;
  e.p50_ms = latency_quantile(r, 0.50);
  e.p90_ms = latency_quantile(r, 0.90);
  e.p99_ms = latency_quantile(r, 0.99);
  e.pooled_p99_ms = quantile(r.latency_ms, 0.99);
  std::uint64_t over_budget = 0;
  if (spec.budget_ms > 0.0)
    for (double ms : r.latency_ms) over_budget += ms > spec.budget_ms;
  e.attempted = r.frames_offered + r.events;
  e.slo_miss_share =
      e.attempted ? static_cast<double>(r.frames_refused + over_budget) /
                        static_cast<double>(e.attempted)
                  : 0.0;
  // Failed operations are frames the host refused or dropped, plus the
  // late events of a run that misses the SLO.
  e.slo_missed = spec.budget_ms > 0.0 && e.p99_ms > spec.budget_ms;
  e.failed = r.frames_refused + (e.slo_missed ? over_budget : 0);
  const double streams = static_cast<double>(spec.streams);
  e.metrics["setup_s"] = median(setup_totals);
  e.metrics["streams_per_core"] = streams_per_core(r);
  e.metrics["rss_per_stream_kb"] =
      (static_cast<double>(r.rss_after) - static_cast<double>(rss_before)) /
      1024.0 / streams;
  e.metrics["event_recall"] = q.recall();
  e.metrics["event_precision"] = q.precision();
  e.metrics["onset_to_emit_frames_p50"] = q.onset_to_emit_p50();
  e.metrics["false_triggers_per_idle_min"] =
      q.false_triggers_per_idle_min(spec.rate_hz);
  return e;
}

void print_json(std::ostream& os, bool correct, std::uint64_t attempted,
                std::uint64_t failed,
                const std::vector<std::pair<std::string, std::string>>& units,
                const std::map<std::string, double>& values) {
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char buf[64];
  bool first = true;
  for (const auto& [name, unit] : units) {
    const auto it = values.find(name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  os << "}}\n";
}

const std::vector<std::pair<std::string, std::string>>& e2e_units() {
  static const std::vector<std::pair<std::string, std::string>> units{
      {"setup_s", "s"},
      {"streams_per_core", "streams/core"},
      {"rss_per_stream_kb", "KiB"},
      {"event_recall", "ratio"},
      {"event_precision", "ratio"},
      {"onset_to_emit_frames_p50", "frames"},
      {"false_triggers_per_idle_min", "1/min"},
  };
  return units;
}

const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units{
      {"host.feed_ns_p50", "ns"},
      {"host.feed_ns_p99", "ns"},
      {"host.pump_ms_p50", "ms"},
      {"host.pump_ms_p99", "ms"},
      {"host.drain_us_p50", "us"},
      {"host.shard_busy_fraction", "ratio"},
      {"host.queue_wait_p99_ms", "ms"},
      {"host.parks_per_tick", "count"},
      {"host.drain_batch_p50", "frames"},
      {"host.bytes_per_session", "bytes"},
      {"host.construct_ms", "ms"},
      {"session.idle_frame_ns_p50", "ns"},
      {"session.motion_frame_ns_p50", "ns"},
      {"session.motion_frame_ns_p99", "ns"},
      {"session.emit_frame_us_p50", "us"},
      {"session.emit_frame_us_p99", "us"},
      {"session.storm_frame_ns_p50", "ns"},
      {"session.allocs_per_frame", "count"},
      {"dsp.sbc_ns_per_frame", "ns"},
      {"dsp.segmenter_ns_per_frame", "ns"},
      {"decide.timing_cache_ns_p50", "ns"},
      {"decide.probe_ns_p50", "ns"},
      {"decide.probe_ns_p99", "ns"},
      {"decide.decide_us_p50", "us"},
      {"decide.decide_us_p99", "us"},
      {"zebra.track_ns_p50", "ns"},
      {"features.extract_us_p50", "us"},
      {"forest.predict_us_p50", "us"},
      {"sensor.artifact_ns_per_frame", "ns"},
      {"obs.spans_ns_per_frame", "ns"},
      {"setup.train_s", "s"},
      {"setup.synth_s", "s"},
      {"setup.bundle_load_ms", "ms"},
      {"bench.event_latency_p50_ms", "ms"},
      {"bench.event_latency_p90_ms", "ms"},
      {"bench.event_latency_p99_ms", "ms"},
      {"bench.generator_lag_p99_ms", "ms"},
      {"bench.tracing_overhead", "ratio"},
      {"bench.slo_miss_share", "ratio"},
      {"layer.share.core.host", "ratio"},
      {"layer.share.core.session", "ratio"},
      {"layer.share.core.timing_cache", "ratio"},
      {"layer.share.core.probe", "ratio"},
      {"layer.share.core.decide", "ratio"},
      {"layer.share.dsp", "ratio"},
      {"layer.share.features", "ratio"},
      {"layer.share.ml", "ratio"},
      {"layer.share.obs", "ratio"},
  };
  return units;
}

/// Host-level per-layer metrics of a traced run; `host_bytes` is the heap
/// the untraced run's host held when it ended.
void host_metrics(const std::vector<double>& construct_ms,
                  std::int64_t host_bytes, const RunResult& traced,
                  std::size_t streams, std::map<std::string, double>& m) {
  m["host.feed_ns_p50"] = median(traced.feed_ns);
  m["host.feed_ns_p99"] = quantile(traced.feed_ns, 0.99);
  m["host.pump_ms_p50"] = median(traced.pump_ms);
  m["host.pump_ms_p99"] = quantile(traced.pump_ms, 0.99);
  m["host.drain_us_p50"] = median(traced.drain_us);
  double busy = 0.0, parked = 0.0, parks = 0.0, wait_p99 = 0.0;
  std::vector<double> batches;
  for (std::size_t s = 0; s < traced.telemetry_after.size(); ++s) {
    const core::ShardTelemetry& a = traced.telemetry_after[s];
    const core::ShardTelemetry& b = traced.telemetry_before[s];
    busy += static_cast<double>(a.busy_ns - b.busy_ns);
    parked += static_cast<double>(a.parked_ns - b.parked_ns);
    parks += static_cast<double>(a.parks - b.parks);
    wait_p99 = std::max(wait_p99, a.queue_wait_p99_ns);
    batches.push_back(a.drain_batch_p50);
  }
  m["host.shard_busy_fraction"] = busy + parked > 0.0 ? busy / (busy + parked) : 0.0;
  m["host.queue_wait_p99_ms"] = wait_p99 / 1e6;
  m["host.parks_per_tick"] =
      traced.ticks ? parks / static_cast<double>(traced.ticks) : 0.0;
  m["host.drain_batch_p50"] = median(batches);
  m["host.bytes_per_session"] =
      static_cast<double>(host_bytes) / static_cast<double>(streams);
  m["host.construct_ms"] = median(construct_ms);
}

/// layer.share.*: each layer's self time per frame over the traced run's
/// CPU time per frame, from in-path times (LayerCosts):
///   host      traced CPU per frame minus push_frame with spans on as the
///             host runs them: rings, park/unpark, cache misses across
///             lanes, the generator;
///   obs       push_frame with spans on minus with spans off;
///   the rest  push_frame with spans off, split as the pass that samples
///             every frame splits its own push_frame time: dsp (the ingest
///             span: SBC, history push, segmenter), timing_cache, probe,
///             features, ml (forest), decide (its span minus features and
///             forest; ZEBRA is inside probe and decide), and session (what
///             the stage spans leave: bookkeeping, and the artifact
///             detectors where the policy runs them). Sampling every frame
///             adds clock reads to each stage, so its times are scaled by
///             spans-off over sampled push_frame time.
/// The parts sum to the total. obs is a difference of two close timings,
/// so it can read slightly negative.
void share_table(const LayerCosts& c, double total_ns_per_frame,
                 std::map<std::string, double>& m) {
  const double scale =
      c.session_sampled > 0.0 ? c.session_off / c.session_sampled : 0.0;
  const std::vector<std::pair<const char*, double>> parts{
      {"layer.share.core.host", total_ns_per_frame - c.session_on},
      {"layer.share.core.session",
       scale * (c.session_sampled - c.ingest - c.timing_cache - c.probe -
                c.decide)},
      {"layer.share.core.timing_cache", scale * c.timing_cache},
      {"layer.share.core.probe", scale * c.probe},
      {"layer.share.core.decide", scale * (c.decide - c.features - c.forest)},
      {"layer.share.dsp", scale * c.ingest},
      {"layer.share.features", scale * c.features},
      {"layer.share.ml", scale * c.forest},
      {"layer.share.obs", c.session_on - c.session_off},
  };
  for (const auto& [name, ns] : parts)
    m[name] = total_ns_per_frame > 0.0 ? ns / total_ns_per_frame : 0.0;
}

/// Shares of a workload's frames by what the labels say they carry
/// (over every lane's frames), and by what the sessions did with them
/// (over the frames of the lanes `check` replayed).
struct TrafficMix {
  double idle = 0.0;           ///< Outside every motion label.
  double gesture = 0.0;        ///< Inside a designed-gesture label.
  double unintentional = 0.0;  ///< Inside a scratch/extend/reposition label.
  double open_segment = 0.0;   ///< A segment was open (or closed) on them.
};

TrafficMix traffic_mix(const Inputs& in, const ReplayCheck& check) {
  std::uint64_t total = 0, gesture = 0, other = 0;
  for (std::size_t lane = 0; lane < in.lanes.size(); ++lane) {
    total += in.lanes[lane].frames;
    for (const Label& l : in.lane_labels(lane))
      (synth::is_gesture(l.kind) ? gesture : other) += l.end - l.begin;
  }
  TrafficMix mix;
  const auto t = static_cast<double>(total);
  mix.gesture = static_cast<double>(gesture) / t;
  mix.unintentional = static_cast<double>(other) / t;
  mix.idle = 1.0 - mix.gesture - mix.unintentional;
  mix.open_segment = check.frames ? static_cast<double>(check.open_frames) /
                                        static_cast<double>(check.frames)
                                  : 0.0;
  return mix;
}

std::vector<std::size_t> sampled_lanes(const Inputs& in) {
  std::vector<std::size_t> lanes;
  for (std::size_t i = 0; i < kSampledLanes; ++i)
    lanes.push_back(i * in.lanes.size() / kSampledLanes);
  std::vector<bool> seen(storm_class_names().size(), false);
  for (std::size_t lane = 0; lane < in.lanes.size(); ++lane) {
    const int cls = in.storm_class(lane);
    if (cls < 0 || seen[static_cast<std::size_t>(cls)]) continue;
    seen[static_cast<std::size_t>(cls)] = true;
    if (std::find(lanes.begin(), lanes.end(), lane) == lanes.end())
      lanes.push_back(lane);
  }
  return lanes;
}

double bundle_round_trip_ms(const std::shared_ptr<const core::ModelBundle>& bundle,
                            std::shared_ptr<const core::ModelBundle>* loaded) {
  const std::int64_t t0 = now_ns();
  std::stringstream artifact;
  bundle->save(artifact);
  *loaded = core::ModelBundle::load(artifact, bundle->config());
  return static_cast<double>(now_ns() - t0) / 1e6;
}

void print_row(const std::string& name, double untraced, double traced,
               const std::string& unit) {
  std::printf("  %-28s %14.6g %14.6g  %s\n", name.c_str(), untraced, traced,
              unit.c_str());
}

void print_mix(const TrafficMix& mix, std::size_t sampled_lanes) {
  std::printf("traffic: %.1f%% idle, %.1f%% gesture, %.1f%% unintentional "
              "motion frames (labels, all lanes); %.1f%% of frames in open "
              "segments (%zu sampled lanes)\n",
              100.0 * mix.idle, 100.0 * mix.gesture, 100.0 * mix.unintentional,
              100.0 * mix.open_segment, sampled_lanes);
}

/// Prints every workload's record as JSON: its fixed parameters and the
/// traffic mix measured on the inputs of `args.seed` and `args.seconds`.
void describe(const Args& args, std::ostream& os) {
  const auto bundle = core::build_bundle(core::TrainerConfig{});
  os << "[";
  bool first = true;
  for (const WorkloadSpec& w : workloads()) {
    Inputs in;
    {
      common::ScopedThreads pool(kSetupThreads);
      in = make_inputs(w, args.seed, args.seconds);
    }
    const std::vector<std::size_t> lanes = sampled_lanes(in);
    const TrafficMix mix =
        traffic_mix(in, check_lanes(bundle, in, lanes, nullptr, nullptr));
    char measured[256];
    std::snprintf(measured, sizeof measured,
                  "{\"seed\": %llu, \"seconds\": %g, \"idle_share\": %.4f, "
                  "\"gesture_share\": %.4f, \"unintentional_share\": %.4f, "
                  "\"open_segment_share\": %.4f}",
                  static_cast<unsigned long long>(args.seed), args.seconds,
                  mix.idle, mix.gesture, mix.unintentional, mix.open_segment);
    os << (first ? "\n" : ",\n") << "  {\"name\": \"" << w.name
       << "\", \"loop\": \"open\", \"rate_hz\": " << w.rate_hz
       << ", \"streams\": " << w.streams
       << ", \"shards\": " << w.shards << ", \"pool_traces\": "
       << w.pool_traces << ", \"idle_splice_mean_frames\": "
       << w.idle_splice_mean << ", \"storm_share\": " << w.storm_share
       << ", \"latency_budget_ms\": " << w.budget_ms
       << ", \"measured\": " << measured << ", \"why\": \"" << w.why
       << "\"}";
    first = false;
  }
  os << "\n]\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench_serve --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n       perfbench_serve "
                 "--describe\n";
    return 2;
  }
  if (args.describe) {
    describe(args, std::cout);
    return 0;
  }
  const WorkloadSpec* spec_ptr = find_workload(args.workload);
  if (!spec_ptr) {
    std::cerr << "perfbench_serve: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const WorkloadSpec& spec = *spec_ptr;
  std::cout << "workload " << spec.name << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << args.trace << "\n";

  // ---- set-up, several times; the last one is kept.
  std::vector<double> setup_totals, train_s, synth_s, construct_ms;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup{};  // free the previous host and inputs first
    setup = set_up(spec, args);
    setup_totals.push_back(setup.total_s);
    train_s.push_back(setup.train_s);
    synth_s.push_back(setup.synth_s);
    construct_ms.push_back(setup.construct_ms);
    std::cout << "setup " << i << ": " << setup.total_s << " s (train "
              << setup.train_s << " s, synth " << setup.synth_s
              << " s, host " << setup.construct_ms << " ms)\n";
  }
  const Inputs& in = setup.inputs;
  std::cout << "inputs: " << in.pool.size() << " recordings, " << in.lanes.size()
            << " lanes, " << in.ticks << " ticks\n";

  // ---- the measured (untraced) run.
  RunResult run = run_open(spec, *setup.host, in, nullptr);
  bool correct = run.error.empty();
  if (!correct) std::cerr << "perfbench_serve: CHECK FAILED: " << run.error << "\n";

  // ---- output check on sampled lanes (every run).
  const std::vector<std::size_t> lanes = sampled_lanes(in);
  SessionTimings timings;
  const ReplayCheck check = check_lanes(setup.bundle, in, lanes,
                                        &run.lane_events,
                                        args.trace ? &timings : nullptr);
  if (!check.ok) {
    correct = false;
    std::cerr << "perfbench_serve: CHECK FAILED: " << check.error << "\n";
  }
  const QualityTally quality = score(in, run, spec.rate_hz);
  if (quality.gestures == 0 || quality.emissions == 0) {
    correct = false;
    std::cerr << "perfbench_serve: CHECK FAILED: nothing to score\n";
  }
  EndToEnd e2e = end_to_end(spec, setup.rss_before, setup_totals, run, quality);

  std::cout << "untraced run: " << run.frames_processed << " frames in "
            << run.wall_s << " s wall ("
            << static_cast<double>(run.frames_processed) / run.wall_s
            << " frames/s), " << run.cpu_s << " s cpu, "
            << run.events << " timed events, generator lag p99 "
            << quantile(run.lag_ms, 0.99) << " ms\n";
  print_mix(traffic_mix(in, check), lanes.size());
  std::cout << "quality: " << quality.gestures_found << "/"
            << quality.gestures << " gestures found, "
            << quality.emissions_right << "/" << quality.emissions
            << " emissions right, " << quality.false_triggers
            << " false triggers over " << quality.idle_frames
            << " idle frames ("
            << quality.false_triggers_per_idle_min(spec.rate_hz)
            << "/min)\n";
  std::cout << "sub-windows (streams/core, latency p50/p90/p99 ms):";
  for (std::size_t w = 0; w < run.window_spc.size() && w < 8; ++w)
    std::printf(" [%.0f %.2f/%.2f/%.2f]", run.window_spc[w],
                quantile(run.window_latency_ms[w], 0.5),
                quantile(run.window_latency_ms[w], 0.9),
                quantile(run.window_latency_ms[w], 0.99));
  std::cout << "\n";
  std::cout << "slo: budget " << spec.budget_ms << " ms at p99, latency p50/"
               "p90/p99 "
            << e2e.p50_ms << "/" << e2e.p90_ms << "/" << e2e.p99_ms
            << " ms (sub-window medians; pooled p99 " << e2e.pooled_p99_ms
            << " ms), miss share " << e2e.slo_miss_share << ", refused "
            << run.frames_refused
            << (e2e.slo_missed ? " (SLO MISSED: late events count as failed)"
                               : "")
            << "\n";
  if (!args.trace) {
    for (const auto& [name, unit] : e2e_units())
      std::printf("  %-28s %14.6g  %s\n", name.c_str(), e2e.metrics[name],
                  unit.c_str());
    print_json(std::cout, correct, e2e.attempted, e2e.failed, e2e_units(),
               e2e.metrics);
    return correct ? 0 : 1;
  }

  // ---- traced run: a fresh host, spans around every host call.
  std::map<std::string, double> m;
  SpanLog spans;
  RunResult traced;
  const std::int64_t host_bytes = destroy_host(setup.host);
  release_free_heap();
  const std::uint64_t traced_rss_before = resident_bytes();
  {
    const auto host = make_host(spec, setup.bundle, in);
    traced = run_open(spec, *host, in, &spans);
  }
  if (!traced.error.empty()) {
    correct = false;
    std::cerr << "perfbench_serve: CHECK FAILED (traced): " << traced.error << "\n";
  }
  for (std::size_t lane = 0; lane < in.lanes.size() && correct; ++lane) {
    std::string why;
    if (!events_identical(run.lane_events[lane], traced.lane_events[lane], &why)) {
      correct = false;
      std::cerr << "perfbench_serve: CHECK FAILED: traced run differs on lane "
                << lane << ": " << why << "\n";
    }
  }
  host_metrics(construct_ms, host_bytes, traced, spec.streams, m);

  // ---- session, dsp, decision core, features, forest, sensor, obs.
  LayerCosts costs;
  measure_layers(setup.bundle, in, lanes, in.policy.enabled &&
                                              in.policy.artifact.detect,
                 spans, m, costs);
  m["session.idle_frame_ns_p50"] = median(timings.idle_ns);
  m["session.motion_frame_ns_p50"] = median(timings.motion_ns);
  m["session.motion_frame_ns_p99"] = quantile(timings.motion_ns, 0.99);
  m["session.emit_frame_us_p50"] = median(timings.emit_ns) / 1e3;
  m["session.emit_frame_us_p99"] = quantile(timings.emit_ns, 0.99) / 1e3;
  m["session.storm_frame_ns_p50"] = median(timings.storm_ns);
  m["session.allocs_per_frame"] = check.allocs_per_frame;

  std::shared_ptr<const core::ModelBundle> loaded;
  m["setup.train_s"] = median(train_s);
  m["setup.synth_s"] = median(synth_s);
  m["setup.bundle_load_ms"] = bundle_round_trip_ms(setup.bundle, &loaded);
  {
    // The reloaded bundle must serve exactly what the trained one does.
    const ReplayCheck reload =
        check_lanes(loaded, in, {lanes.front()}, &run.lane_events, nullptr);
    if (!reload.ok) {
      correct = false;
      std::cerr << "perfbench_serve: CHECK FAILED: reloaded bundle: "
                << reload.error << "\n";
    }
  }

  const double spc_untraced = streams_per_core(run);
  const double spc_traced = streams_per_core(traced);
  m["bench.event_latency_p50_ms"] = e2e.p50_ms;
  m["bench.event_latency_p90_ms"] = e2e.p90_ms;
  m["bench.event_latency_p99_ms"] = e2e.p99_ms;
  m["bench.generator_lag_p99_ms"] = quantile(run.lag_ms, 0.99);
  m["bench.tracing_overhead"] = spc_untraced > 0.0 ? spc_traced / spc_untraced : 0.0;
  m["bench.slo_miss_share"] = e2e.slo_miss_share;
  const double total_ns_per_frame =
      traced.frames_processed
          ? traced.cpu_s * 1e9 / static_cast<double>(traced.frames_processed)
          : 0.0;
  share_table(costs, total_ns_per_frame, m);

  // ---- side-by-side report and the span file.
  const QualityTally traced_quality = score(in, traced, spec.rate_hz);
  const EndToEnd traced_e2e =
      end_to_end(spec, traced_rss_before, setup_totals, traced, traced_quality);
  std::printf("\n  %-28s %14s %14s\n", "end-to-end", "untraced", "traced");
  for (const auto& [name, unit] : e2e_units())
    print_row(name, e2e.metrics.at(name), traced_e2e.metrics.at(name), unit);
  print_row("latency p50 (ms)", e2e.p50_ms, traced_e2e.p50_ms, "ms");
  print_row("latency p90 (ms)", e2e.p90_ms, traced_e2e.p90_ms, "ms");
  print_row("latency p99 (ms)", e2e.p99_ms, traced_e2e.p99_ms, "ms");
  std::printf("\n  %-28s %14s\n", "layer share", "self/total");
  for (const auto& [name, unit] : layer_units())
    if (name.rfind("layer.share.", 0) == 0)
      std::printf("  %-28s %14.4f\n", name.c_str() + 12, m[name]);
  std::printf("  (ns per frame: traced CPU %.1f; push_frame spans on %.1f, "
              "off %.1f, every frame sampled %.1f; in-path spans: ingest "
              "%.1f, timing cache %.1f, probe %.1f, decide %.1f incl. "
              "features %.1f and forest %.1f)\n\n",
              total_ns_per_frame, costs.session_on, costs.session_off,
              costs.session_sampled, costs.ingest, costs.timing_cache,
              costs.probe, costs.decide, costs.features, costs.forest);
  for (const auto& [name, unit] : layer_units())
    if (name.rfind("layer.share.", 0) != 0)
      std::printf("  %-36s %14.6g  %s\n", name.c_str(), m[name], unit.c_str());
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  const std::string span_path = ".bench_out/spans-" + spec.name + "-seed" +
                                std::to_string(args.seed) + ".jsonl";
  if (spans.write(span_path))
    std::cout << "spans: " << spans.size() << " written to " << span_path << "\n";
  else
    std::cerr << "perfbench_serve: could not write " << span_path << "\n";

  print_json(std::cout, correct, e2e.attempted, e2e.failed, layer_units(), m);
  return correct ? 0 : 1;
}
