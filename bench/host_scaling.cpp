// bench_host_scaling — sharded serving throughput vs. shard count, at
// interactive scale (16 streams) and serving scale (10k streams).
//
// Measures the production shape behind ROADMAP item 1: one immutable
// ModelBundle, N concurrent streams hashed across S shard worker threads,
// one bounded SPSC ingest queue per shard between the producer and the
// shard's worker. Two workloads run per shard count:
//
//   * small: `--streams` full gesture streams via run_round_robin (the
//     latency-ish shape the old bench measured), best-of `--rounds`;
//   * big: `--big-streams` sessions (default 10000) fed `--big-frames`
//     frames each from a pool of distinct synth traces, one timed pass —
//     the 10k-concurrent-stream throughput number.
//
// Event streams are cross-checked for bit identity across every shard
// count (the shardless inline host is the reference); divergence fails
// the bench. Scaling is gated hardware-awareness first: when the machine
// actually has >= 4 hardware threads the 4-shard run must clear
// `--min-speedup` (default 1.6x) over 1 shard and throughput must be
// monotone non-decreasing in shard count (5% tolerance); on narrower
// machines the gate records itself as skipped instead of failing — a
// 1-core container cannot exhibit parallel speedup, and pretending
// otherwise would just train people to ignore the bench.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/multi_session_host.hpp"
#include "support.hpp"

using namespace airfinger;

namespace {

bool events_equal(const std::vector<core::SessionEvent>& a,
                  const std::vector<core::SessionEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].session != b[i].session) return false;
    const auto& x = a[i].event;
    const auto& y = b[i].event;
    if (x.type != y.type || x.time_s != y.time_s ||
        x.gesture != y.gesture || x.segment_begin != y.segment_begin ||
        x.segment_end != y.segment_end ||
        x.scroll.has_value() != y.scroll.has_value())
      return false;
    if (x.scroll && (x.scroll->direction != y.scroll->direction ||
                     x.scroll->velocity_mps != y.scroll->velocity_mps ||
                     x.scroll->duration_s != y.scroll->duration_s))
      return false;
  }
  return true;
}

std::vector<sensor::MultiChannelTrace> make_streams(std::size_t count,
                                                    std::uint64_t seed) {
  const std::vector<synth::MotionKind> mix{
      synth::MotionKind::kCircle,     synth::MotionKind::kClick,
      synth::MotionKind::kScrollUp,   synth::MotionKind::kRub,
      synth::MotionKind::kScrollDown, synth::MotionKind::kDoubleClick,
  };
  std::vector<sensor::MultiChannelTrace> traces;
  traces.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    synth::CollectionConfig config;
    config.users = 1;
    config.seed = seed ^ (0x57AE0 + s);
    traces.push_back(
        synth::make_gesture_stream(config, mix, config.seed).trace);
  }
  return traces;
}

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t frames = 0;
  std::vector<core::SessionEvent> events;
};

/// Small workload: full streams, round-robin driver.
RunResult run_small(const std::shared_ptr<const core::ModelBundle>& bundle,
                    const std::vector<sensor::MultiChannelTrace>& traces,
                    std::size_t shards, std::size_t frames_per_turn) {
  core::HostConfig config;
  config.shards = shards;
  core::MultiSessionHost host(bundle, traces.size(),
                              bundle->config().fault_policy, config);
  const auto start = std::chrono::steady_clock::now();
  // One producer thread per shard (bit-identical events): wide shard
  // counts measure the host instead of a single-threaded feeder.
  auto events = host.run_round_robin_parallel(traces, frames_per_turn);
  RunResult result;
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  result.frames = host.frames_processed();
  result.events = std::move(events);
  return result;
}

/// Big workload: `sessions` lanes reusing `traces` mod size, each fed up
/// to `frames_per_stream` frames in interleaved bursts (one producer
/// thread per shard, the shard workers consuming concurrently), then
/// finished and drained.
RunResult run_big(const std::shared_ptr<const core::ModelBundle>& bundle,
                  const std::vector<sensor::MultiChannelTrace>& traces,
                  std::size_t sessions, std::size_t frames_per_stream,
                  std::size_t shards, std::size_t burst) {
  core::HostConfig config;
  config.shards = shards;
  core::MultiSessionHost host(bundle, sessions,
                              bundle->config().fault_policy, config);

  const auto start = std::chrono::steady_clock::now();
  bench::feed_pooled(host, traces, sessions, frames_per_stream, burst);
  host.finish();
  RunResult result;
  result.events = host.drain();
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  result.frames = host.frames_processed();
  return result;
}

struct Sweep {
  std::vector<std::size_t> shard_counts;
  std::vector<double> wall_s;
  std::vector<double> frames_per_second;
  bool deterministic = true;
};

void emit_sweep(std::ostream& os, const char* indent, const Sweep& s) {
  os << indent << "\"shards\": [";
  for (std::size_t i = 0; i < s.shard_counts.size(); ++i)
    os << (i ? ", " : "") << s.shard_counts[i];
  os << "],\n" << indent << "\"wall_s\": [";
  for (std::size_t i = 0; i < s.wall_s.size(); ++i)
    os << (i ? ", " : "") << s.wall_s[i];
  os << "],\n" << indent << "\"frames_per_second\": [";
  for (std::size_t i = 0; i < s.frames_per_second.size(); ++i)
    os << (i ? ", " : "") << s.frames_per_second[i];
  os << "]";
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli("bench_host_scaling",
                  "sharded serving throughput vs shard count");
  cli.add_flag("streams", "16", "sessions in the small workload");
  cli.add_flag("turn", "64", "frames fanned to each stream per turn");
  cli.add_flag("rounds", "3", "timed repetitions per shard count (best-of)");
  cli.add_flag("big-streams", "10000", "sessions in the big workload");
  cli.add_flag("big-frames", "512", "frames fed per big-workload session");
  cli.add_flag("big-trace-pool", "32", "distinct traces reused by big lanes");
  cli.add_flag("min-speedup", "1.6",
               "required 4-shard speedup over 1 shard (when hw allows)");
  cli.add_flag("out", "bench_host_scaling.json", "JSON report path");
  const auto args = bench::parse_args(
      argc, argv, "bench_host_scaling",
      "sharded serving throughput vs shard count", &cli);
  if (!args) return 0;

  const auto streams = static_cast<std::size_t>(cli.get_int("streams"));
  const auto turn = static_cast<std::size_t>(cli.get_int("turn"));
  const auto rounds = static_cast<int>(cli.get_int("rounds"));
  const auto big_streams =
      static_cast<std::size_t>(cli.get_int("big-streams"));
  const auto big_frames =
      static_cast<std::size_t>(cli.get_int("big-frames"));
  const auto big_pool =
      static_cast<std::size_t>(cli.get_int("big-trace-pool"));
  const double min_speedup = std::stod(cli.get("min-speedup"));

  std::cout << "training the shared bundle...\n";
  const auto bundle = bench::train_bundle(*args);

  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t native = hw != 0 ? hw : 1;
  std::vector<std::size_t> shard_counts{1, 2};
  shard_counts.push_back(native > 4 ? native : 4);

  // ------------------------------------------------------ small workload
  std::cout << "synthesizing " << streams << " stream traces...\n";
  const auto small_traces = make_streams(streams, args->seed);
  std::uint64_t small_frames = 0;
  for (const auto& t : small_traces) small_frames += t.sample_count();

  Sweep small;
  small.shard_counts = shard_counts;
  std::vector<core::SessionEvent> reference;
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    RunResult best;
    best.wall_s = 1e100;
    for (int r = 0; r < rounds; ++r) {
      RunResult run =
          run_small(bundle, small_traces, shard_counts[i], turn);
      if (run.wall_s < best.wall_s) best = std::move(run);
    }
    small.wall_s.push_back(best.wall_s);
    small.frames_per_second.push_back(
        static_cast<double>(best.frames) / best.wall_s);
    if (i == 0) {
      reference = std::move(best.events);
    } else if (!events_equal(reference, best.events)) {
      std::cerr << "DETERMINISM VIOLATION: small-workload events differ "
                << "between 1 and " << shard_counts[i] << " shards\n";
      return 1;
    }
    std::cout << "  small " << shard_counts[i]
              << " shard(s): " << small.wall_s.back() << " s ("
              << small.frames_per_second.back() << " frames/s)\n";
  }

  // -------------------------------------------------------- big workload
  std::cout << "synthesizing " << big_pool << " traces for "
            << big_streams << " lanes...\n";
  const auto big_traces = make_streams(big_pool, args->seed ^ 0xB16);

  Sweep big;
  big.shard_counts = shard_counts;
  std::vector<core::SessionEvent> big_reference;
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    RunResult run = run_big(bundle, big_traces, big_streams, big_frames,
                            shard_counts[i], 64);
    big.wall_s.push_back(run.wall_s);
    big.frames_per_second.push_back(
        static_cast<double>(run.frames) / run.wall_s);
    if (i == 0) {
      big_reference = std::move(run.events);
    } else if (!events_equal(big_reference, run.events)) {
      std::cerr << "DETERMINISM VIOLATION: big-workload events differ "
                << "between 1 and " << shard_counts[i] << " shards\n";
      return 1;
    }
    std::cout << "  big " << shard_counts[i] << " shard(s): "
              << big.wall_s.back() << " s ("
              << big.frames_per_second.back() << " frames/s)\n";
  }

  // -------------------------------------------------------- scaling gate
  // Hardware-aware: a shard count above the machine's real thread count
  // cannot speed anything up, so only counts the hardware can actually
  // run in parallel are gated. On a 1-core box every gate is skipped.
  std::string gate = "passed";
  bool gate_failed = false;
  if (native < 4) {
    gate = "skipped (" + std::to_string(native) + " hardware thread" +
           (native == 1 ? "" : "s") + ")";
  } else {
    const auto fps_at = [&](std::size_t shards) {
      for (std::size_t i = 0; i < big.shard_counts.size(); ++i)
        if (big.shard_counts[i] == shards) return big.frames_per_second[i];
      return 0.0;
    };
    const double speedup4 = fps_at(4 <= native ? 4 : native) / fps_at(1);
    if (speedup4 < min_speedup) {
      gate = "FAILED: " + std::to_string(speedup4) + "x at 4 shards (< " +
             std::to_string(min_speedup) + "x)";
      gate_failed = true;
    }
    for (std::size_t i = 1; i < big.shard_counts.size() && !gate_failed;
         ++i) {
      if (big.shard_counts[i] > native) break;  // can't expect more
      if (big.frames_per_second[i] <
          0.95 * big.frames_per_second[i - 1]) {
        gate = "FAILED: non-monotonic at " +
               std::to_string(big.shard_counts[i]) + " shards";
        gate_failed = true;
      }
    }
  }

  const auto emit = [&](std::ostream& os) {
    os << "{\n  \"hardware_threads\": " << native << ",\n";
    os << "  \"small\": {\n    \"streams\": " << streams
       << ",\n    \"frames_total\": " << small_frames << ",\n";
    emit_sweep(os, "    ", small);
    os << ",\n    \"events_total\": " << reference.size() << "\n  },\n";
    os << "  \"big\": {\n    \"streams\": " << big_streams
       << ",\n    \"frames_per_stream\": " << big_frames << ",\n";
    emit_sweep(os, "    ", big);
    os << ",\n    \"events_total\": " << big_reference.size()
       << "\n  },\n";
    os << "  \"min_speedup_required\": " << min_speedup << ",\n";
    os << "  \"scaling_gate\": \"" << gate << "\",\n";
    os << "  \"deterministic_across_shards\": true\n}\n";
  };
  std::ofstream file(cli.get("out"));
  emit(file);
  std::cout << "\nhost-scaling report (" << cli.get("out") << "):\n";
  emit(std::cout);
  if (gate_failed) {
    std::cerr << "SCALING REGRESSION: " << gate << "\n";
    return 1;
  }
  return 0;
}
