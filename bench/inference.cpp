// bench_inference — the tracked inference hot-path baseline.
//
// Measures the steady-state serving cost of the streaming path on top of a
// frozen ModelBundle: frames/sec and p50/p99 per-frame latency of
// Session::push_frame on one gesture-dense stream, plus aggregate
// frames/sec of a MultiSessionHost at several pool widths. A counting
// allocator hook (global operator new/delete overridden in this TU)
// reports heap allocations per frame for the steady-state window — the
// zero-allocation invariant of DESIGN.md §11 is checked here, not assumed.
//
// The same session is also timed with its observability (stage spans and
// gesture tracing) switched off, in passes interleaved with the
// instrumented ones; tools/run_bench.sh holds the fastest instrumented
// pass to within its overhead budget of the fastest uninstrumented one.
//
// The JSON report (BENCH_inference.json via tools/run_bench.sh) is the
// perf trajectory the ROADMAP tracks; --baseline-fps embeds the frames/sec
// of the path being compared against (e.g. the pre-compiled-forest path)
// so the speedup is recorded alongside the absolute numbers.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>

#include "common/parallel.hpp"
#include "core/multi_session_host.hpp"
#include "core/session.hpp"
#include "obs/exposition.hpp"
#include "support.hpp"

// ------------------------------------------------------------ alloc hook
// Counts every heap allocation made by this process. Only the deltas taken
// around the measured region matter, so the bench's own setup allocations
// do not pollute the per-frame numbers.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace airfinger;

/// One pipeline stage's latency summary from the session's observability
/// histograms (obs/pipeline.hpp), measured over the same steady-state
/// window as the frame timings.
struct StageReport {
  std::string name;
  std::uint64_t count = 0;
  double sum_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
};

struct SingleSessionReport {
  double frames_per_sec = 0.0;
  /// Frames/sec of the fastest pass with observability on and with spans
  /// and tracing switched off: interference only ever adds time, so the
  /// fastest pass is the side's cost with the least of it.
  double best_pass_fps_obs_on = 0.0;
  double best_pass_fps_obs_off = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double allocs_per_frame = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
  std::vector<StageReport> stages;
};

/// Streams `passes` full replays of the trace through one Session, frame by
/// frame, timing each push, each paired with a replay with the session's
/// spans and tracing switched off, timed the same way. The session is NOT
/// reset between passes: this is the steady-state serving shape (history
/// compaction, calibrated segmenter, warm buffers). Only the instrumented
/// passes feed the latency percentiles and the stage breakdown.
/// `latencies_us` must be preallocated by the caller so recording does not
/// allocate inside the measured window.
SingleSessionReport measure_single_session(
    const std::shared_ptr<const core::ModelBundle>& bundle,
    const sensor::MultiChannelTrace& trace, int passes,
    std::vector<double>& latencies_us) {
  core::Session session(bundle);
  std::uint64_t events = 0;
  const auto sink = [&events](const core::GestureEvent&) { ++events; };
  std::vector<double> frame(trace.channel_count());
  const std::size_t samples = trace.sample_count();

  // Warmup: grows the per-session buffers to their high-water marks and
  // calibrates the segmenter. Two passes, because the segmenter keeps
  // adapting through the first replay, so segment boundaries (and with
  // them scratch sizes) only reach their fixed point on the second.
  // Excluded from every reported number.
  for (int warm = 0; warm < 2; ++warm) {
    for (std::size_t i = 0; i < samples; ++i) {
      for (std::size_t c = 0; c < frame.size(); ++c)
        frame[c] = trace.channel(c)[i];
      session.push_frame(frame, sink);
    }
  }

  // Stage histograms should cover exactly the measured window, not warmup.
  obs::PipelineObservability& obs = session.observability();
  obs.reset_values();

  latencies_us.clear();
  // The uninstrumented passes record their latencies too, so both sides
  // do the same work apart from observability.
  std::vector<double> off_latencies_us;
  off_latencies_us.reserve(latencies_us.capacity());
  double wall_on_s = 0.0;
  double fastest_pass_s[2] = {0.0, 0.0};  // Indexed by `observed`.
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int pass = 0; pass < passes; ++pass) {
    // Alternate which side goes first, so a pair's position in the
    // sequence favours neither.
    for (const bool observed : {pass % 2 == 0, pass % 2 != 0}) {
      obs.set_spans_enabled(observed);
      obs.set_trace_enabled(observed);
      std::vector<double>& out = observed ? latencies_us : off_latencies_us;
      const auto pass_start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < samples; ++i) {
        for (std::size_t c = 0; c < frame.size(); ++c)
          frame[c] = trace.channel(c)[i];
        const auto t0 = std::chrono::steady_clock::now();
        session.push_frame(frame, sink);
        const auto t1 = std::chrono::steady_clock::now();
        out.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
      const double pass_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - pass_start)
                                .count();
      if (observed) wall_on_s += pass_s;
      double& fastest = fastest_pass_s[observed];
      if (fastest == 0.0 || pass_s < fastest) fastest = pass_s;
    }
  }
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);

  SingleSessionReport report;
  report.frames = static_cast<std::uint64_t>(passes) * samples;
  report.events = events;
  report.frames_per_sec = static_cast<double>(report.frames) / wall_on_s;
  report.best_pass_fps_obs_on =
      static_cast<double>(samples) / fastest_pass_s[1];
  report.best_pass_fps_obs_off =
      static_cast<double>(samples) / fastest_pass_s[0];
  // Both halves of the window count: neither may allocate.
  report.allocs_per_frame =
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(2 * report.frames);
  const auto nth = [&](double q) {
    const auto k = static_cast<std::size_t>(
        q * static_cast<double>(latencies_us.size() - 1));
    std::nth_element(latencies_us.begin(),
                     latencies_us.begin() + static_cast<long>(k),
                     latencies_us.end());
    return latencies_us[k];
  };
  report.p99_us = nth(0.99);
  report.p50_us = nth(0.50);

  // Per-stage breakdown from the session's latency histograms. Empty
  // stages (never hit in this stream) are omitted.
  const obs::MetricsSnapshot snapshot = obs.registry().snapshot();
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const char* name = obs::stage_name(static_cast<obs::Stage>(s));
    const obs::MetricEntry* e =
        snapshot.find(std::string("af_stage_") + name + "_ns");
    if (!e || e->count == 0) continue;
    StageReport stage;
    stage.name = name;
    stage.count = e->count;
    stage.sum_ns = e->value;
    stage.p50_ns = obs::histogram_quantile(*e, 0.50);
    stage.p99_ns = obs::histogram_quantile(*e, 0.99);
    stage.p999_ns = obs::histogram_quantile(*e, 0.999);
    report.stages.push_back(std::move(stage));
  }
  return report;
}

/// One shard's utilization during a big-sweep point (host shard telemetry,
/// DESIGN.md §18): where the wall-clock actually went, so a throughput
/// regression across shard counts is attributable from the report alone.
struct ShardUtil {
  std::size_t shard = 0;
  double busy_fraction = 0.0;
  std::uint64_t frames_drained = 0;
  double drain_batch_p50 = 0.0;
  double queue_wait_p50_ns = 0.0;
  std::size_t occupancy_high_water = 0;
};

/// One point of the 10k-scale host sweep, carrying the host shape it ran
/// under so the report stays interpretable without cross-referencing code.
struct BigSweepPoint {
  std::size_t shards = 0;
  std::size_t ring_frames = 0;
  const char* admission = "block";
  double frames_per_sec = 0.0;
  std::vector<ShardUtil> shard_util;
};

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli("bench_inference",
                  "steady-state inference hot-path baseline");
  cli.add_flag("passes", "4", "timed full-trace replays per measurement");
  cli.add_flag("streams", "16", "concurrent sessions in the host sweep");
  cli.add_flag("turn", "64", "frames fanned to each stream per host turn");
  cli.add_flag("big-streams", "0",
               "sessions in the 10k-scale host sweep (0 = skip it)");
  cli.add_flag("big-frames", "512", "frames fed per big-sweep session");
  cli.add_flag("baseline-fps", "0",
               "single-thread frames/sec of the path being compared "
               "against (0 = no comparison recorded)");
  cli.add_flag("out", "BENCH_inference.json", "JSON report path");
  const auto args = bench::parse_args(
      argc, argv, "bench_inference",
      "steady-state inference hot-path baseline", &cli);
  if (!args) return 0;

  const auto passes = static_cast<int>(cli.get_int("passes"));
  const auto streams = static_cast<std::size_t>(cli.get_int("streams"));
  const auto turn = static_cast<std::size_t>(cli.get_int("turn"));
  const auto big_streams =
      static_cast<std::size_t>(cli.get_int("big-streams"));
  const auto big_frames =
      static_cast<std::size_t>(cli.get_int("big-frames"));
  const double baseline_fps = cli.get_double("baseline-fps");

  std::cout << "training the shared bundle...\n";
  const auto bundle = bench::train_bundle(*args);

  // One gesture-dense stream: the hot path includes open-segment probing
  // and per-segment classification, not just idle-frame bookkeeping.
  const std::vector<synth::MotionKind> mix{
      synth::MotionKind::kCircle,     synth::MotionKind::kClick,
      synth::MotionKind::kScrollUp,   synth::MotionKind::kRub,
      synth::MotionKind::kScrollDown, synth::MotionKind::kDoubleClick,
  };
  synth::CollectionConfig stream_config;
  stream_config.users = 1;
  stream_config.seed = args->seed ^ 0x1FE6;
  const auto stream =
      synth::make_gesture_stream(stream_config, mix, stream_config.seed);

  std::cout << "single-session steady state (" << passes << " passes over "
            << stream.trace.sample_count() << " frames)...\n";
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(passes) *
                       stream.trace.sample_count());
  const SingleSessionReport single = [&] {
    common::ScopedThreads scoped(1);
    return measure_single_session(bundle, stream.trace, passes,
                                  latencies_us);
  }();
  std::cout << "  " << single.frames_per_sec << " frames/s, p50 "
            << single.p50_us << " us, p99 " << single.p99_us << " us, "
            << single.allocs_per_frame << " allocs/frame ("
            << single.events << " events)\n"
            << "  fastest pass: " << single.best_pass_fps_obs_on
            << " frames/s with observability on, "
            << single.best_pass_fps_obs_off << " off\n";
  for (const auto& s : single.stages)
    std::cout << "    stage " << s.name << ": " << s.count << " spans, p50 "
              << s.p50_ns << " ns, p99 " << s.p99_ns << " ns\n";

  // Host sweep: aggregate frame throughput of N sessions over the shared
  // bundle at several pool widths.
  std::vector<sensor::MultiChannelTrace> traces;
  std::uint64_t host_frames = 0;
  for (std::size_t s = 0; s < streams; ++s) {
    synth::CollectionConfig config;
    config.users = 1;
    config.seed = args->seed ^ (0x57AE0 + s);
    traces.push_back(
        synth::make_gesture_stream(config, mix, config.seed).trace);
    host_frames += traces.back().sample_count();
  }
  std::vector<std::size_t> counts{1, 2};
  const std::size_t native = common::resolve_thread_count();
  counts.push_back(native > 4 ? native : 4);
  std::vector<double> host_fps;
  for (std::size_t threads : counts) {
    common::ScopedThreads scoped(threads);
    double best = 1e100;
    for (int r = 0; r < 2; ++r) {
      core::MultiSessionHost host(bundle, traces.size());
      const auto start = std::chrono::steady_clock::now();
      // Parallel per-shard feeders: the sweep measures the host, not a
      // single-threaded producer (events stay bit-identical).
      const auto events = host.run_round_robin_parallel(traces, turn);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      static_cast<void>(events);
      best = std::min(best, wall);
    }
    host_fps.push_back(static_cast<double>(host_frames) / best);
    std::cout << "  host x" << streams << " @ " << threads
              << " threads: " << host_fps.back() << " frames/s\n";
  }

  // 10k-scale sweep (opt-in: --big-streams 10000): lanes reuse a small
  // pool of distinct traces and each receives a bounded slice, fed in
  // interleaved bursts while the shard workers classify concurrently.
  std::vector<BigSweepPoint> big_sweep;
  if (big_streams > 0) {
    constexpr std::size_t kBigPool = 32;
    std::vector<sensor::MultiChannelTrace> big_traces;
    for (std::size_t s = 0; s < kBigPool; ++s) {
      synth::CollectionConfig config;
      config.users = 1;
      config.seed = args->seed ^ (0xB16000 + s);
      big_traces.push_back(
          synth::make_gesture_stream(config, mix, config.seed).trace);
    }
    for (std::size_t shards : counts) {
      core::HostConfig host_config;
      host_config.shards = shards;
      core::MultiSessionHost host(bundle, big_streams,
                                  bundle->config().fault_policy,
                                  host_config);
      const auto start = std::chrono::steady_clock::now();
      constexpr std::size_t kBurst = 64;
      bench::feed_pooled(host, big_traces, big_streams, big_frames,
                         kBurst);
      host.finish();
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      BigSweepPoint point;
      point.shards = shards;
      point.ring_frames = host_config.ring_frames;
      point.admission = host_config.admission == core::Admission::kBlock
                            ? "block"
                            : "reject";
      point.frames_per_sec =
          static_cast<double>(host.frames_processed()) / wall;
      for (std::size_t s = 0; s < host.shard_count(); ++s) {
        const core::ShardTelemetry t = host.shard_telemetry(s);
        ShardUtil util;
        util.shard = s;
        util.busy_fraction = t.busy_fraction();
        util.frames_drained = t.frames_drained;
        util.drain_batch_p50 = t.drain_batch_p50;
        util.queue_wait_p50_ns = t.queue_wait_p50_ns;
        util.occupancy_high_water = t.occupancy_high_water;
        point.shard_util.push_back(util);
      }
      big_sweep.push_back(point);
      std::cout << "  host x" << big_streams << " @ " << shards
                << " shard(s), ring " << point.ring_frames << ", admission "
                << point.admission << ": " << point.frames_per_sec
                << " frames/s\n";
      for (const ShardUtil& u : big_sweep.back().shard_util)
        std::cout << "    shard " << u.shard << ": busy "
                  << 100.0 * u.busy_fraction << "%, " << u.frames_drained
                  << " frames, batch p50 " << u.drain_batch_p50
                  << ", queue wait p50 " << u.queue_wait_p50_ns
                  << " ns, occupancy hw " << u.occupancy_high_water << "\n";
    }
  }

  const double speedup =
      baseline_fps > 0.0 ? single.frames_per_sec / baseline_fps : 0.0;
  const auto emit = [&](std::ostream& os) {
    os << "{\n";
    os << "  \"frames_per_sec\": " << single.frames_per_sec << ",\n";
    os << "  \"best_pass_fps_obs_on\": " << single.best_pass_fps_obs_on
       << ",\n";
    os << "  \"best_pass_fps_obs_off\": " << single.best_pass_fps_obs_off
       << ",\n";
    os << "  \"p50_us\": " << single.p50_us << ",\n";
    os << "  \"p99_us\": " << single.p99_us << ",\n";
    os << "  \"allocs_per_frame\": " << single.allocs_per_frame << ",\n";
    os << "  \"threads\": 1,\n";
    os << "  \"frames_measured\": " << single.frames << ",\n";
    os << "  \"events\": " << single.events << ",\n";
    if (baseline_fps > 0.0) {
      os << "  \"baseline_frames_per_sec\": " << baseline_fps << ",\n";
      os << "  \"speedup_vs_baseline\": " << speedup << ",\n";
    }
    os << "  \"stages\": [";
    for (std::size_t i = 0; i < single.stages.size(); ++i) {
      const auto& s = single.stages[i];
      os << (i ? ", " : "") << "{\"name\": \"" << s.name
         << "\", \"count\": " << s.count << ", \"sum_ns\": " << s.sum_ns
         << ", \"p50_ns\": " << s.p50_ns << ", \"p99_ns\": " << s.p99_ns
         << ", \"p999_ns\": " << s.p999_ns << "}";
    }
    os << "],\n";
    os << "  \"host_scaling\": [";
    for (std::size_t i = 0; i < counts.size(); ++i) {
      os << (i ? ", " : "") << "{\"threads\": " << counts[i]
         << ", \"frames_per_sec\": " << host_fps[i] << "}";
    }
    os << "]";
    if (!big_sweep.empty()) {
      os << ",\n  \"host_scaling_10k\": {\"streams\": " << big_streams
         << ", \"frames_per_stream\": " << big_frames << ", \"sweep\": [";
      for (std::size_t i = 0; i < big_sweep.size(); ++i) {
        const BigSweepPoint& p = big_sweep[i];
        os << (i ? ", " : "") << "{\"shards\": " << p.shards
           << ", \"ring_frames\": " << p.ring_frames << ", \"admission\": \""
           << p.admission << "\", \"frames_per_sec\": " << p.frames_per_sec
           << ", \"shard_util\": [";
        for (std::size_t u = 0; u < p.shard_util.size(); ++u) {
          const ShardUtil& su = p.shard_util[u];
          os << (u ? ", " : "") << "{\"shard\": " << su.shard
             << ", \"busy_fraction\": " << su.busy_fraction
             << ", \"frames_drained\": " << su.frames_drained
             << ", \"drain_batch_p50\": " << su.drain_batch_p50
             << ", \"queue_wait_p50_ns\": " << su.queue_wait_p50_ns
             << ", \"occupancy_high_water\": " << su.occupancy_high_water
             << "}";
        }
        os << "]}";
      }
      os << "]}";
    }
    os << "\n}\n";
  };
  std::ofstream file(cli.get("out"));
  emit(file);
  std::cout << "\ninference report (" << cli.get("out") << "):\n";
  emit(std::cout);
  return 0;
}
