#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "sensor/artifact.hpp"
#include "sensor/fault_injector.hpp"
#include "synth/dataset.hpp"

namespace airfinger::perfbench {

namespace {

using synth::MotionKind;

constexpr std::size_t kLeadFrames = 300;  ///< Segmenter calibration (3 s).
constexpr std::size_t kLeadStagger = 512;  ///< One history page of doubles.
/// Typical synthesized frames per motion, idle padding included.
constexpr std::size_t kFramesPerMotion = 170;

std::vector<std::pair<MotionKind, int>> sparse_mix() {
  std::vector<std::pair<MotionKind, int>> mix;
  for (MotionKind k : synth::all_gestures()) mix.emplace_back(k, 1);
  for (MotionKind k : synth::non_gestures()) mix.emplace_back(k, 1);
  return mix;
}

std::vector<std::pair<MotionKind, int>> scroll_heavy_mix() {
  std::vector<std::pair<MotionKind, int>> mix;
  for (MotionKind k : synth::detect_gestures()) mix.emplace_back(k, 1);
  for (MotionKind k : synth::track_gestures()) mix.emplace_back(k, 3);
  for (MotionKind k : synth::non_gestures()) mix.emplace_back(k, 1);
  return mix;
}

std::vector<WorkloadSpec> build_workloads() {
  std::vector<WorkloadSpec> out;
  WorkloadSpec idle;
  idle.name = "paced_idle";
  idle.streams = 2000;
  idle.shards = 2;
  // Pools give two (idle) or four lanes per recording. Lanes replaying the
  // same gestures make the quality metrics spread across seeds: with twice
  // as many lanes per recording, precision spread 9% and false triggers
  // 9% over ten seeds.
  idle.pool_traces = 1024;
  idle.idle_splice_mean = 800;
  idle.budget_ms = 50.0;
  idle.mix = sparse_mix();
  idle.why =
      "production shape: long idle stretches between sparse motions, so "
      "per-frame ingest, host rings, park/unpark and per-session memory "
      "carry most of the cost";
  out.push_back(idle);

  WorkloadSpec dense;
  dense.name = "paced_dense";
  dense.streams = 1000;
  dense.shards = 2;
  dense.pool_traces = 256;
  dense.idle_splice_mean = 0;
  dense.budget_ms = 50.0;
  dense.mix = scroll_heavy_mix();
  dense.why =
      "back-to-back motions put most frames in open segments, so the timing "
      "cache, probe, ZEBRA and decide weigh more and shape the latency tail";
  out.push_back(dense);

  WorkloadSpec storm;
  storm.name = "paced_storm";
  storm.streams = 1000;
  storm.shards = 2;
  storm.pool_traces = 256;
  storm.idle_splice_mean = 150;
  storm.storm_share = 0.25;
  storm.budget_ms = 50.0;
  storm.mix = scroll_heavy_mix();
  storm.why =
      "the deployment fault policy on every lane and fault storms on a "
      "quarter of them: the only shape running ingest in policy mode, the "
      "artifact detectors, repair and quarantine";
  out.push_back(storm);
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 31;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 29);
}

std::vector<MotionKind> draw_kinds(
    const std::vector<std::pair<MotionKind, int>>& mix, std::size_t n,
    common::Rng& rng) {
  int total = 0;
  for (const auto& [kind, weight] : mix) total += weight;
  std::vector<MotionKind> kinds;
  kinds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto pick = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
    for (const auto& [kind, weight] : mix) {
      if (pick < weight) {
        kinds.push_back(kind);
        break;
      }
      pick -= weight;
    }
  }
  return kinds;
}

/// Appends `length` idle frames (rounded up to whole reflection periods)
/// for insertion at source frame `at`, by reflecting the `reach` frames
/// before it back and forth: the spliced stretch keeps the level and noise
/// of the idle signal around it, with no step at either seam.
void splice_idle(const std::vector<double>& src, std::size_t channels,
                 std::size_t at, std::size_t reach, std::size_t length,
                 std::vector<double>& out) {
  AF_EXPECT(reach >= 2 && reach <= at, "splice reach out of range");
  // Triangle walk over [at - reach, at - 1]: at-2, at-3, ..., at-reach,
  // at-reach+1, ..., at-1, then again. Every step moves one frame, and a
  // whole number of periods ends on at-1, which is followed by frame `at`.
  const std::size_t period = 2 * (reach - 1);
  const std::size_t total = (length + period - 1) / period * period;
  for (std::size_t j = 0; j < total; ++j) {
    const std::size_t u = j % period;
    const std::size_t idx =
        u < reach - 1 ? at - 2 - u : at - reach + (u - (reach - 1)) + 1;
    out.insert(out.end(), src.begin() + static_cast<long>(idx * channels),
               src.begin() + static_cast<long>((idx + 1) * channels));
  }
}

/// Squared frame-to-frame step summed over channels (the SBC energy the
/// segmenter sees at w = 1 sample).
double step_energy(const std::vector<double>& src, std::size_t channels,
                   std::size_t i) {
  double e = 0.0;
  for (std::size_t c = 0; c < channels; ++c) {
    const double d = src[i * channels + c] - src[(i - 1) * channels + c];
    e += d * d;
  }
  return e;
}

/// The splice point in [lo, hi] whose `reach` preceding frames are the
/// quietest (smallest largest frame-to-frame step energy), provided that
/// step stays under `quiet`: reflecting a transient (a pose change, the
/// ADC hitting its rail) would turn it into a periodic train. 0 when no
/// such point exists.
std::size_t quiet_point(const std::vector<double>& src, std::size_t channels,
                        std::size_t lo, std::size_t hi, std::size_t reach,
                        double quiet) {
  if (hi < lo + reach) return 0;
  std::size_t best = 0;
  double best_step = quiet;
  for (std::size_t p = lo + reach; p <= hi; ++p) {
    double worst = 0.0;
    for (std::size_t i = p - reach + 1; i < p && worst < best_step; ++i)
      worst = std::max(worst, step_energy(src, channels, i));
    if (worst < best_step) {
      best = p;
      best_step = worst;
    }
  }
  return best;
}

/// One pool recording: motions drawn from the mix, with an idle stretch
/// spliced into the gap after each motion when the workload asks for them,
/// and into the last gap as needed to reach `min_length` frames.
std::optional<PoolTrace> try_pool_trace(const WorkloadSpec& spec,
                                        std::uint64_t seed, std::size_t n,
                                        std::size_t min_length) {
  constexpr std::size_t kMargin = 8;  // frames kept clear of each motion
  common::Rng rng(seed);
  const std::vector<MotionKind> kinds = draw_kinds(spec.mix, n, rng);
  synth::CollectionConfig config;
  config.users = 1;
  config.seed = seed;
  const synth::GestureStream stream =
      synth::make_gesture_stream(config, kinds, seed);

  const std::size_t channels = stream.trace.channel_count();
  const std::size_t samples = stream.trace.sample_count();
  std::vector<double> src(samples * channels);
  for (std::size_t c = 0; c < channels; ++c) {
    const auto ch = stream.trace.channel(c);
    for (std::size_t i = 0; i < samples; ++i) src[i * channels + c] = ch[i];
  }
  // "Quiet" is relative to the recording's typical step, which idle noise
  // dominates.
  std::vector<double> steps;
  for (std::size_t i = 1; i < samples; ++i)
    steps.push_back(step_energy(src, channels, i));
  const auto mid = steps.begin() + static_cast<long>(steps.size() / 2);
  std::nth_element(steps.begin(), mid, steps.end());
  const double quiet = 25.0 * std::max(1.0, *mid);

  PoolTrace out;
  out.channels = channels;
  out.frames.reserve((min_length + samples) * channels);
  std::size_t cursor = 0;  // next source frame to copy
  for (std::size_t m = 0; m < kinds.size(); ++m) {
    const auto [begin, end] = stream.gesture_bounds[m];
    const std::size_t base = out.frames.size() / channels;
    out.labels.push_back(
        {base + (begin - cursor), base + (end - cursor), kinds[m]});
    const bool last = m + 1 == kinds.size();
    const std::size_t next_begin =
        last ? samples : stream.gesture_bounds[m + 1].first;
    std::size_t length = 0;
    if (spec.idle_splice_mean > 0)
      length = spec.idle_splice_mean / 2 +
               rng.below(static_cast<std::uint64_t>(spec.idle_splice_mean));
    std::size_t reach = 40;
    std::size_t at = quiet_point(src, channels, end + kMargin,
                                 next_begin - kMargin, reach, quiet);
    if (at == 0) {
      reach = 12;
      at = quiet_point(src, channels, end + kMargin, next_begin - kMargin,
                       reach, quiet);
    }
    if (last) {
      const std::size_t have =
          out.frames.size() / channels + (samples - cursor);
      if (have < min_length) length = std::max(length, min_length - have);
    }
    if (length == 0 || at == 0) continue;
    out.frames.insert(out.frames.end(),
                      src.begin() + static_cast<long>(cursor * channels),
                      src.begin() + static_cast<long>(at * channels));
    cursor = at;
    splice_idle(src, channels, at, reach, length, out.frames);
  }
  out.frames.insert(out.frames.end(),
                    src.begin() + static_cast<long>(cursor * channels),
                    src.end());
  if (out.length() < min_length) return std::nullopt;
  return out;
}

/// A pool recording of at least `min_length` frames: retries with more
/// motions when no quiet gap near the end could absorb the shortfall.
PoolTrace make_pool_trace(const WorkloadSpec& spec, std::uint64_t seed,
                          std::size_t min_length) {
  std::size_t n = min_length / (kFramesPerMotion + spec.idle_splice_mean) + 2;
  for (int attempt = 0; attempt < 8; ++attempt, n += 4)
    if (auto trace = try_pool_trace(spec, seed, n, min_length)) return *trace;
  throw PreconditionError(
      "could not build a pool recording of the required length");
}

/// Derived from the clean pool the way bench/robustness.cpp derives its
/// deployment policy: repair floor above the worst clean step, drift
/// threshold above the worst clean baseline bend, saturation rail well
/// beyond the clean ceiling.
core::FaultPolicy deployment_policy(const std::vector<PoolTrace>& pool,
                                    double* repair_floor, double* max_dx,
                                    double* drift_velocity) {
  double ceiling = 0.0, dx = 0.0, vel = 0.0;
  for (const PoolTrace& t : pool) {
    for (std::size_t c = 0; c < t.channels; ++c) {
      sensor::ChannelArtifactDetector det;
      for (std::size_t i = 0; i < t.length(); ++i) {
        const double x = t.frames[i * t.channels + c];
        ceiling = std::max(ceiling, std::abs(x));
        if (i > 0)
          dx = std::max(dx, std::abs(x - t.frames[(i - 1) * t.channels + c]));
        det.accept(x);
        if (det.warmed_up()) vel = std::max(vel, std::abs(det.baseline_velocity()));
      }
    }
  }
  core::FaultPolicy policy;
  policy.enabled = true;
  const double floor = 6.0 * dx + 32.0;
  policy.saturation_level = ceiling + 8.0 * floor;
  policy.saturation_run_limit = 8;
  policy.stuck_run_limit = 32;
  policy.recovery_frames = 32;
  policy.artifact.repair = true;
  policy.artifact.repair_z = 6.0;
  policy.artifact.repair_min_step = floor;
  policy.artifact.escalate = true;
  policy.artifact.detector.drift_velocity = std::max(2.0 * vel, 0.05);
  *repair_floor = floor;
  *max_dx = dx;
  *drift_velocity = policy.artifact.detector.drift_velocity;
  return policy;
}

/// Storm configuration of one artifact class at bench/robustness.cpp's
/// default rates and magnitudes.
sensor::FaultInjectorConfig storm_config(int cls, double floor, double max_dx,
                                         double drift_velocity) {
  sensor::FaultInjectorConfig c;
  const double magnitude = 4.0 * floor;
  switch (cls) {
    case 0:
      c.glitch_rate = 0.004;
      c.glitch_magnitude = magnitude;
      break;
    case 1:
      c.crackle_rate = 0.0008;
      c.crackle_magnitude = magnitude;
      break;
    case 2:
      c.step_rate = 0.0008;
      c.step_magnitude = magnitude;
      break;
    case 3:
      c.drift_rate = 0.0008;
      c.drift_run = 400;
      c.drift_magnitude =
          8.0 * drift_velocity * static_cast<double>(c.drift_run);
      break;
    default:
      c.flicker_rate = 0.0008;
      c.flicker_run = 600;
      c.flicker_period = 8;
      c.flicker_magnitude = 4.0 * max_dx;
      break;
  }
  return c;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = build_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::span<const char* const> storm_class_names() {
  static const char* const names[] = {"impulse", "crackle", "step", "drift",
                                      "flicker"};
  return names;
}

std::vector<Label> Inputs::lane_labels(std::size_t lane) const {
  const Lane& l = lanes[lane];
  std::vector<Label> out;
  for (const Label& label : pool[l.trace].labels) {
    if (label.end <= l.offset || label.begin >= l.offset + l.frames) continue;
    // Clipped to the run; the scorer treats labels that are not wholly
    // inside its scoring window as don't-care, and the window starts well
    // after frame 0.
    Label local = label;
    local.begin = std::max(label.begin, l.offset) - l.offset;
    local.end = std::min(label.end, l.offset + l.frames) - l.offset;
    out.push_back(local);
  }
  return out;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds) {
  Inputs in;
  in.ticks = kPacedWarmTicks +
             static_cast<std::size_t>(std::llround(seconds * spec.rate_hz));
  const std::size_t max_frames = kLeadFrames + kLeadStagger + in.ticks;
  // Each recording is half as long again as the longest lane, so the lanes
  // sharing it start many seconds apart.
  const std::size_t min_length = max_frames + max_frames / 2;
  in.pool.resize(spec.pool_traces);
  common::parallel_for(0, spec.pool_traces, [&](std::size_t p) {
    in.pool[p] = make_pool_trace(spec, mix_seed(seed, p + 1), min_length);
  });

  common::Rng rng(mix_seed(seed, 0x1A4E));
  in.lanes.resize(spec.streams);
  for (std::size_t i = 0; i < spec.streams; ++i) {
    Lane& lane = in.lanes[i];
    lane.trace = i % spec.pool_traces;
    lane.lead = kLeadFrames + static_cast<std::size_t>(rng.below(kLeadStagger));
    lane.frames = lane.lead + in.ticks;
    const std::size_t room = in.pool[lane.trace].length() - lane.frames;
    lane.offset = static_cast<std::size_t>(rng.below(room + 1));
  }

  if (spec.storm_share > 0.0) {
    double floor = 0.0, max_dx = 0.0, drift_velocity = 0.0;
    in.policy = deployment_policy(in.pool, &floor, &max_dx, &drift_velocity);
    // Storm recordings are spread evenly over the pool and cycle through
    // the five artifact classes; every lane replaying one carries it.
    const auto storms = static_cast<std::size_t>(std::llround(
        spec.storm_share * static_cast<double>(spec.pool_traces)));
    for (std::size_t s = 0; s < storms; ++s) {
      PoolTrace& trace = in.pool[s * spec.pool_traces / storms];
      const int cls = static_cast<int>(s % storm_class_names().size());
      sensor::MultiChannelTrace clean(trace.channels, spec.rate_hz);
      for (std::size_t i = 0; i < trace.length(); ++i)
        clean.push_frame(trace.frame(i));
      sensor::FaultInjector injector(
          storm_config(cls, floor, max_dx, drift_velocity),
          mix_seed(seed, 0x57012 + s));
      const sensor::MultiChannelTrace dirty = injector.corrupt(clean);
      for (std::size_t c = 0; c < trace.channels; ++c) {
        const auto ch = dirty.channel(c);
        for (std::size_t i = 0; i < ch.size(); ++i)
          trace.frames[i * trace.channels + c] = ch[i];
      }
      trace.storm_class = cls;
    }
  }
  return in;
}

}  // namespace airfinger::perfbench
