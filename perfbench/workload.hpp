// Workload definitions and seeded input generation for the serving
// benchmark.
//
// A workload is a traffic shape: how many 100 Hz streams (paced on a
// real-time tick, open loop), what share of their frames carry motion, and
// what share of lanes carry sensor fault storms. Inputs are built from a seed before
// any timing starts: a pool of labelled recordings from
// synth::make_gesture_stream (with idle stretches spliced in for the
// idle-heavy shape), and per-lane offsets into that pool so gestures do not
// line up across lanes. The program under test only ever sees the frames.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/health.hpp"
#include "synth/motion_kind.hpp"

namespace airfinger::perfbench {

/// One workload's fixed parameters (the records BENCHMARK.json's `why`
/// lines summarize; `perfbench_serve --describe` prints them all).
struct WorkloadSpec {
  std::string name;
  double rate_hz = 100.0;        ///< Frame rate of every stream.
  std::size_t streams = 0;       ///< Host lanes.
  std::size_t shards = 1;        ///< Host shards.
  std::size_t pool_traces = 0;   ///< Distinct labelled recordings.
  /// Mean idle frames spliced after each motion (0 = motions back to back,
  /// separated only by the synthesizer's own idle padding).
  std::size_t idle_splice_mean = 0;
  /// Share of pool recordings (and so of lanes) carrying a fault storm;
  /// non-zero also runs every session under the deployment fault policy.
  double storm_share = 0.0;
  double budget_ms = 0.0;        ///< p99 event-latency budget.
  /// Motion mix, as (kind, weight) pairs.
  std::vector<std::pair<synth::MotionKind, int>> mix;
  std::string why;
};

/// The benchmark's workloads: paced_idle, paced_dense, paced_storm.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// A labelled interval of a recording in sample indices [begin, end).
struct Label {
  std::size_t begin = 0;
  std::size_t end = 0;
  synth::MotionKind kind = synth::MotionKind::kCircle;
};

/// One pool recording: frame-major samples (frame i, channel c at
/// i * channels + c) plus the labels of every motion in it.
struct PoolTrace {
  std::vector<double> frames;
  std::size_t channels = 0;
  std::vector<Label> labels;
  int storm_class = -1;  ///< Index into storm_class_names(), -1 = clean.
  std::size_t length() const { return frames.size() / channels; }
  std::span<const double> frame(std::size_t i) const {
    return {frames.data() + i * channels, channels};
  }
};

/// A lane: which pool recording it replays and from which frame, and how
/// many frames it receives.
struct Lane {
  std::size_t trace = 0;
  std::size_t offset = 0;
  std::size_t frames = 0;  ///< Frames the lane receives in a run.
  /// Frames fed closed-loop before the first tick (segmenter calibration
  /// plus a per-lane stagger, so lanes do not cross history page and
  /// compaction boundaries on the same tick). Tick j feeds frame lead + j.
  std::size_t lead = 0;
};

/// Everything a workload run feeds: the pool, the lanes, the number of
/// ticks, and the fault policy sessions run under.
struct Inputs {
  std::vector<PoolTrace> pool;
  std::vector<Lane> lanes;
  std::size_t ticks = 0;         ///< Paced ticks, warm-up included.
  core::FaultPolicy policy{};    ///< Strict unless the workload has storms.

  std::span<const double> frame(std::size_t lane, std::size_t k) const {
    const Lane& l = lanes[lane];
    return pool[l.trace].frame(l.offset + k);
  }
  /// Labels of `lane` in lane-local frame indices, clipped to the run.
  std::vector<Label> lane_labels(std::size_t lane) const;
  /// The storm class `lane`'s recording carries, -1 when clean.
  int storm_class(std::size_t lane) const {
    return pool[lanes[lane].trace].storm_class;
  }
};

/// Leading ticks of a run that are paced but not measured.
inline constexpr std::size_t kPacedWarmTicks = 100;

/// The five artifact classes a storm lane can carry.
std::span<const char* const> storm_class_names();

/// Builds the inputs of `spec` for a run measuring `seconds`
/// (kPacedWarmTicks + seconds * rate ticks after each lane's lead).
/// Deterministic in (spec, seed, seconds). Pool recordings are synthesized
/// on the current thread pool; the result is the same at any width.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds);

}  // namespace airfinger::perfbench
