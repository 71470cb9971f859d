// bench_robustness — the tracked artifact-detection quality baseline.
//
// Measures the graded artifact layer (DESIGN.md §17) the way the serving
// path uses it: a FaultPolicy whose thresholds are derived from the clean
// corpus (the deployment recipe from core/health.hpp), storm traffic from
// the seeded FaultInjector at bench-default rates, and the per-class
// detection counters from obs::Registry. The JSON report (the tracked
// BENCH_robustness.json, refreshed with
// `build/bench/bench_robustness --out BENCH_robustness.json`) records, and
// the exit status gates:
//
//   * per-class detection rate: classified episodes / injected episodes,
//     for impulse, crackle, step, drift, and flicker storms;
//   * the false-positive gate on clean traffic: zero repair/escalation
//     actions, emissions byte-identical to strict mode, and the graded
//     suspect rate (the false-alarm proxy counters);
//   * the repaired-vs-unrepaired accuracy delta: gesture-event recall
//     against the clean trace's emissions with impulse repair on vs off;
//   * allocations per frame on both clean and storm traffic via this
//     binary's own counting operator-new hook — the artifact path rides
//     the 0-alloc hot path, held frames and all.
//
// --smoke shrinks the substrate for CI gating (tools/run_checks.sh runs
// it from the tier-1 tree); gates are identical, only the sample is
// smaller.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <iostream>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "sensor/artifact.hpp"
#include "sensor/fault_injector.hpp"
#include "support.hpp"

// ------------------------------------------------------------ alloc hook
namespace {
std::atomic<std::uint64_t> g_allocations{0};

/// Out of line, so no caller inlines a std::free against the replaced
/// operator new (GCC's -Wmismatched-new-delete would flag the pair).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
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

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace {

using namespace airfinger;

// ------------------------------------------------- policy derivation

/// Clean-corpus ceilings of the detector quantities the policy gates on.
struct CleanProfile {
  double ceiling = 0.0;  ///< max |x|.
  double max_dx = 0.0;   ///< max |x_t - x_{t-1}|.
  double max_vel = 0.0;  ///< max |EWMA baseline velocity| (warmed up).
};

CleanProfile measure_profile(const sensor::MultiChannelTrace& trace) {
  CleanProfile out;
  for (std::size_t c = 0; c < trace.channel_count(); ++c) {
    sensor::ChannelArtifactDetector det;
    const auto ch = trace.channel(c);
    for (std::size_t i = 0; i < ch.size(); ++i) {
      out.ceiling = std::max(out.ceiling, std::abs(ch[i]));
      if (i > 0)
        out.max_dx = std::max(out.max_dx, std::abs(ch[i] - ch[i - 1]));
      det.accept(ch[i]);
      if (det.warmed_up())
        out.max_vel = std::max(out.max_vel, std::abs(det.baseline_velocity()));
    }
  }
  return out;
}

/// The deployment recipe: repair floor above the worst clean step times a
/// full repair gap, drift threshold above the worst clean baseline bend,
/// saturation rail far enough out that the artifact layer owns the storms.
core::FaultPolicy derive_policy(const CleanProfile& profile) {
  core::FaultPolicy policy;
  policy.enabled = true;
  const double floor = 6.0 * profile.max_dx + 32.0;
  policy.saturation_level = profile.ceiling + 8.0 * floor;
  policy.saturation_run_limit = 8;
  policy.stuck_run_limit = 32;
  policy.recovery_frames = 32;
  policy.artifact.repair = true;
  policy.artifact.repair_z = 6.0;
  policy.artifact.repair_min_step = floor;
  policy.artifact.escalate = true;
  policy.artifact.detector.drift_velocity =
      std::max(2.0 * profile.max_vel, 0.05);
  return policy;
}

// ------------------------------------------------------ replay harness

struct Replay {
  std::vector<core::GestureEvent> events;
  std::uint64_t frames = 0;
  double allocs_per_frame = 0.0;
  std::uint64_t impulse_suspects = 0;
  std::uint64_t impulse_detected = 0;
  std::uint64_t impulse_repaired = 0;
  std::uint64_t crackle_detected = 0;
  std::uint64_t step_detected = 0;
  std::uint64_t drift_detected = 0;
  std::uint64_t flicker_detected = 0;
  std::uint64_t artifact_quarantines = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t recalibrations = 0;
};

/// Feeds `trace` through a fresh session frame by frame, measuring the
/// allocation count of the replay itself (per-session buffers reach their
/// high-water mark during a warmup pass over the first 128 frames).
Replay replay(const std::shared_ptr<const core::ModelBundle>& bundle,
              const core::FaultPolicy& policy,
              const sensor::MultiChannelTrace& trace) {
  Replay out;
  core::Session session(bundle, policy);
  std::vector<double> frame(trace.channel_count());
  out.events.reserve(64);
  const auto sink = [&out](const core::GestureEvent& e) {
    out.events.push_back(e);
  };
  // Warmup: one full pass grows every per-session buffer (and this
  // harness's event vector) to its high-water mark; reset restores the
  // streaming state so the measured pass sees the whole trace from a cold
  // stream but warm allocations. clear() keeps the vector's capacity.
  for (std::size_t i = 0; i < trace.sample_count(); ++i) {
    for (std::size_t c = 0; c < frame.size(); ++c)
      frame[c] = trace.channel(c)[i];
    session.push_frame(frame, sink);
  }
  session.finish(sink);
  session.reset();
  out.events.clear();

  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < trace.sample_count(); ++i) {
    for (std::size_t c = 0; c < frame.size(); ++c)
      frame[c] = trace.channel(c)[i];
    session.push_frame(frame, sink);
  }
  const std::uint64_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);
  session.finish(sink);

  out.frames = session.health().frames;
  out.allocs_per_frame = static_cast<double>(allocs_after - allocs_before) /
                         static_cast<double>(trace.sample_count());
  const auto& obs = session.observability();
  const auto counter = [&](obs::Registry::Handle h) {
    return obs.registry().counter_value(h);
  };
  out.impulse_suspects = counter(obs.artifact_impulse_suspect);
  out.impulse_detected = counter(obs.artifact_impulse_detected);
  out.impulse_repaired = counter(obs.artifact_impulse_repaired);
  out.crackle_detected = counter(obs.artifact_crackle_detected);
  out.step_detected = counter(obs.artifact_step_detected);
  out.drift_detected = counter(obs.artifact_drift_detected);
  out.flicker_detected = counter(obs.artifact_flicker_detected);
  out.artifact_quarantines = counter(obs.artifact_quarantines);
  out.quarantines = session.health().quarantines;
  out.recalibrations = session.health().recalibrations;
  return out;
}

bool events_identical(const std::vector<core::GestureEvent>& a,
                      const std::vector<core::GestureEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].time_s != b[i].time_s ||
        a[i].gesture != b[i].gesture ||
        a[i].segment_begin != b[i].segment_begin ||
        a[i].segment_end != b[i].segment_end ||
        a[i].scroll.has_value() != b[i].scroll.has_value())
      return false;
    if (a[i].scroll &&
        (a[i].scroll->direction != b[i].scroll->direction ||
         a[i].scroll->velocity_mps != b[i].scroll->velocity_mps ||
         a[i].scroll->duration_s != b[i].scroll->duration_s))
      return false;
  }
  return true;
}

/// Fraction of the clean trace's events a storm replay recovered: greedy
/// in-order matching on (type, gesture label, segment start within a few
/// frames) — the accuracy proxy behind the repaired-vs-unrepaired delta.
double event_recall(const std::vector<core::GestureEvent>& clean,
                    const std::vector<core::GestureEvent>& storm) {
  if (clean.empty()) return 1.0;
  std::size_t matched = 0;
  std::size_t next = 0;
  for (const auto& want : clean) {
    for (std::size_t j = next; j < storm.size(); ++j) {
      const auto& got = storm[j];
      const auto begin_delta =
          got.segment_begin > want.segment_begin
              ? got.segment_begin - want.segment_begin
              : want.segment_begin - got.segment_begin;
      if (got.type == want.type && got.gesture == want.gesture &&
          begin_delta <= 8) {
        ++matched;
        next = j + 1;
        break;
      }
    }
  }
  return static_cast<double>(matched) / static_cast<double>(clean.size());
}

/// Merges an injector log into per-class episode counts, coalescing
/// events of one class whose spans overlap or touch across channels (a
/// crackle train hits one channel but the session classifies per stream).
std::size_t count_episodes(const std::vector<sensor::FaultEvent>& log,
                           sensor::FaultEvent::Kind kind,
                           std::size_t merge_gap) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (const auto& e : log)
    if (e.kind == kind) spans.emplace_back(e.begin, e.end);
  if (spans.empty()) return 0;
  std::sort(spans.begin(), spans.end());
  std::size_t episodes = 1;
  std::size_t end = spans.front().second;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first > end + merge_gap) {
      ++episodes;
      end = spans[i].second;
    } else {
      end = std::max(end, spans[i].second);
    }
  }
  return episodes;
}

struct ClassResult {
  const char* name = "";
  std::size_t episodes = 0;
  std::uint64_t detections = 0;
  double detection_rate = 0.0;
  double gate = 0.0;
  double allocs_per_frame = 0.0;
  std::uint64_t quarantines = 0;
  std::uint64_t recalibrations = 0;
};

}  // namespace

static int program(int argc, char** argv) {
  common::Cli cli("bench_robustness",
                  "artifact detection/repair quality baseline");
  cli.add_flag("smoke", "0", "1 = small CI substrate, same gates");
  cli.add_flag("out", "BENCH_robustness.json", "JSON report path");
  const auto args = bench::parse_args(
      argc, argv, "bench_robustness",
      "artifact detection/repair quality baseline", &cli);
  if (!args) return 0;
  const bool smoke = cli.get_int("smoke") != 0;

  std::cout << "training the shared bundle...\n";
  const auto bundle = bench::train_bundle(*args);

  // A long gesture-dense substrate: slow-class storms (400-sample drift
  // ramps, 600-sample flicker episodes) need room to play out against the
  // sustain windows.
  const std::vector<synth::MotionKind> mix{
      synth::MotionKind::kCircle,     synth::MotionKind::kClick,
      synth::MotionKind::kScrollUp,   synth::MotionKind::kRub,
      synth::MotionKind::kScrollDown, synth::MotionKind::kDoubleClick,
  };
  std::vector<synth::MotionKind> kinds;
  for (int rep = 0; rep < (smoke ? 2 : 6); ++rep)
    kinds.insert(kinds.end(), mix.begin(), mix.end());
  synth::CollectionConfig stream_config;
  stream_config.users = 1;
  stream_config.seed = args->seed ^ 0xAB0Bu;
  const auto stream =
      synth::make_gesture_stream(stream_config, kinds, stream_config.seed);
  const sensor::MultiChannelTrace& clean = stream.trace;
  std::cout << "substrate: " << clean.sample_count() << " samples x "
            << clean.channel_count() << " channels\n";

  const CleanProfile profile = measure_profile(clean);
  const core::FaultPolicy policy = derive_policy(profile);
  const double floor = policy.artifact.repair_min_step;
  std::cout << "derived policy: repair floor " << floor << ", drift velocity "
            << policy.artifact.detector.drift_velocity << ", rail "
            << policy.saturation_level << "\n";

  bool gates_ok = true;
  const auto gate_check = [&gates_ok](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "bench_robustness: GATE FAILED — " << what << "\n";
      gates_ok = false;
    }
  };

  // ---- clean traffic: byte identity, zero actions, suspect rate, allocs.
  std::cout << "clean traffic...\n";
  const Replay strict = replay(bundle, core::FaultPolicy{}, clean);
  const Replay graded = replay(bundle, policy, clean);
  const bool byte_identical = events_identical(strict.events, graded.events);
  const std::uint64_t clean_actions =
      graded.impulse_detected + graded.artifact_quarantines;
  const double suspect_rate =
      static_cast<double>(graded.impulse_suspects) /
      static_cast<double>(graded.frames);
  gate_check(byte_identical, "clean emissions differ from strict mode");
  gate_check(clean_actions == 0, "artifact actions fired on clean traffic");
  gate_check(graded.allocs_per_frame == 0.0,
             "clean hot path allocated with detectors active");
  std::cout << "  byte_identical=" << byte_identical << " actions="
            << clean_actions << " suspect_rate=" << suspect_rate
            << " allocs/frame=" << graded.allocs_per_frame << "\n";

  // ---- per-class storms at the bench-default rates.
  const double magnitude = 4.0 * floor;
  std::vector<ClassResult> classes;
  const auto run_class =
      [&](const char* name, double gate,
          const std::function<void(sensor::FaultInjectorConfig&)>& configure,
          const std::function<void(core::FaultPolicy&)>& adjust,
          sensor::FaultEvent::Kind kind, std::size_t merge_gap,
          const std::function<std::uint64_t(const Replay&)>& detections) {
        sensor::FaultInjectorConfig config;
        configure(config);
        sensor::FaultInjector injector(config, 7777);
        const auto corrupted = injector.corrupt(clean);
        core::FaultPolicy storm_policy = policy;
        if (adjust) adjust(storm_policy);
        const Replay r = replay(bundle, storm_policy, corrupted);
        ClassResult result;
        result.name = name;
        result.episodes = count_episodes(injector.log(), kind, merge_gap);
        result.detections = detections(r);
        result.detection_rate =
            result.episodes == 0
                ? 0.0
                : std::min(1.0, static_cast<double>(result.detections) /
                                    static_cast<double>(result.episodes));
        result.gate = gate;
        result.allocs_per_frame = r.allocs_per_frame;
        result.quarantines = r.quarantines;
        result.recalibrations = r.recalibrations;
        classes.push_back(result);
        gate_check(result.episodes > 0,
                   std::string(name) + ": storm injected no episodes");
        gate_check(result.detection_rate >= gate,
                   std::string(name) + ": detection rate " +
                       std::to_string(result.detection_rate) + " < " +
                       std::to_string(gate));
        gate_check(r.allocs_per_frame == 0.0,
                   std::string(name) + ": storm path allocated");
        std::cout << "  " << name << ": episodes=" << result.episodes
                  << " detections=" << result.detections << " rate="
                  << result.detection_rate << " (gate " << gate
                  << ") quarantines=" << r.quarantines << " allocs/frame="
                  << r.allocs_per_frame << "\n";
        return r;
      };

  std::cout << "storm traffic...\n";
  // Impulse: repaired episodes over injected glitches; escalation off so
  // the crackle rate monitor cannot eat the tail of a dense run.
  const Replay impulse_run = run_class(
      "impulse", 0.5,
      [&](sensor::FaultInjectorConfig& c) {
        c.glitch_rate = 0.004;
        c.glitch_magnitude = magnitude;
      },
      [](core::FaultPolicy& p) { p.artifact.escalate = false; },
      sensor::FaultEvent::Kind::kGlitch, 8,
      [](const Replay& r) { return r.impulse_repaired; });

  run_class(
      "crackle", 0.25,
      [&](sensor::FaultInjectorConfig& c) {
        c.crackle_rate = 0.0008;
        c.crackle_magnitude = magnitude;
      },
      nullptr, sensor::FaultEvent::Kind::kCrackle, 64,
      [](const Replay& r) { return r.crackle_detected; });

  run_class(
      "step", 0.25,
      [&](sensor::FaultInjectorConfig& c) {
        c.step_rate = 0.0008;
        c.step_magnitude = magnitude;
      },
      nullptr, sensor::FaultEvent::Kind::kStep, 64,
      [](const Replay& r) { return r.step_detected; });

  run_class(
      "drift", 0.25,
      [&](sensor::FaultInjectorConfig& c) {
        c.drift_rate = 0.0008;
        c.drift_run = 400;
        c.drift_magnitude = 8.0 * policy.artifact.detector.drift_velocity *
                            static_cast<double>(c.drift_run);
      },
      [](core::FaultPolicy& p) {
        p.saturation_level = std::numeric_limits<double>::infinity();
      },
      sensor::FaultEvent::Kind::kDrift, 400,
      [](const Replay& r) { return r.drift_detected; });

  run_class(
      "flicker", 0.25,
      [&](sensor::FaultInjectorConfig& c) {
        c.flicker_rate = 0.0008;
        c.flicker_run = 600;
        c.flicker_period = 8;
        c.flicker_magnitude = 4.0 * profile.max_dx;
      },
      nullptr, sensor::FaultEvent::Kind::kFlicker, 600,
      [](const Replay& r) { return r.flicker_detected; });

  // ---- repaired-vs-unrepaired accuracy delta on the impulse storm.
  std::cout << "repair accuracy delta...\n";
  sensor::FaultInjectorConfig impulse_config;
  impulse_config.glitch_rate = 0.004;
  impulse_config.glitch_magnitude = magnitude;
  sensor::FaultInjector impulse_injector(impulse_config, 7777);
  const auto impulse_trace = impulse_injector.corrupt(clean);
  core::FaultPolicy no_repair = policy;
  no_repair.artifact.repair = false;
  no_repair.artifact.escalate = false;
  const Replay unrepaired = replay(bundle, no_repair, impulse_trace);
  const double recall_repaired =
      event_recall(graded.events, impulse_run.events);
  const double recall_unrepaired =
      event_recall(graded.events, unrepaired.events);
  gate_check(recall_repaired >= recall_unrepaired,
             "repair reduced event recall under the impulse storm");
  std::cout << "  recall repaired=" << recall_repaired << " unrepaired="
            << recall_unrepaired << " delta="
            << recall_repaired - recall_unrepaired << "\n";

  // ------------------------------------------------------------- report
  const auto emit = [&](std::ostream& os) {
    os << "{\n";
    os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    os << "  \"substrate_samples\": " << clean.sample_count() << ",\n";
    os << "  \"repair_min_step\": " << floor << ",\n";
    os << "  \"drift_velocity_threshold\": "
       << policy.artifact.detector.drift_velocity << ",\n";
    os << "  \"clean\": {\"byte_identical\": "
       << (byte_identical ? "true" : "false")
       << ", \"action_false_positives\": " << clean_actions
       << ", \"impulse_suspect_rate\": " << suspect_rate
       << ", \"allocs_per_frame\": " << graded.allocs_per_frame
       << ", \"frames\": " << graded.frames << "},\n";
    os << "  \"classes\": [";
    for (std::size_t i = 0; i < classes.size(); ++i) {
      const ClassResult& r = classes[i];
      os << (i ? ", " : "") << "{\"name\": \"" << r.name
         << "\", \"episodes\": " << r.episodes
         << ", \"detections\": " << r.detections
         << ", \"detection_rate\": " << r.detection_rate
         << ", \"gate\": " << r.gate
         << ", \"quarantines\": " << r.quarantines
         << ", \"recalibrations\": " << r.recalibrations
         << ", \"allocs_per_frame\": " << r.allocs_per_frame << "}";
    }
    os << "],\n";
    os << "  \"repair_recall\": {\"clean_events\": " << graded.events.size()
       << ", \"repaired\": " << recall_repaired
       << ", \"unrepaired\": " << recall_unrepaired
       << ", \"delta\": " << recall_repaired - recall_unrepaired << "},\n";
    os << "  \"gates\": \"" << (gates_ok ? "pass" : "fail") << "\"\n";
    os << "}\n";
  };
  std::ofstream file(cli.get("out"));
  emit(file);
  std::cout << "\nrobustness report (" << cli.get("out") << "):\n";
  emit(std::cout);
  if (!gates_ok) {
    std::cerr << "bench_robustness: FAIL — one or more gates missed\n";
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return common::run_main(argc, argv, program);
}
