// Golden end-to-end regression traces (DESIGN.md §12).
//
// `tests/golden/` holds committed multi-channel recordings (`.aftrace`)
// with the exact GestureEvent sequence the engine emitted for them when
// they were recorded (`.afevents`). This test replays each committed trace
// through the full streaming path (Session::process_trace over the seeded
// reference bundle) and diffs the emitted events against the committed
// expectation text byte-for-byte — any behavioural drift anywhere in the
// pipeline (SBC, segmenter, feature bank, forests, routing, ZEBRA) shows
// up as an exact textual diff.
//
// Both file formats are line-oriented text with hex-float (`%a`) numbers,
// so round-trips are bit-exact and diffs are reviewable.
//
// The same recordings also drive the probe-parity check: every open
// segment the streaming front end finds in them is probed with both
// ModelBundle::probe_direction overloads, which must agree bit for bit.
//
// To regenerate after an intentional behaviour change:
//   AF_REGEN_GOLDEN=1 ./golden_replay_test
// then commit the rewritten files under tests/golden/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/data_processor.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "dsp/dynamic_threshold.hpp"
#include "dsp/sbc.hpp"
#include "probe_parity.hpp"
#include "sensor/artifact.hpp"
#include "sensor/fault_injector.hpp"
#include "sensor/trace_io.hpp"
#include "synth/dataset.hpp"

#ifndef AF_GOLDEN_DIR
#define AF_GOLDEN_DIR "tests/golden"
#endif

namespace airfinger {
namespace {

/// The reference bundle every golden expectation was recorded against.
const std::shared_ptr<const core::ModelBundle>& golden_bundle() {
  static const std::shared_ptr<const core::ModelBundle> bundle = [] {
    core::TrainerConfig config;
    config.users = 2;
    config.sessions = 1;
    config.repetitions = 3;
    config.non_gesture_repetitions = 3;
    config.seed = 11;
    return core::build_bundle(config);
  }();
  return bundle;
}

struct GoldenCase {
  const char* name;            ///< Base filename under tests/golden/.
  synth::MotionKind kind;      ///< Motion synthesized on regeneration.
};

const GoldenCase kCases[] = {
    {"circle", synth::MotionKind::kCircle},
    {"click", synth::MotionKind::kClick},
    {"scroll_up", synth::MotionKind::kScrollUp},
    {"scroll_down", synth::MotionKind::kScrollDown},
};

std::string hex(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

// Trace (de)serialization lives in sensor/trace_io.hpp (shared with
// af_inspect --stats); this file keeps only the event text format.

// ------------------------------------------------ event serialization

/// One event per line; every numeric field is either an integer or a
/// hex-float, so equality of the serialized text is bit-equality of the
/// event stream.
std::string serialize_events(const std::vector<core::GestureEvent>& events) {
  std::ostringstream os;
  os << "afevents 1\n";
  os << "events " << events.size() << "\n";
  for (const auto& e : events) {
    os << "type " << static_cast<int>(e.type);
    os << " time " << hex(e.time_s);
    os << " segment " << e.segment_begin << ' ' << e.segment_end;
    os << " gesture ";
    if (e.gesture)
      os << static_cast<int>(*e.gesture);
    else
      os << '-';
    os << " scroll ";
    if (e.scroll) {
      os << hex(e.scroll->direction) << ' ' << hex(e.scroll->velocity_mps)
         << ' ' << hex(e.scroll->duration_s) << ' '
         << (e.scroll->used_experience_velocity ? 1 : 0) << ' ';
      if (e.scroll->delta_t_s)
        os << hex(*e.scroll->delta_t_s);
      else
        os << '-';
    } else {
      os << '-';
    }
    os << "\n";
  }
  return os.str();
}

// ------------------------------------------------------------ file I/O

std::string golden_path(const std::string& name, const char* ext) {
  return std::string(AF_GOLDEN_DIR) + "/" + name + ext;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  AF_EXPECT(is.good(), "cannot open golden file " + path +
                           " (run AF_REGEN_GOLDEN=1 ./golden_replay_test "
                           "to record it)");
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  AF_EXPECT(os.good(), "cannot write golden file " + path);
  os << bytes;
  AF_EXPECT(os.good(), "short write to golden file " + path);
}

bool regen_requested() {
  const char* flag = std::getenv("AF_REGEN_GOLDEN");
  return flag != nullptr && *flag != '\0' && std::string(flag) != "0";
}

/// Synthesizes the golden recordings: one repetition of each case's motion
/// from a dedicated seed (distinct from any training/test corpus seed).
std::vector<sensor::MultiChannelTrace> synthesize_golden_traces() {
  synth::CollectionConfig config;
  config.users = 1;
  config.sessions = 1;
  config.repetitions = 1;
  config.kinds.clear();
  for (const auto& c : kCases) config.kinds.push_back(c.kind);
  config.seed = 777;
  const synth::Dataset dataset = synth::DatasetBuilder(config).collect();

  std::vector<sensor::MultiChannelTrace> traces(std::size(kCases));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    bool found = false;
    for (const auto& sample : dataset.samples) {
      if (sample.kind != kCases[i].kind) continue;
      traces[i] = sample.trace;
      found = true;
      break;
    }
    AF_ASSERT(found, "dataset missing a golden motion kind");
  }
  return traces;
}

// ---------------------------------------------------------------- tests

TEST(GoldenReplay, CommittedTracesReplayToCommittedEventsExactly) {
  if (regen_requested()) {
    const auto traces = synthesize_golden_traces();
    for (std::size_t i = 0; i < std::size(kCases); ++i) {
      core::Session session(golden_bundle());
      const auto events = session.process_trace(traces[i]);
      spill(golden_path(kCases[i].name, ".aftrace"),
            sensor::serialize_trace(traces[i]));
      spill(golden_path(kCases[i].name, ".afevents"),
            serialize_events(events));
    }
    GTEST_SKIP() << "golden files regenerated; re-run without "
                    "AF_REGEN_GOLDEN to verify";
  }

  for (const auto& golden : kCases) {
    SCOPED_TRACE(golden.name);
    std::istringstream trace_stream(
        slurp(golden_path(golden.name, ".aftrace")));
    const sensor::MultiChannelTrace trace = sensor::parse_trace(trace_stream);
    ASSERT_GT(trace.sample_count(), 0u);

    core::Session session(golden_bundle());
    const auto events = session.process_trace(trace);
    // Exact textual diff: any drift in the replayed stream shows as a
    // line-level difference against the committed expectation.
    EXPECT_EQ(serialize_events(events),
              slurp(golden_path(golden.name, ".afevents")));
  }
}

// ------------------------------------------- corruption storm goldens
//
// Committed recordings with injected artifact storms: the expectation
// files use the `afevents 2` format, which appends the session's
// structured pipeline-event ring (quarantine transitions, artifact
// classifications, segment lifecycle) to the gesture events — keyed by
// frame numbers, never wall-clock, so the text is deterministic. Any
// drift in detection, repair, classification, or recovery shows up as an
// exact textual diff.

/// Serializes a storm replay: the gesture events (v1 lines) plus the
/// retained pipeline events, one per line, frame-keyed.
std::string serialize_run(const std::vector<core::GestureEvent>& events,
                          const obs::PipelineObservability& obs) {
  std::ostringstream os;
  os << "afevents 2\n";
  {
    // Body identical to v1 so readers share the line grammar.
    const std::string v1 = serialize_events(events);
    os << v1.substr(v1.find('\n') + 1);
  }
  const auto pipeline = obs.ring().events();
  os << "pipeline " << pipeline.size() << " dropped " << obs.ring().dropped()
     << "\n";
  for (const auto& e : pipeline)
    os << "p " << static_cast<int>(e.kind) << ' ' << e.frame << ' '
       << e.begin << ' ' << e.end << ' ' << static_cast<int>(e.detail)
       << "\n";
  return os.str();
}

/// The clean substrate the storms corrupt: three repetitions of each
/// golden motion from a dedicated seed, appended — long enough for drift
/// ramps and flicker episodes to play out against the sustain windows.
const sensor::MultiChannelTrace& storm_substrate() {
  static const sensor::MultiChannelTrace trace = [] {
    synth::CollectionConfig config;
    config.users = 1;
    config.sessions = 1;
    config.repetitions = 3;
    config.kinds.clear();
    for (const auto& c : kCases) config.kinds.push_back(c.kind);
    config.seed = 778;
    const synth::Dataset dataset = synth::DatasetBuilder(config).collect();
    AF_ASSERT(!dataset.samples.empty(), "empty storm substrate corpus");
    sensor::MultiChannelTrace out = dataset.samples.front().trace;
    for (std::size_t i = 1; i < dataset.samples.size(); ++i)
      out.append(dataset.samples[i].trace);
    return out;
  }();
  return trace;
}

/// Clean-substrate measurements, for the same threshold-derivation recipe
/// the robustness suite and bench use (DESIGN.md §17).
struct StormProfile {
  double ceiling = 0.0;   ///< max |x|.
  double max_dx = 0.0;    ///< max |x_t - x_{t-1}|.
  double max_vel = 0.0;   ///< max |EWMA baseline velocity|.
};

const StormProfile& storm_profile() {
  static const StormProfile profile = [] {
    StormProfile out;
    const auto& trace = storm_substrate();
    for (std::size_t c = 0; c < trace.channel_count(); ++c) {
      sensor::ChannelArtifactDetector det;
      const auto ch = trace.channel(c);
      for (std::size_t i = 0; i < ch.size(); ++i) {
        out.ceiling = std::max(out.ceiling, std::abs(ch[i]));
        if (i > 0)
          out.max_dx = std::max(out.max_dx, std::abs(ch[i] - ch[i - 1]));
        det.accept(ch[i]);
        if (det.warmed_up())
          out.max_vel =
              std::max(out.max_vel, std::abs(det.baseline_velocity()));
      }
    }
    return out;
  }();
  return profile;
}

double storm_repair_floor() { return 6.0 * storm_profile().max_dx + 32.0; }

/// The graded policy every storm golden is recorded against.
core::FaultPolicy storm_policy() {
  core::FaultPolicy policy;
  policy.enabled = true;
  policy.saturation_level =
      storm_profile().ceiling + 8.0 * storm_repair_floor();
  policy.saturation_run_limit = 8;
  policy.stuck_run_limit = 32;
  policy.recovery_frames = 32;
  policy.artifact.repair = true;
  policy.artifact.repair_z = 6.0;
  policy.artifact.repair_min_step = storm_repair_floor();
  policy.artifact.escalate = true;
  policy.artifact.detector.drift_velocity =
      std::max(2.0 * storm_profile().max_vel, 0.05);
  return policy;
}

struct StormCase {
  const char* name;
  std::uint64_t seed;
  void (*configure)(sensor::FaultInjectorConfig&);
  /// Per-case policy adjustment (nullptr: storm_policy() as-is).
  void (*adjust)(core::FaultPolicy&);
};

const StormCase kStormCases[] = {
    {"storm_impulse_crackle", 41,
     [](sensor::FaultInjectorConfig& c) {
       c.glitch_rate = 0.004;
       c.glitch_magnitude = 4.0 * storm_repair_floor();
       c.crackle_rate = 0.0008;
       c.crackle_magnitude = 4.0 * storm_repair_floor();
     },
     nullptr},
    {"storm_step", 42,
     [](sensor::FaultInjectorConfig& c) {
       c.step_rate = 0.001;
       c.step_magnitude = 4.0 * storm_repair_floor();
     },
     nullptr},
    {"storm_drift_flicker", 43,
     [](sensor::FaultInjectorConfig& c) {
       const double slope = 8.0 * std::max(2.0 * storm_profile().max_vel,
                                           0.05);
       c.drift_rate = 0.0008;
       c.drift_run = 400;
       c.drift_magnitude = slope * static_cast<double>(c.drift_run);
       c.flicker_rate = 0.0008;
       c.flicker_run = 600;
       c.flicker_period = 8;
       c.flicker_magnitude = 4.0 * storm_profile().max_dx;
     },
     [](core::FaultPolicy& p) {
       // The slow detectors, not the saturation rail, own this storm.
       p.saturation_level = std::numeric_limits<double>::infinity();
     }},
};

core::FaultPolicy storm_case_policy(const StormCase& storm) {
  core::FaultPolicy policy = storm_policy();
  if (storm.adjust != nullptr) storm.adjust(policy);
  return policy;
}

TEST(GoldenReplay, CommittedStormTracesReplayToCommittedEventsExactly) {
  if (regen_requested()) {
    for (const StormCase& storm : kStormCases) {
      sensor::FaultInjectorConfig config;
      storm.configure(config);
      sensor::FaultInjector injector(config, storm.seed);
      const auto corrupted = injector.corrupt(storm_substrate());
      ASSERT_FALSE(injector.log().empty()) << storm.name;

      core::Session session(golden_bundle(), storm_case_policy(storm));
      const auto events = session.process_trace(corrupted);
      const std::string run = serialize_run(events, session.observability());
      // A storm golden without a quarantine transition would not pin the
      // escalation path at all — refuse to record one.
      std::size_t quarantine_enters = 0;
      for (const auto& e : session.observability().ring().events())
        if (e.kind == obs::PipelineEvent::Kind::kQuarantineEnter)
          ++quarantine_enters;
      ASSERT_GE(quarantine_enters, 1u)
          << storm.name << ": storm produced no quarantine transition";
      spill(golden_path(storm.name, ".aftrace"),
            sensor::serialize_trace(corrupted));
      spill(golden_path(storm.name, ".afevents"), run);
    }
    GTEST_SKIP() << "storm golden files regenerated; re-run without "
                    "AF_REGEN_GOLDEN to verify";
  }

  for (const StormCase& storm : kStormCases) {
    SCOPED_TRACE(storm.name);
    std::istringstream trace_stream(
        slurp(golden_path(storm.name, ".aftrace")));
    const sensor::MultiChannelTrace trace = sensor::parse_trace(trace_stream);
    ASSERT_GT(trace.sample_count(), 0u);

    core::Session session(golden_bundle(), storm_case_policy(storm));
    const auto events = session.process_trace(trace);
    EXPECT_EQ(serialize_run(events, session.observability()),
              slurp(golden_path(storm.name, ".afevents")));
  }
}

// ------------------------------------------------------- probe parity
//
// Sessions probe every open segment with the cached probe_direction
// overload; the cacheless overload is its batch reference. Each committed
// recording runs through the session's front end (one SBC per channel,
// then the streaming segmenter with the bundle's config), each open
// segment's view grows one frame at a time, and at every frame past
// 2·I_g + 2 both overloads must return bit-identical estimates. The
// streaming path stops probing once it has a verdict; this check keeps
// probing, so it covers every prefix the session could reach.

TEST(GoldenReplay, CachedProbeMatchesCachelessOnCommittedTraces) {
  const auto& bundle = golden_bundle();
  const core::AirFingerConfig& config = bundle->config();
  const std::size_t channels = config.channels;
  const double rate = config.sample_rate_hz;
  const std::size_t window =
      core::DataProcessor(config.processing).window_samples(rate);
  dsp::SegmenterConfig segmenter_config = config.processing.segmenter;
  segmenter_config.sample_rate_hz = rate;
  const auto ig_samples =
      static_cast<std::size_t>(config.router.ig_threshold_s * rate);

  std::vector<std::string> names;
  for (const auto& golden : kCases) names.emplace_back(golden.name);
  for (const auto& storm : kStormCases) names.emplace_back(storm.name);

  std::size_t probes = 0, estimates = 0;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    std::istringstream trace_stream(slurp(golden_path(name, ".aftrace")));
    const sensor::MultiChannelTrace trace = sensor::parse_trace(trace_stream);
    ASSERT_EQ(trace.channel_count(), channels);

    std::vector<dsp::SquareBasedCalculator> sbc(
        channels, dsp::SquareBasedCalculator(window));
    dsp::DynamicThresholdSegmenter segmenter(segmenter_config);
    core::OpenSegmentTiming cache;
    cache.configure(channels, rate, bundle->probe_timing_config());
    features::Workspace cached_ws;
    features::Workspace batch_ws;
    core::ProcessedTrace view;
    view.sample_rate_hz = rate;
    std::vector<double> deltas(channels);
    for (std::size_t i = 0; i < trace.sample_count(); ++i) {
      double energy = 0.0;
      for (std::size_t c = 0; c < channels; ++c) {
        deltas[c] = sbc[c].push(trace.channel(c)[i]);
        energy += deltas[c];
      }
      const bool was_open = segmenter.in_gesture();
      segmenter.push(energy);
      if (!segmenter.in_gesture()) continue;
      if (!was_open) {
        view.delta_rss2.assign(channels, {});
        view.energy.clear();
        cache.begin_segment();
      }
      for (std::size_t c = 0; c < channels; ++c)
        view.delta_rss2[c].push_back(deltas[c]);
      view.energy.push_back(energy);
      cache.append(deltas);

      const std::size_t open_len = view.energy.size();
      if (open_len <= 2 * ig_samples + 2) continue;
      const dsp::Segment local{0, open_len};
      const auto cached =
          bundle->probe_direction(view, local, cached_ws, cache);
      test::expect_estimates_equal(
          cached, bundle->probe_direction(view, local, batch_ws), open_len);
      ++probes;
      if (cached) ++estimates;
    }
  }
  // Both verdicts must actually occur, or the parity would be vacuous.
  EXPECT_GT(probes, estimates);
  EXPECT_GT(estimates, 0u);
}

TEST(GoldenReplay, TraceSerializationRoundTripsBitExactly) {
  const auto traces = synthesize_golden_traces();
  for (const auto& trace : traces) {
    const std::string bytes = sensor::serialize_trace(trace);
    std::istringstream is(bytes);
    const sensor::MultiChannelTrace back = sensor::parse_trace(is);
    ASSERT_EQ(back.channel_count(), trace.channel_count());
    ASSERT_EQ(back.sample_count(), trace.sample_count());
    EXPECT_EQ(back.sample_rate_hz(), trace.sample_rate_hz());
    for (std::size_t c = 0; c < trace.channel_count(); ++c)
      for (std::size_t i = 0; i < trace.sample_count(); ++i)
        EXPECT_EQ(back.channel(c)[i], trace.channel(c)[i]);
    EXPECT_EQ(sensor::serialize_trace(back), bytes);
  }
}

}  // namespace
}  // namespace airfinger
