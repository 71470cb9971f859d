// End-to-end observability determinism (DESIGN.md §13).
//
// The instrumentation contract has two halves, both verified here against
// real replays of synthesized gesture streams:
//
//   * record-only — a session's emitted GestureEvents are bit-identical
//     with stage spans enabled, runtime-disabled, and at any host thread
//     count; observability never feeds back into a decision;
//   * deterministic under TickClock — with a tick clock injected, the
//     structured event log, the metric registry, and both exposition
//     renderings are byte-identical across runs and across AF_THREADS
//     settings, because each session's clock-read sequence is a pure
//     function of its input stream.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/multi_session_host.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "obs/exposition.hpp"
#include "synth/dataset.hpp"

namespace airfinger {
namespace {

/// Small shared bundle (same scale as the golden-replay reference).
const std::shared_ptr<const core::ModelBundle>& test_bundle() {
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

/// One deterministic gesture-dense stream per lane index.
sensor::MultiChannelTrace lane_trace(std::size_t lane) {
  const std::vector<synth::MotionKind> mix{
      synth::MotionKind::kCircle,   synth::MotionKind::kClick,
      synth::MotionKind::kScrollUp, synth::MotionKind::kScrollDown,
  };
  synth::CollectionConfig config;
  config.users = 1;
  config.seed = 0x0B5 + 17 * lane;
  return synth::make_gesture_stream(config, mix, config.seed).trace;
}

/// Replays `trace` through a fresh instrumented session under a TickClock
/// and renders everything observability produced as one text blob.
std::string traced_replay(const sensor::MultiChannelTrace& trace,
                          bool spans_enabled) {
  core::Session session(test_bundle());
  session.observability().set_clock(std::make_unique<obs::TickClock>(1000));
  session.observability().set_spans_enabled(spans_enabled);
  session.observability().set_sample_every(1);  // full-fidelity replay
  const auto events = session.process_trace(trace);

  std::ostringstream os;
  os << "events " << events.size() << "\n";
  obs::write_prometheus(os, session.observability().registry().snapshot());
  session.observability().dump_events(os);
  return os.str();
}

std::string serialize_emissions(const std::vector<core::GestureEvent>& events) {
  std::ostringstream os;
  for (const auto& e : events) os << e.describe() << "\n";
  return os.str();
}

// ---------------------------------------------------------------- session

TEST(ObsPipeline, TickClockTraceIsByteIdenticalAcrossRuns) {
  const sensor::MultiChannelTrace trace = lane_trace(0);
  const std::string first = traced_replay(trace, true);
  const std::string second = traced_replay(trace, true);
  EXPECT_EQ(first, second);
  // The trace actually contains signal: frames flowed, stages were timed,
  // structured events were recorded.
  EXPECT_NE(first.find("af_frames_total " +
                       std::to_string(trace.sample_count())),
            std::string::npos);
  EXPECT_NE(first.find("segment_open"), std::string::npos);
  EXPECT_NE(first.find("emit"), std::string::npos);
}

TEST(ObsPipeline, EmissionsAreIdenticalWithSpansOnOrOff) {
  const sensor::MultiChannelTrace trace = lane_trace(1);

  core::Session on(test_bundle());
  on.observability().set_spans_enabled(true);
  const auto events_on = on.process_trace(trace);

  core::Session off(test_bundle());
  off.observability().set_spans_enabled(false);
  const auto events_off = off.process_trace(trace);

  ASSERT_GT(events_on.size(), 0u);
  EXPECT_EQ(serialize_emissions(events_on), serialize_emissions(events_off));

  // The runtime switch silences the stage histograms but not the counters
  // or the structured log — those are part of the session's accounting.
  const auto snap_off = off.observability().registry().snapshot();
  EXPECT_EQ(snap_off.find("af_stage_ingest_ns")->count, 0u);
  EXPECT_EQ(snap_off.find("af_frames_total")->count, trace.sample_count());
}

TEST(ObsPipeline, CountersReconcileWithEmittedEvents) {
  const sensor::MultiChannelTrace trace = lane_trace(2);
  core::Session session(test_bundle());
  session.observability().set_sample_every(1);
  const auto events = session.process_trace(trace);

  const auto snap = session.observability().registry().snapshot();
  EXPECT_EQ(snap.find("af_frames_total")->count, trace.sample_count());
  std::uint64_t emitted = snap.find("af_events_detect_total")->count +
                          snap.find("af_events_scroll_total")->count +
                          snap.find("af_events_direction_total")->count +
                          snap.find("af_events_rejected_total")->count;
  EXPECT_EQ(emitted, events.size());
  const std::uint64_t opened = snap.find("af_segments_opened_total")->count;
  const std::uint64_t closed = snap.find("af_segments_closed_total")->count;
  const std::uint64_t abandoned =
      snap.find("af_segments_abandoned_total")->count;
  EXPECT_GT(opened, 0u);
  EXPECT_EQ(opened, closed + abandoned);
  // Health view and registry view are the same numbers.
  EXPECT_EQ(session.health().frames, trace.sample_count());

  // With spans enabled and sampling at full fidelity, the per-frame stage
  // was timed on every frame.
  const auto* ingest = snap.find("af_stage_ingest_ns");
  EXPECT_EQ(ingest->count, trace.sample_count());
}

TEST(ObsPipeline, PerFrameSpanSamplingIsDeterministic) {
  const sensor::MultiChannelTrace trace = lane_trace(1);
  core::Session sampled(test_bundle());
  ASSERT_EQ(sampled.observability().sample_every(),
            obs::PipelineObservability::kDefaultSampleEvery);
  const auto events_sampled = sampled.process_trace(trace);

  core::Session full(test_bundle());
  full.observability().set_sample_every(1);
  const auto events_full = full.process_trace(trace);

  // Sampling only thins the per-frame stage histograms — emissions,
  // counters, and the structured event log are untouched by it.
  ASSERT_GT(events_full.size(), 0u);
  EXPECT_EQ(serialize_emissions(events_sampled),
            serialize_emissions(events_full));

  // 1-in-N on the frame counter, first frame sampled: exactly ceil(n / N)
  // ingest observations, bit-stable across runs.
  const std::uint64_t n = trace.sample_count();
  const std::uint64_t every = obs::PipelineObservability::kDefaultSampleEvery;
  const auto snap = sampled.observability().registry().snapshot();
  EXPECT_EQ(snap.find("af_stage_ingest_ns")->count, (n + every - 1) / every);
}

TEST(ObsPipeline, SessionResetClearsObservability) {
  const sensor::MultiChannelTrace trace = lane_trace(0);
  core::Session session(test_bundle());
  (void)session.process_trace(trace);
  ASSERT_GT(session.observability().registry().snapshot()
                .find("af_frames_total")->count, 0u);
  session.reset();
  const auto snap = session.observability().registry().snapshot();
  EXPECT_EQ(snap.find("af_frames_total")->count, 0u);
  EXPECT_EQ(session.observability().ring().size(), 0u);
  // And a fresh replay after reset matches a fresh session bit-for-bit.
  const auto after_reset = session.process_trace(trace);
  core::Session fresh(test_bundle());
  EXPECT_EQ(serialize_emissions(after_reset),
            serialize_emissions(fresh.process_trace(trace)));
}

// ------------------------------------------------------------------- host

/// Runs a 4-lane host at `threads` pool width with TickClocks injected and
/// returns (drained events text, aggregate metrics prometheus text).
std::pair<std::string, std::string> host_run(std::size_t threads) {
  common::ScopedThreads scoped(threads);
  std::vector<sensor::MultiChannelTrace> traces;
  for (std::size_t lane = 0; lane < 4; ++lane)
    traces.push_back(lane_trace(lane));

  core::MultiSessionHost host(test_bundle(), traces.size());
  for (std::size_t lane = 0; lane < traces.size(); ++lane)
    host.mutable_session(lane).observability().set_clock(
        std::make_unique<obs::TickClock>(1000));

  const auto events = host.run_round_robin(traces);
  std::ostringstream os;
  for (const auto& e : events)
    os << e.session << " " << e.event.describe() << "\n";
  return {os.str(), obs::to_prometheus(host.aggregate_metrics())};
}

TEST(ObsPipeline, HostTraceAndMetricsAreThreadCountInvariant) {
  const auto [events1, metrics1] = host_run(1);
  const auto [events4, metrics4] = host_run(4);
  EXPECT_GT(events1.size(), 0u);
  EXPECT_EQ(events1, events4);
  EXPECT_EQ(metrics1, metrics4);
  // Host-level series are present in the exposition.
  EXPECT_NE(metrics1.find("af_host_sessions 4"), std::string::npos);
}

}  // namespace
}  // namespace airfinger
