// Gesture-scoped tracing, flight recorder, and trace export (DESIGN.md
// §18).
//
// The tracing layer's contract mirrors the rest of the observability
// stack:
//
//   * record-only — emissions are byte-identical with tracing on and
//     off;
//   * deterministic under TickClock — the exported Chrome trace-event
//     JSON is byte-identical across runs and across host shard counts,
//     because the trace layer adds no clock reads of its own;
//   * alloc-free after construction — recording, finalizing, and flight
//     capture are struct copies into preallocated storage (pinned by
//     perfbench's post-reset() replay and bench_robustness's storm
//     traffic, which must allocate nothing with tracing on).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/multi_session_host.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "sensor/fault_injector.hpp"
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
  config.seed = 0x7AC3 + 23 * lane;
  return synth::make_gesture_stream(config, mix, config.seed).trace;
}

std::string serialize_emissions(const std::vector<core::GestureEvent>& events) {
  std::ostringstream os;
  for (const auto& e : events) os << e.describe() << "\n";
  return os.str();
}

/// Replays `streams` lanes through a host at `shards` and returns the
/// Chrome trace-event JSON of every completed gesture trace. Sessions run
/// under TickClock at full span fidelity.
std::string hosted_chrome_trace(std::size_t streams, std::size_t shards) {
  std::vector<sensor::MultiChannelTrace> traces;
  for (std::size_t s = 0; s < streams; ++s) traces.push_back(lane_trace(s));
  core::HostConfig config;
  config.shards = shards;
  core::MultiSessionHost host(test_bundle(), streams,
                              test_bundle()->config().fault_policy, config);
  for (std::size_t s = 0; s < streams; ++s) {
    auto& obs = host.mutable_session(s).observability();
    obs.set_sample_every(1);
    obs.set_clock(std::make_unique<obs::TickClock>(1000));
  }
  host.run_round_robin(traces, 37);
  std::vector<obs::SessionTraces> sessions;
  for (std::size_t s = 0; s < streams; ++s)
    sessions.push_back(obs::SessionTraces{
        s, host.session(s).observability().tracer().completed()});
  return obs::to_chrome_trace(sessions);
}

// ------------------------------------------------------- recorder ring

TEST(TraceRecorder, RingOverwritesOldestAndCountsEvictions) {
  obs::TraceRecorder recorder(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    recorder.begin(/*frame=*/10 * i, /*begin=*/100 * i, /*t_ns=*/1000 * i);
    recorder.note_close(10 * i + 5, 100 * i + 50, 1000 * i + 500);
    EXPECT_GE(recorder.note_emit(/*type=*/1, 10 * i + 5, 1000 * i + 600),
              0);
  }
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 3u);
  EXPECT_EQ(recorder.completed_total(), 5u);
  const auto completed = recorder.completed();
  ASSERT_EQ(completed.size(), 2u);
  // Oldest-first, ids keep counting across evictions.
  EXPECT_EQ(completed[0].trace_id, 4u);
  EXPECT_EQ(completed[1].trace_id, 5u);
  EXPECT_EQ(completed[1].outcome, obs::GestureTrace::Outcome::kEmitted);
  EXPECT_EQ(completed[1].e2e_ns(), 600);
  ASSERT_NE(recorder.latest(), nullptr);
  EXPECT_EQ(recorder.latest()->trace_id, 5u);
}

TEST(TraceRecorder, MidSegmentEmitIsAMarkerNotAFinalization) {
  obs::TraceRecorder recorder;
  recorder.begin(1, 10, 1000);
  // Early-direction emission while the segment is still open.
  EXPECT_EQ(recorder.note_emit(/*type=*/3, 4, 1400), -1);
  EXPECT_TRUE(recorder.active());
  EXPECT_EQ(recorder.active_trace().mark_count, 1u);
  recorder.note_close(9, 90, 1900);
  EXPECT_EQ(recorder.note_emit(/*type=*/1, 9, 2000), 1000);
  EXPECT_FALSE(recorder.active());
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.latest()->mark_count, 2u);
}

// --------------------------------------------------- event-driven routing

TEST(TraceRouting, RecordedLifecycleDrivesTheActiveTrace) {
  obs::PipelineObservability obs;
  obs.set_clock(std::make_unique<obs::TickClock>(1000));
  using Kind = obs::PipelineEvent::Kind;

  obs.record(Kind::kSegmentOpen, /*frame=*/5, /*begin=*/50);
  ASSERT_TRUE(obs.tracer().active());
  obs.observe_span(obs::Stage::kIngest, 100, 200);
  obs.observe_span(obs::Stage::kDecide, 300, 900);
  obs.record(Kind::kSegmentClose, 9, 50, 90);
  obs.record(Kind::kEmit, 9, 0, 0, /*detail=*/1);

  EXPECT_FALSE(obs.tracer().active());
  ASSERT_EQ(obs.tracer().size(), 1u);
  const obs::GestureTrace& t = *obs.tracer().latest();
  EXPECT_EQ(t.outcome, obs::GestureTrace::Outcome::kEmitted);
  EXPECT_EQ(t.begin, 50u);
  EXPECT_EQ(t.end, 90u);
  EXPECT_EQ(t.frame_span_count, 1u);   // ingest
  EXPECT_EQ(t.decide_span_count, 1u);  // decide
  EXPECT_GT(t.t_emit_ns, t.t_open_ns);

  // The finalizing emission observed the e2e histogram and left an
  // exemplar trace id in the bucket its latency landed in.
  const auto snap = obs.registry().snapshot();
  const auto* e2e = snap.find("af_gesture_e2e_seconds");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, 1u);
  EXPECT_EQ(snap.find("af_gesture_traces_total")->count, 1u);
  std::uint64_t exemplar = 0;
  for (const std::uint64_t id : obs.tracer().exemplars())
    if (id != 0) exemplar = id;
  EXPECT_EQ(exemplar, t.trace_id);
}

TEST(TraceRouting, RuntimeDisabledRecorderStaysSilent) {
  obs::PipelineObservability obs;
  obs.set_trace_enabled(false);
  using Kind = obs::PipelineEvent::Kind;
  obs.record(Kind::kSegmentOpen, 5, 50);
  obs.record(Kind::kSegmentClose, 9, 50, 90);
  obs.record(Kind::kEmit, 9, 0, 0, 1);
  EXPECT_FALSE(obs.tracer().active());
  EXPECT_EQ(obs.tracer().size(), 0u);
  // The structured event log is unaffected by the trace switch.
  EXPECT_EQ(obs.ring().size(), 3u);
}

// ------------------------------------------------------- flight recorder

// The post-mortem artifacts are pinned byte for byte: every event line
// and trace field an operator reads after a quarantine.
TEST(FlightRecorder, QuarantineEntryLatchesAPostmortem) {
  obs::PipelineObservability obs;
  obs.set_clock(std::make_unique<obs::TickClock>(1000));
  using Kind = obs::PipelineEvent::Kind;
  obs.record(Kind::kSegmentOpen, 3, 30);
  obs.observe_span(obs::Stage::kIngest, 100, 200);
  obs.record(Kind::kEmit, 5, 30, 50, /*detail=*/3);  // early direction
  obs.record(Kind::kSegmentReject, 7, 30, 70,
             static_cast<std::uint8_t>(obs::PipelineEvent::Reject::kTooShort));
  obs.record(Kind::kQuarantineEnter, 8);
  ASSERT_TRUE(obs.has_postmortem());
  EXPECT_EQ(obs.flight().reason(), obs::FlightReason::kQuarantine);
  EXPECT_EQ(obs.flight().frame(), 8u);
  EXPECT_EQ(obs.flight().triggers(), 1u);

  std::ostringstream text;
  obs.dump_postmortem(text);
  EXPECT_EQ(text.str(),
            R"(flight recorder: reason=quarantine frame=8 triggers=1
events (4):
  t_ns=0 frame=3 segment_open segment=30..0
  t_ns=1000 frame=5 emit type=3 segment=30..50
  t_ns=2000 frame=7 segment_reject too_short segment=30..70
  t_ns=3000 frame=8 quarantine_enter segment=0..0
traces (1):
  trace 1 outcome=abandoned segment=30..0 frames=3..7 spans=1 dropped=0
    t0=100 dur=100 ingest
    t=1000 emit type=3
)");

  std::ostringstream json;
  obs.dump_postmortem_json(json);
  EXPECT_EQ(json.str(),
            R"({"flight": {"captured": true, "reason": "quarantine", )"
            R"("frame": 8, "triggers": 1, "events": [)"
            R"({"t_ns": 0, "frame": 3, "kind": "segment_open", )"
            R"("detail": 0, "begin": 30, "end": 0}, )"
            R"({"t_ns": 1000, "frame": 5, "kind": "emit", )"
            R"("detail": 3, "begin": 30, "end": 50}, )"
            R"({"t_ns": 2000, "frame": 7, "kind": "segment_reject", )"
            R"("detail": 0, "begin": 30, "end": 70}, )"
            R"({"t_ns": 3000, "frame": 8, "kind": "quarantine_enter", )"
            R"("detail": 0, "begin": 0, "end": 0}], "traces": [)"
            R"({"trace_id": 1, "stream": 0, "outcome": "abandoned", )"
            R"("segment": [30, 0], "open_frame": 3, "close_frame": 7, )"
            R"("t_open_ns": 0, "t_close_ns": 2000, "t_emit_ns": 0, )"
            R"("emit_type": 0, "spans_dropped": 0, "spans": [)"
            R"({"stage": "ingest", "t0_ns": 100, "dur_ns": 100}], )"
            R"("marks": [{"t_ns": 1000, "frame": 5, "type": 3}]}]}})"
            "\n");

  // Second trigger only counts; the first capture is retained.
  obs.record(Kind::kQuarantineEnter, 20);
  EXPECT_EQ(obs.flight().triggers(), 2u);
  EXPECT_EQ(obs.flight().frame(), 8u);
}

TEST(FlightRecorder, HostLaneFaultCapturesThePostmortem) {
  auto traces = std::vector<sensor::MultiChannelTrace>{
      lane_trace(0), lane_trace(1), lane_trace(2)};
  sensor::FaultInjectorConfig fault_config;
  fault_config.non_finite_rate = 0.01;
  sensor::FaultInjector injector(fault_config, 31337);
  traces[1] = injector.corrupt(traces[1]);
  ASSERT_FALSE(injector.log().empty());

  core::HostConfig config;
  config.shards = 2;
  // Strict sessions: the corrupt lane throws inside its shard worker.
  core::MultiSessionHost host(test_bundle(), traces.size(),
                              test_bundle()->config().fault_policy, config);
  host.run_round_robin(traces, 37);
  ASSERT_TRUE(host.session_faulted(1));
  const auto& obs = host.session(1).observability();
  ASSERT_TRUE(obs.has_postmortem());
  EXPECT_EQ(obs.flight().reason(), obs::FlightReason::kLaneFault);
  std::ostringstream text;
  obs.dump_postmortem(text);
  EXPECT_NE(text.str().find("reason=lane_fault"), std::string::npos);
  // Healthy siblings hold no capture.
  EXPECT_FALSE(host.session(0).observability().has_postmortem());
  EXPECT_FALSE(host.session(2).observability().has_postmortem());
}

// ------------------------------------------------------ shard telemetry

TEST(ShardTelemetry, DrainedFramesReconcileWithProcessed) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    std::vector<sensor::MultiChannelTrace> traces;
    for (std::size_t s = 0; s < 4; ++s) traces.push_back(lane_trace(s));
    core::HostConfig config;
    config.shards = shards;
    core::MultiSessionHost host(test_bundle(), traces.size(),
                                test_bundle()->config().fault_policy,
                                config);
    host.run_round_robin(traces, 37);
    std::uint64_t drained = 0, lanes = 0;
    for (std::size_t s = 0; s < host.shard_count(); ++s) {
      const core::ShardTelemetry t = host.shard_telemetry(s);
      EXPECT_EQ(t.shard, s);
      EXPECT_GT(t.drain_batches, 0u);
      drained += t.frames_drained;
      lanes += t.lanes;
    }
    EXPECT_EQ(drained, host.frames_processed());
    EXPECT_EQ(lanes, traces.size());

    // The per-shard series ride only the load-series exposition; the
    // default stays shard-invariant.
    EXPECT_EQ(host.aggregate_metrics(false).find("af_shard0_parks_total"),
              nullptr);
    const auto loaded = host.aggregate_metrics(true);
    const auto* drained_series =
        loaded.find("af_shard0_frames_drained_total");
    ASSERT_NE(drained_series, nullptr);
    EXPECT_GT(drained_series->count, 0u);
  }
}

// ------------------------------------------------------------ emissions

TEST(TraceGuard, EmissionsAreIdenticalWithTracingOnOrOff) {
  const sensor::MultiChannelTrace trace = lane_trace(1);

  core::Session on(test_bundle());
  on.observability().set_clock(std::make_unique<obs::TickClock>(1000));
  on.observability().set_trace_enabled(true);
  on.observability().set_sample_every(1);
  const auto events_on = on.process_trace(trace);

  core::Session off(test_bundle());
  off.observability().set_clock(std::make_unique<obs::TickClock>(1000));
  off.observability().set_trace_enabled(false);
  off.observability().set_sample_every(1);
  const auto events_off = off.process_trace(trace);

  ASSERT_GT(events_on.size(), 0u);
  EXPECT_EQ(serialize_emissions(events_on), serialize_emissions(events_off));
  // The structured event log and counters are identical too: tracing sits
  // strictly downstream of record().
  std::ostringstream ring_on, ring_off;
  on.observability().dump_events(ring_on);
  off.observability().dump_events(ring_off);
  EXPECT_EQ(ring_on.str(), ring_off.str());
}

// --------------------------------------------------------------- export

TEST(TraceExport, ChromeJsonIsByteIdenticalAcrossRunsAndShardCounts) {
  const std::string inline_run = hosted_chrome_trace(4, 1);
  EXPECT_EQ(inline_run, hosted_chrome_trace(4, 1));  // across runs
  EXPECT_EQ(inline_run, hosted_chrome_trace(4, 2));  // across shard counts
  // Loadable shape, not just stable bytes.
  EXPECT_NE(inline_run.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(inline_run.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(inline_run.find("\"name\":\"gesture\""), std::string::npos);
}

TEST(TraceExport, EmptySessionsStillRenderValidJson) {
  const std::string empty = obs::to_chrome_trace({});
  EXPECT_NE(empty.find("\"traceEvents\""), std::string::npos);
  const std::string one_empty =
      obs::to_chrome_trace({obs::SessionTraces{3, {}}});
  EXPECT_NE(one_empty.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceExport, E2eHistogramIsDeterministicUnderTickClock) {
  const sensor::MultiChannelTrace trace = lane_trace(0);
  const auto replay = [&] {
    core::Session session(test_bundle());
    session.observability().set_clock(
        std::make_unique<obs::TickClock>(1000));
    session.observability().set_sample_every(1);
    session.process_trace(trace);
    std::ostringstream os;
    obs::write_prometheus(os,
                          session.observability().registry().snapshot());
    return os.str();
  };
  const std::string first = replay();
  EXPECT_EQ(first, replay());
  EXPECT_NE(first.find("af_gesture_e2e_seconds"), std::string::npos);
}

}  // namespace
}  // namespace airfinger
