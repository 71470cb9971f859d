#include "obs/pipeline.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"

namespace airfinger::obs {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kIngest: return "ingest";
    case Stage::kTimingCache: return "timing_cache";
    case Stage::kProbe: return "probe";
    case Stage::kDecide: return "decide";
    case Stage::kFeatures: return "features";
    case Stage::kForest: return "forest";
    case Stage::kZebra: return "zebra";
  }
  return "unknown";
}

const char* kind_name(PipelineEvent::Kind kind) {
  switch (kind) {
    case PipelineEvent::Kind::kSegmentOpen: return "segment_open";
    case PipelineEvent::Kind::kSegmentClose: return "segment_close";
    case PipelineEvent::Kind::kSegmentReject: return "segment_reject";
    case PipelineEvent::Kind::kQuarantineEnter: return "quarantine_enter";
    case PipelineEvent::Kind::kQuarantineExit: return "quarantine_exit";
    case PipelineEvent::Kind::kEmit: return "emit";
    case PipelineEvent::Kind::kArtifact: return "artifact";
  }
  return "unknown";
}

const char* artifact_detail_name(std::uint8_t detail) {
  // Mirrors core::ArtifactClass without depending on af_core (obs sits
  // below core in the layering).
  switch (detail) {
    case 0: return "impulse";
    case 1: return "crackle";
    case 2: return "step";
    case 3: return "drift";
    case 4: return "flicker";
  }
  return "unknown";
}

const char* reject_name(PipelineEvent::Reject reason) {
  switch (reason) {
    case PipelineEvent::Reject::kTooShort: return "too_short";
    case PipelineEvent::Reject::kFiltered: return "filtered";
    case PipelineEvent::Reject::kQuarantined: return "quarantined";
  }
  return "unknown";
}

EventRing::EventRing(std::size_t capacity) {
  AF_EXPECT(capacity >= 1, "event ring needs capacity >= 1");
  ring_.resize(capacity);
}

bool EventRing::push(const PipelineEvent& event) {
  const bool evicted = size_ == ring_.size();
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (evicted)
    ++dropped_;
  else
    ++size_;
  return !evicted;
}

std::vector<PipelineEvent> EventRing::events() const {
  std::vector<PipelineEvent> out;
  out.reserve(size_);
  // Oldest first: when full the oldest element sits at head_ (the next
  // write position), otherwise the ring started at index 0.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

std::size_t EventRing::copy_recent(PipelineEvent* out, std::size_t max) const {
  const std::size_t n = std::min(size_, max);
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  const std::size_t skip = size_ - n;  // Oldest events beyond the window.
  for (std::size_t i = 0; i < n; ++i)
    out[i] = ring_[(start + skip + i) % ring_.size()];
  return n;
}

void EventRing::clear() {
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

namespace {

/// Registers the session metric schema into `registry`.
SessionMetricHandles register_session_metrics(Registry& registry) {
  SessionMetricHandles h{};
  h.frames = registry.counter("af_frames_total",
                              "Frames accepted by push_frame");
  h.events_detect = registry.counter(
      "af_events_detect_total", "Detect-gesture events emitted");
  h.events_scroll = registry.counter(
      "af_events_scroll_total", "Completed scroll events emitted");
  h.events_direction = registry.counter(
      "af_events_direction_total", "Early scroll-direction events emitted");
  h.events_rejected = registry.counter(
      "af_events_rejected_total", "Segments rejected as non-gestures");
  h.segments_opened = registry.counter(
      "af_segments_opened_total", "Candidate segments opened");
  h.segments_closed = registry.counter(
      "af_segments_closed_total", "Segments completed and decided");
  h.segments_abandoned = registry.counter(
      "af_segments_abandoned_total", "Open segments abandoned (too short)");
  h.non_finite_samples = registry.counter(
      "af_fault_non_finite_total", "NaN/Inf samples seen");
  h.saturated_samples = registry.counter(
      "af_fault_saturated_total", "Rail-saturated samples seen");
  h.stuck_samples = registry.counter(
      "af_fault_stuck_total", "Samples extending a frozen run");
  h.quarantined_frames = registry.counter(
      "af_quarantined_frames_total", "Frames consumed while degraded");
  h.quarantines = registry.counter(
      "af_quarantines_total", "Healthy-to-quarantined transitions");
  h.recalibrations = registry.counter(
      "af_recalibrations_total", "Quarantined-to-healthy recoveries");
  h.segments_dropped = registry.counter(
      "af_segments_dropped_total", "Open segments lost to quarantine");
  h.quarantined =
      registry.gauge("af_quarantined", "1 while the stream is degraded");
  h.artifact_impulse_suspect = registry.counter(
      "af_artifact_impulse_suspect_total",
      "Samples whose derivative z crossed click_sigma (no action taken)");
  h.artifact_impulsive_suspect = registry.counter(
      "af_artifact_impulsive_suspect_total",
      "Frames with LPC-residual or kurtosis confidence at threshold");
  h.artifact_tonal_suspect = registry.counter(
      "af_artifact_tonal_suspect_total",
      "Frames with spectral-flatness confidence at threshold");
  h.artifact_impulse_detected = registry.counter(
      "af_artifact_impulse_detected_total",
      "Impulse hold episodes started by the repair gate");
  h.artifact_impulse_repaired = registry.counter(
      "af_artifact_impulse_repaired_total",
      "Impulse episodes repaired in place by interpolation");
  h.artifact_repaired_frames = registry.counter(
      "af_artifact_repaired_frames_total",
      "Frames rewritten by glitch repair");
  h.artifact_crackle_detected = registry.counter(
      "af_artifact_crackle_detected_total",
      "Crackle-train classifications");
  h.artifact_step_detected = registry.counter(
      "af_artifact_step_detected_total",
      "Zipper/step level-shift classifications");
  h.artifact_drift_detected = registry.counter(
      "af_artifact_drift_detected_total",
      "Slow-baseline-drift classifications");
  h.artifact_flicker_detected = registry.counter(
      "af_artifact_flicker_detected_total",
      "Periodic ambient-flicker classifications");
  h.artifact_quarantines = registry.counter(
      "af_artifact_quarantines_total",
      "Quarantines entered via artifact escalation");
  h.trace_dropped = registry.counter(
      "af_trace_events_dropped_total",
      "Pipeline events evicted from the trace ring");
  // Stage latency histograms: 100 ns .. 1 s, log-spaced. 36 finite buckets
  // = ~5 per decade, enough to separate a 2 us ingest from a 200 us decide
  // without inflating the per-session footprint.
  for (std::size_t s = 0; s < kStageCount; ++s) {
    h.stage_hist[s] = registry.histogram(
        std::string("af_stage_") + stage_name(static_cast<Stage>(s)) + "_ns",
        std::string("Nanoseconds spent in the ") +
            stage_name(static_cast<Stage>(s)) + " stage",
        HistogramSpec{});
  }
  // Gesture-trace series (DESIGN.md §18). Registered unconditionally so the
  // metric schema — and therefore host aggregation — does not depend on
  // the trace switch; the series only move when tracing records.
  // e2e spans 10 us (tick-clock replay) to 10 s (a live gesture's real
  // duration), log-spaced.
  h.gesture_e2e = registry.histogram(
      "af_gesture_e2e_seconds",
      "End-to-end first-frame-to-emission latency per gesture segment",
      HistogramSpec{1e-5, 10.0, 24});
  h.traces_completed = registry.counter(
      "af_gesture_traces_total", "Gesture traces finalized");
  h.traces_evicted = registry.counter(
      "af_gesture_traces_dropped_total",
      "Completed gesture traces evicted from the per-session trace ring");
  return h;
}

/// The session metric schema, registered once per process: the registry
/// every PipelineObservability copies, and the handles into it.
struct SessionSchema {
  Registry registry;
  SessionMetricHandles handles = register_session_metrics(registry);
};

const SessionSchema& session_schema() {
  static const SessionSchema schema;
  return schema;
}

}  // namespace

PipelineObservability::PipelineObservability(std::size_t ring_capacity)
    : SessionMetricHandles(session_schema().handles),
      clock_(std::make_unique<MonotonicClock>()),
      registry_(session_schema().registry),
      ring_(ring_capacity) {}

void PipelineObservability::set_clock(std::unique_ptr<Clock> clock) {
  AF_EXPECT(clock != nullptr, "observability clock must not be null");
  clock_ = std::move(clock);
}

void PipelineObservability::set_sample_every(std::uint32_t n) {
  AF_EXPECT(n >= 1, "span sampling rate must be >= 1");
  sampler().every = n;
  sampler().countdown = 1;
}

void PipelineObservability::record(PipelineEvent::Kind kind,
                                   std::uint64_t frame, std::uint64_t begin,
                                   std::uint64_t end, std::uint8_t detail) {
  PipelineEvent event;
  event.t_ns = clock_->now_ns();
  event.frame = frame;
  event.begin = begin;
  event.end = end;
  event.kind = kind;
  event.detail = detail;
  if (!ring_.push(event)) registry_.inc(trace_dropped);
  if (trace_enabled_) route_trace(event);
}

void PipelineObservability::route_trace(const PipelineEvent& e) {
  const std::uint64_t completed_before = recorder_.completed_total();
  const std::uint64_t evicted_before = recorder_.dropped();
  switch (e.kind) {
    case PipelineEvent::Kind::kSegmentOpen:
      recorder_.begin(e.frame, e.begin, e.t_ns);
      break;
    case PipelineEvent::Kind::kSegmentClose:
      recorder_.note_close(e.frame, e.end, e.t_ns);
      break;
    case PipelineEvent::Kind::kSegmentReject:
      switch (static_cast<PipelineEvent::Reject>(e.detail)) {
        case PipelineEvent::Reject::kFiltered:
          // The non-gesture emission that follows finalizes the trace.
          recorder_.note_filtered();
          break;
        case PipelineEvent::Reject::kTooShort:
          recorder_.abandon(GestureTrace::Outcome::kAbandoned, e.frame,
                            e.t_ns);
          break;
        case PipelineEvent::Reject::kQuarantined:
          recorder_.abandon(GestureTrace::Outcome::kQuarantined, e.frame,
                            e.t_ns);
          break;
      }
      break;
    case PipelineEvent::Kind::kQuarantineEnter:
      capture_postmortem(FlightReason::kQuarantine, e.frame);
      break;
    case PipelineEvent::Kind::kEmit: {
      const std::int64_t e2e = recorder_.note_emit(e.detail, e.frame, e.t_ns);
      if (e2e >= 0)
        registry_.observe(gesture_e2e, static_cast<double>(e2e) * 1e-9);
      break;
    }
    default:
      break;
  }
  if (const std::uint64_t d = recorder_.completed_total() - completed_before)
    registry_.inc(traces_completed, d);
  if (const std::uint64_t d = recorder_.dropped() - evicted_before)
    registry_.inc(traces_evicted, d);
}

void PipelineObservability::reset_values() {
  registry_.reset_values();
  ring_.clear();
  recorder_.clear();
  flight_.clear();
  // Restart the sampling phase so a reset session traces exactly like a
  // fresh one (Session::reset() bit-identity).
  sampler().countdown = 1;
}

void PipelineObservability::dump_events(std::ostream& os) const {
  for (const PipelineEvent& e : ring_.events()) {
    os << "t_ns=" << e.t_ns << " frame=" << e.frame << ' '
       << kind_name(e.kind);
    switch (e.kind) {
      case PipelineEvent::Kind::kSegmentReject:
        os << ' ' << reject_name(static_cast<PipelineEvent::Reject>(e.detail));
        break;
      case PipelineEvent::Kind::kEmit:
        os << " type=" << static_cast<int>(e.detail);
        break;
      case PipelineEvent::Kind::kArtifact:
        os << ' ' << artifact_detail_name(e.detail);
        break;
      default:
        break;
    }
    if (e.kind == PipelineEvent::Kind::kSegmentOpen ||
        e.kind == PipelineEvent::Kind::kSegmentClose ||
        e.kind == PipelineEvent::Kind::kSegmentReject ||
        e.kind == PipelineEvent::Kind::kEmit ||
        e.kind == PipelineEvent::Kind::kArtifact)
      os << " segment=" << e.begin << ".." << e.end;
    os << '\n';
  }
  if (ring_.dropped() > 0)
    os << "(+" << ring_.dropped() << " events dropped)\n";
}

}  // namespace airfinger::obs
