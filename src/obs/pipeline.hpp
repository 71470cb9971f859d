// Per-stream pipeline instrumentation: stage spans, structured pipeline
// events, and the session metric schema over obs/metrics.hpp.
//
// One PipelineObservability lives inside every core::Session. It owns the
// session's Clock, its fixed-shape metric Registry (frame/segment/health
// counters plus one log-spaced nanosecond histogram per pipeline stage),
// and a fixed-capacity ring of structured pipeline events (segment
// open/close/reject with reason, quarantine transitions, emissions) with a
// dropped-event counter. Everything is preallocated at construction: the
// recording paths are allocation-free, preserving the hot path's
// 0-allocs/frame invariant with instrumentation enabled.
//
// Stage timing is captured by RAII Span objects. A per-object runtime
// switch (`set_spans_enabled`) silences them, and the per-frame stages are
// deterministically sampled 1-in-N (`set_sample_every`, default 16) so
// steady-state clock reads stay cheap: perfbench's headline run serves
// with observability on, and its traced run reports what the spans cost
// (`layer.share.obs`).
// Observability is record-only either way: it never feeds back into any
// decision, so emissions are bit-identical with tracing on or off.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace airfinger::obs {

/// The traced stages of the serving path (Session::push_frame and the
/// bundle's decision core). kDecide brackets the whole decision; kFeatures,
/// kForest, and kZebra are nested inside it (and kZebra also inside
/// kProbe), so their times are included in their parent's.
enum class Stage : std::uint8_t {
  kIngest = 0,   ///< SBC update + history push + segmenter advance.
  kTimingCache,  ///< Incremental open-segment timing advance.
  kProbe,        ///< Early-direction probe (router + ZEBRA on open segment).
  kDecide,       ///< Full decision core on a completed segment.
  kFeatures,     ///< Feature-bank extraction (inside kDecide).
  kForest,       ///< Compiled-forest inference (inside kDecide).
  kZebra,        ///< ZEBRA tracking (inside kDecide or kProbe).
};
inline constexpr std::size_t kStageCount = 7;

/// Stable lowercase stage name ("ingest", "timing_cache", ...).
const char* stage_name(Stage stage);

/// One structured pipeline event. Fixed-size POD so the ring never
/// allocates; `describe` renders the deterministic text form used by
/// tests and `af_inspect --stats`.
struct PipelineEvent {
  enum class Kind : std::uint8_t {
    kSegmentOpen = 0,   ///< Segmenter opened a candidate segment.
    kSegmentClose,      ///< Segment completed and was decided.
    kSegmentReject,     ///< Segment discarded; detail = Reject reason.
    kQuarantineEnter,   ///< Degraded mode engaged (detail unused).
    kQuarantineExit,    ///< Recalibrated back to healthy.
    kEmit,              ///< GestureEvent delivered; detail = its Type.
    kArtifact,          ///< Artifact classified; detail = core::ArtifactClass
                        ///< (begin/end = the affected frame span; end == begin
                        ///< for a detection without a repaired span).
  };
  /// Why a segment was rejected (PipelineEvent::detail for kSegmentReject).
  enum class Reject : std::uint8_t {
    kTooShort = 0,      ///< Segmenter abandoned the open segment.
    kFiltered,          ///< Interference filter called it non-gesture.
    kQuarantined,       ///< Open segment dropped on quarantine entry.
  };

  std::uint64_t t_ns = 0;   ///< Clock timestamp at record time.
  std::uint64_t frame = 0;  ///< Session frame count at record time.
  std::uint64_t begin = 0;  ///< Segment begin (absolute), when applicable.
  std::uint64_t end = 0;    ///< Segment end (absolute), when applicable.
  Kind kind = Kind::kSegmentOpen;
  std::uint8_t detail = 0;  ///< Kind-specific code (Reject / event type).

  bool operator==(const PipelineEvent&) const = default;
};

/// Stable lowercase names for event kinds and their detail codes (shared
/// by dump_events and the flight-recorder artifacts in obs/trace.cpp).
const char* kind_name(PipelineEvent::Kind kind);
const char* artifact_detail_name(std::uint8_t detail);
const char* reject_name(PipelineEvent::Reject reason);

/// Fixed-capacity overwrite-oldest ring of pipeline events. push() is two
/// array writes; once full, each push overwrites the oldest event and the
/// overwritten one counts as dropped.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity);

  /// True when the event was stored without evicting an older one.
  bool push(const PipelineEvent& event);

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Retained events, oldest first (allocates; not for the hot path).
  std::vector<PipelineEvent> events() const;

  /// Copies up to `max` of the newest events into `out` (oldest of the
  /// copied window first); returns the count. No allocation — this is the
  /// flight recorder's capture path, callable from a worker's catch block.
  std::size_t copy_recent(PipelineEvent* out, std::size_t max) const;

  void clear();

 private:
  std::vector<PipelineEvent> ring_;
  std::size_t head_ = 0;  ///< Next write position.
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Why a post-mortem capture was triggered.
enum class FlightReason : std::uint8_t {
  kQuarantine = 0,  ///< The session entered degraded mode.
  kLaneFault = 1,   ///< The host isolated the lane after an exception.
};
const char* flight_reason_name(FlightReason reason);

/// Per-session post-mortem buffer: the first trigger (quarantine entry or
/// lane fault) latches a copy of the newest pipeline events and the most
/// recent gesture traces; later triggers only count. Capture is pure
/// preallocated copying — safe inside a worker's catch block and under
/// artifact storms — and the artifact renders lazily as text or JSON
/// (obs/trace.cpp, beside the trace renderers it shares).
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultEventCapacity = 64;
  static constexpr std::size_t kTraceCapacity = 2;

  explicit FlightRecorder(std::size_t event_capacity = kDefaultEventCapacity);

  bool captured() const { return captured_; }
  /// Total triggers seen (including ones after the first capture).
  std::uint64_t triggers() const { return triggers_; }
  FlightReason reason() const { return reason_; }
  std::uint64_t frame() const { return frame_; }

  /// Counts the trigger and, unless a capture is already held, latches
  /// one: the newest events of `ring` (oldest first), then the latest
  /// completed and the active trace of `tracer`.
  void capture(FlightReason reason, std::uint64_t frame,
               const EventRing& ring, const TraceRecorder& tracer);

  /// Deterministic text artifact (one event per line + trace summaries).
  void dump_text(std::ostream& os) const;
  /// The same artifact as a JSON object.
  void dump_json(std::ostream& os) const;

  void clear();

 private:
  std::vector<PipelineEvent> events_;
  std::size_t event_count_ = 0;
  std::vector<GestureTrace> traces_;
  std::size_t trace_count_ = 0;
  FlightReason reason_ = FlightReason::kQuarantine;
  std::uint64_t frame_ = 0;
  bool captured_ = false;
  std::uint64_t triggers_ = 0;
};

/// The per-session observability bundle: clock + registry + event ring,
/// with the session metric schema pre-registered and handles cached.
class PipelineObservability {
 public:
  explicit PipelineObservability(std::size_t ring_capacity = 256);

  // ------------------------------------------------------ configuration
  /// Replaces the time source (tests inject TickClock for bit-stable
  /// traces). Resets nothing else.
  void set_clock(std::unique_ptr<Clock> clock);
  Clock& clock() { return *clock_; }

  /// Runtime span switch.
  void set_spans_enabled(bool enabled) { spans_enabled_ = enabled; }
  bool spans_enabled() const { return spans_enabled_; }

  /// Sampling rate for the per-frame stage spans (ingest / timing_cache /
  /// probe): every n-th frame carries them, starting with the first. The
  /// segment-level spans (decide and its children) are rare and always
  /// record. n == 1 records every frame — offline replay tools use that;
  /// the default keeps steady-state clock reads rare. Restarts the phase
  /// so the next frame is sampled.
  void set_sample_every(std::uint32_t n);
  std::uint32_t sample_every() const { return sample_every_; }

  /// Deterministic 1-in-`sample_every()` gate, advanced once per frame by
  /// the session. Purely counter-based, so traces are bit-identical across
  /// runs and thread counts.
  bool sample_frame() {
    if (--sample_countdown_ != 0) return false;
    sample_countdown_ = sample_every_;
    return true;
  }

  static constexpr std::uint32_t kDefaultSampleEvery = 16;

  // ------------------------------------------------------------ tracing
  /// Runtime trace switch. Tracing is record-only — emissions are
  /// byte-identical with it on or off.
  void set_trace_enabled(bool enabled) { trace_enabled_ = enabled; }
  bool trace_enabled() const { return trace_enabled_; }

  /// Stream identity stamped on exported traces and flight artifacts
  /// (the host sets its lane index; standalone sessions keep 0).
  void set_stream_id(std::uint64_t id) { recorder_.set_stream(id); }

  TraceRecorder& tracer() { return recorder_; }
  const TraceRecorder& tracer() const { return recorder_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  /// Latches a post-mortem: copies the event-ring tail plus the most
  /// recent gesture traces into the flight recorder (first trigger wins,
  /// later ones only count). Pure preallocated copying — callable from the
  /// host worker's catch block and under artifact storms.
  void capture_postmortem(FlightReason reason, std::uint64_t frame) {
    flight_.capture(reason, frame, ring_, recorder_);
  }
  bool has_postmortem() const { return flight_.captured(); }
  void dump_postmortem(std::ostream& os) const { flight_.dump_text(os); }
  void dump_postmortem_json(std::ostream& os) const { flight_.dump_json(os); }

  // ---------------------------------------------------------- recording
  void observe_stage(Stage stage, std::uint64_t ns) {
    registry_.observe(stage_hist_[static_cast<std::size_t>(stage)],
                      static_cast<double>(ns));
  }

  /// Span completion path: feeds the stage histogram and, when a gesture
  /// trace is live, appends the span to it.
  void observe_span(Stage stage, std::uint64_t t0_ns, std::uint64_t t1_ns) {
    observe_stage(stage, t1_ns - t0_ns);
    if (trace_enabled_ && recorder_.active())
      recorder_.add_span(static_cast<std::uint8_t>(stage), t0_ns,
                         t1_ns - t0_ns);
  }

  /// Records one structured event; timestamps it from the clock and
  /// counts ring evictions into af_trace_events_dropped_total.
  void record(PipelineEvent::Kind kind, std::uint64_t frame,
              std::uint64_t begin = 0, std::uint64_t end = 0,
              std::uint8_t detail = 0);

  // Cached counter handles, incremented directly by the session. Public
  // on purpose: the session is the single writer and the handle table is
  // the schema.
  Registry::Handle frames;
  Registry::Handle events_detect;
  Registry::Handle events_scroll;
  Registry::Handle events_direction;
  Registry::Handle events_rejected;
  Registry::Handle segments_opened;
  Registry::Handle segments_closed;
  Registry::Handle segments_abandoned;
  Registry::Handle non_finite_samples;
  Registry::Handle saturated_samples;
  Registry::Handle stuck_samples;
  Registry::Handle quarantined_frames;
  Registry::Handle quarantines;
  Registry::Handle recalibrations;
  Registry::Handle segments_dropped;
  Registry::Handle quarantined;  ///< Gauge: 1 while degraded.
  // Graded artifact taxonomy (DESIGN.md §17). "suspect" counters are the
  // false-alarm proxies: graded confidence crossed its threshold without any
  // action being taken, so on clean traffic they measure the detector's
  // false-positive pressure directly.
  Registry::Handle artifact_impulse_suspect;   ///< Click z >= click_sigma.
  Registry::Handle artifact_impulsive_suspect; ///< LPC/kurtosis conf >= 1.
  Registry::Handle artifact_tonal_suspect;     ///< Flatness conf >= 1.
  Registry::Handle artifact_impulse_detected;  ///< Hold episodes started.
  Registry::Handle artifact_impulse_repaired;  ///< Episodes repaired in place.
  Registry::Handle artifact_repaired_frames;   ///< Frames rewritten by repair.
  Registry::Handle artifact_crackle_detected;
  Registry::Handle artifact_step_detected;
  Registry::Handle artifact_drift_detected;
  Registry::Handle artifact_flicker_detected;
  Registry::Handle artifact_quarantines;       ///< Quarantines via escalation.

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  const EventRing& ring() const { return ring_; }

  /// Clears every metric value and the event ring (schema retained) —
  /// Session::reset() semantics. The clock is untouched.
  void reset_values();

  /// Writes the retained events as deterministic text, one per line:
  /// `t_ns=<..> frame=<..> <kind> [detail] [segment=<b>..<e>]`.
  void dump_events(std::ostream& os) const;

 private:
  /// Interprets one recorded pipeline event as a trace-lifecycle step
  /// (segment open/close/reject/emit, quarantine → flight capture) and
  /// keeps the gesture-trace registry series in step with the recorder.
  void route_trace(const PipelineEvent& event);

  std::unique_ptr<Clock> clock_;
  Registry registry_;
  EventRing ring_;
  TraceRecorder recorder_;
  FlightRecorder flight_;
  std::array<Registry::Handle, kStageCount> stage_hist_{};
  Registry::Handle trace_dropped_;
  Registry::Handle gesture_e2e_;       ///< af_gesture_e2e_seconds.
  Registry::Handle traces_completed_;  ///< af_gesture_traces_total.
  Registry::Handle traces_evicted_;    ///< af_gesture_traces_dropped_total.
  bool spans_enabled_ = true;
  bool trace_enabled_ = true;
  std::uint32_t sample_every_ = kDefaultSampleEvery;
  std::uint32_t sample_countdown_ = 1;  ///< 1 ⇒ the next frame is sampled.
};

/// RAII stage timer. Construct with the owning component's observability
/// (nullptr tolerated: the span is inert, which is how un-instrumented
/// callers of the bundle's decision core skip tracing).
class Span {
 public:
  Span(PipelineObservability* obs, Stage stage) : stage_(stage) {
    if (obs && obs->spans_enabled()) {
      obs_ = obs;
      t0_ = obs->clock().now_ns();
    }
  }
  ~Span() {
    if (obs_) obs_->observe_span(stage_, t0_, obs_->clock().now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  PipelineObservability* obs_ = nullptr;
  std::uint64_t t0_ = 0;
  Stage stage_;
};

}  // namespace airfinger::obs
