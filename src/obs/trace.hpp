// Gesture-scoped tracing and Perfetto-loadable trace export (DESIGN.md
// §18). The flight recorder, which freezes a session's newest pipeline
// events and traces on a fault, is declared beside the event ring in
// obs/pipeline.hpp and rendered in trace.cpp with the trace writers.
//
// A gesture trace follows one candidate segment from the frame that opened
// it to the emission (or rejection) that retired it: every stage span the
// session records while the segment is open (ingest → timing_cache →
// probe → decide → features → forest → zebra) lands in the active trace,
// emissions become instant markers, and the finalized trace carries the
// end-to-end first-frame→emission latency that feeds the
// `af_gesture_e2e_seconds` histogram.
// Completed traces sit in a fixed-capacity overwrite-oldest ring per
// session; everything here is preallocated at construction, so recording
// preserves the hot path's 0-allocs/frame invariant.
//
// A per-session runtime switch (`PipelineObservability::set_trace_enabled`)
// silences the recorder. Tracing is record-only: it never feeds back into
// any decision, so emissions are byte-identical with tracing on or off —
// tests/trace_test.cpp pins that.
//
// Determinism contract: every timestamp in a trace comes from the owning
// session's Clock, and the session's clock-read sequence is a pure
// function of its input stream. Under TickClock the exported Chrome JSON
// is therefore byte-identical across runs and across host shard counts.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace airfinger::obs {

/// One timed stage span inside a gesture trace. `stage` holds an
/// obs::Stage value, or kTraceStageEmit for emission markers.
struct TraceSpan {
  std::uint64_t t0_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint8_t stage = 0;

  bool operator==(const TraceSpan&) const = default;
};

/// Pseudo-stage used for emission markers (one past the last real Stage).
inline constexpr std::uint8_t kTraceStageEmit = 7;

/// Stage name covering the pseudo-stages too ("emit" for kTraceStageEmit).
const char* trace_stage_name(std::uint8_t stage);

// Span storage is split so a long segment cannot evict its own decision:
// the per-frame stages (ingest/timing_cache/probe/zebra-in-probe) fill the
// frame list and overflow into `spans_dropped`, while the rare
// segment-level stages (decide/features/forest) keep a reserved list.
inline constexpr std::size_t kTraceFrameSpanCapacity = 48;
inline constexpr std::size_t kTraceDecideSpanCapacity = 12;
inline constexpr std::size_t kTraceMarkCapacity = 4;

/// An emission marker: the session delivered a GestureEvent while this
/// trace was live (early scroll-direction mid-segment, or the final
/// emission that retired the segment).
struct TraceMark {
  std::uint64_t t_ns = 0;
  std::uint64_t frame = 0;
  std::uint8_t emit_type = 0;  ///< GestureEvent type code.

  bool operator==(const TraceMark&) const = default;
};

/// One gesture-scoped trace: the span tree of a single candidate segment.
/// Fixed-size POD so the trace ring and the flight recorder copy it
/// without allocating.
struct GestureTrace {
  enum class Outcome : std::uint8_t {
    kOpen = 0,        ///< Still recording (active trace only).
    kEmitted,         ///< Closed and emitted as a gesture.
    kFiltered,        ///< Closed but rejected by the interference filter.
    kAbandoned,       ///< Abandoned by the segmenter (too short).
    kQuarantined,     ///< Dropped when the session entered quarantine.
  };

  std::uint64_t trace_id = 0;     ///< Per-session, starts at 1.
  std::uint64_t stream = 0;       ///< Owning stream id (host lane index).
  std::uint64_t begin = 0;        ///< Segment begin, absolute sample index.
  std::uint64_t end = 0;          ///< Segment end, absolute sample index.
  std::uint64_t open_frame = 0;   ///< Session frame count at open.
  std::uint64_t close_frame = 0;  ///< Session frame count at close/retire.
  std::uint64_t t_open_ns = 0;    ///< Clock at segment open.
  std::uint64_t t_close_ns = 0;   ///< Clock at close (or retire).
  std::uint64_t t_emit_ns = 0;    ///< Clock at the finalizing emission.
  Outcome outcome = Outcome::kOpen;
  std::uint8_t emit_type = 0;     ///< Final emission's GestureEvent type.
  std::uint16_t frame_span_count = 0;
  std::uint16_t decide_span_count = 0;
  std::uint16_t mark_count = 0;
  std::uint32_t spans_dropped = 0;  ///< Spans lost to capacity.
  std::array<TraceSpan, kTraceFrameSpanCapacity> frame_spans{};
  std::array<TraceSpan, kTraceDecideSpanCapacity> decide_spans{};
  std::array<TraceMark, kTraceMarkCapacity> marks{};

  /// End-to-end first-frame→emission nanoseconds; -1 unless kEmitted or
  /// kFiltered (both retire through an emission).
  std::int64_t e2e_ns() const {
    if (outcome != Outcome::kEmitted && outcome != Outcome::kFiltered)
      return -1;
    return static_cast<std::int64_t>(t_emit_ns - t_open_ns);
  }
};

/// Stable lowercase outcome name ("emitted", "filtered", ...).
const char* outcome_name(GestureTrace::Outcome outcome);

/// Records gesture traces for one session: an active trace driven by the
/// pipeline-event stream plus a fixed-capacity overwrite-oldest ring of
/// completed traces. Single writer (the owning session); all storage is
/// preallocated at construction.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Stream identity stamped on every trace (host lane index; 0 for
  /// standalone sessions).
  void set_stream(std::uint64_t stream) { stream_ = stream; }
  std::uint64_t stream() const { return stream_; }

  bool active() const { return active_open_; }
  const GestureTrace& active_trace() const { return active_; }

  // ----------------------------------------------- event-driven lifecycle
  /// Opens a new trace (finalizing a stale active one as abandoned, which
  /// cannot happen on the session's event stream but keeps the recorder
  /// self-consistent).
  void begin(std::uint64_t frame, std::uint64_t begin, std::uint64_t t_ns);

  /// Appends one stage span to the active trace (no-op when idle).
  void add_span(std::uint8_t stage, std::uint64_t t0_ns,
                std::uint64_t dur_ns);

  /// The segment completed and was decided; the trace stays active until
  /// the finalizing emission arrives.
  void note_close(std::uint64_t frame, std::uint64_t end, std::uint64_t t_ns);

  /// The closed segment was rejected by the interference filter; its
  /// (non-gesture) emission still finalizes the trace, with kFiltered.
  void note_filtered();

  /// An emission was delivered. Mid-segment (open, not yet closed) this is
  /// an early-direction marker and returns -1; after note_close it
  /// finalizes the trace and returns the end-to-end nanoseconds.
  std::int64_t note_emit(std::uint8_t type, std::uint64_t frame,
                         std::uint64_t t_ns);

  /// Retires the active trace without an emission (segmenter abandon or
  /// quarantine drop). `outcome` must be kAbandoned or kQuarantined.
  void abandon(GestureTrace::Outcome outcome, std::uint64_t frame,
               std::uint64_t t_ns);

  // ------------------------------------------------------------ the ring
  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  /// Completed traces evicted from the ring.
  std::uint64_t dropped() const { return dropped_; }
  /// Monotone count of traces ever finalized.
  std::uint64_t completed_total() const { return completed_total_; }
  /// Retained completed traces, oldest first (allocates; offline only).
  std::vector<GestureTrace> completed() const;
  /// Most recently completed trace (nullptr when none retained).
  const GestureTrace* latest() const;

  /// Drops all traces and restarts ids (capacity retained) —
  /// Session::reset() semantics. The stream id is configuration and stays.
  void clear();

 private:
  void finalize(GestureTrace::Outcome outcome);
  std::size_t latest_index() const;

  std::vector<GestureTrace> ring_;
  std::size_t head_ = 0;  ///< Next write position.
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t completed_total_ = 0;
  GestureTrace active_{};
  bool active_open_ = false;
  bool closed_ = false;    ///< note_close seen; next emit finalizes.
  bool filtered_ = false;  ///< Close-to-emit window saw a filter reject.
  std::uint64_t next_id_ = 1;
  std::uint64_t stream_ = 0;
};

// --------------------------------------------------------------- export

/// Completed traces of one stream, ready for export.
struct SessionTraces {
  std::uint64_t stream = 0;
  std::vector<GestureTrace> traces;
};

/// Writes completed gesture traces as Chrome trace-event JSON ("X"
/// duration events per span, "i" instants for emission markers), loadable
/// in Perfetto / chrome://tracing. One pid per stream, one tid per trace.
/// Timestamps are exact microsecond strings rendered from integer
/// nanoseconds (never float-formatted), so the output is byte-identical
/// whenever the traces are.
void write_chrome_trace(std::ostream& os,
                        const std::vector<SessionTraces>& sessions);
std::string to_chrome_trace(const std::vector<SessionTraces>& sessions);

}  // namespace airfinger::obs
