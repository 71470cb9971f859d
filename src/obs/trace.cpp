#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "obs/pipeline.hpp"

namespace airfinger::obs {

const char* trace_stage_name(std::uint8_t stage) {
  if (stage == kTraceStageEmit) return "emit";
  if (stage < kStageCount) return stage_name(static_cast<Stage>(stage));
  return "unknown";
}

const char* outcome_name(GestureTrace::Outcome outcome) {
  switch (outcome) {
    case GestureTrace::Outcome::kOpen: return "open";
    case GestureTrace::Outcome::kEmitted: return "emitted";
    case GestureTrace::Outcome::kFiltered: return "filtered";
    case GestureTrace::Outcome::kAbandoned: return "abandoned";
    case GestureTrace::Outcome::kQuarantined: return "quarantined";
  }
  return "unknown";
}

const char* flight_reason_name(FlightReason reason) {
  switch (reason) {
    case FlightReason::kQuarantine: return "quarantine";
    case FlightReason::kLaneFault: return "lane_fault";
  }
  return "unknown";
}

// ------------------------------------------------------------- recorder

TraceRecorder::TraceRecorder(std::size_t capacity) {
  AF_EXPECT(capacity >= 1, "trace ring needs capacity >= 1");
  ring_.resize(capacity);
}

void TraceRecorder::begin(std::uint64_t frame, std::uint64_t begin,
                          std::uint64_t t_ns) {
  if (active_open_) {
    active_.close_frame = frame;
    active_.t_close_ns = t_ns;
    finalize(GestureTrace::Outcome::kAbandoned);
  }
  active_ = GestureTrace{};
  active_.trace_id = next_id_++;
  active_.stream = stream_;
  active_.begin = begin;
  active_.open_frame = frame;
  active_.t_open_ns = t_ns;
  active_open_ = true;
  closed_ = false;
  filtered_ = false;
}

void TraceRecorder::add_span(std::uint8_t stage, std::uint64_t t0_ns,
                             std::uint64_t dur_ns) {
  if (!active_open_) return;
  // Segment-level stages keep a reserved list so a long segment's
  // per-frame spans can never evict the decision that retired it.
  const bool segment_level =
      stage == static_cast<std::uint8_t>(Stage::kDecide) ||
      stage == static_cast<std::uint8_t>(Stage::kFeatures) ||
      stage == static_cast<std::uint8_t>(Stage::kForest);
  if (segment_level) {
    if (active_.decide_span_count < kTraceDecideSpanCapacity) {
      active_.decide_spans[active_.decide_span_count++] = {t0_ns, dur_ns,
                                                           stage};
      return;
    }
  } else if (active_.frame_span_count < kTraceFrameSpanCapacity) {
    active_.frame_spans[active_.frame_span_count++] = {t0_ns, dur_ns, stage};
    return;
  }
  ++active_.spans_dropped;
}

void TraceRecorder::note_close(std::uint64_t frame, std::uint64_t end,
                               std::uint64_t t_ns) {
  if (!active_open_) return;
  active_.close_frame = frame;
  active_.end = end;
  active_.t_close_ns = t_ns;
  closed_ = true;
}

void TraceRecorder::note_filtered() {
  if (!active_open_) return;
  filtered_ = true;
}

std::int64_t TraceRecorder::note_emit(std::uint8_t type, std::uint64_t frame,
                                      std::uint64_t t_ns) {
  if (!active_open_) return -1;
  if (active_.mark_count < kTraceMarkCapacity)
    active_.marks[active_.mark_count++] = {t_ns, frame, type};
  if (!closed_) return -1;  // Early-direction marker; the trace stays live.
  active_.emit_type = type;
  active_.t_emit_ns = t_ns;
  finalize(filtered_ ? GestureTrace::Outcome::kFiltered
                     : GestureTrace::Outcome::kEmitted);
  return static_cast<std::int64_t>(t_ns - ring_[latest_index()].t_open_ns);
}

void TraceRecorder::abandon(GestureTrace::Outcome outcome, std::uint64_t frame,
                            std::uint64_t t_ns) {
  if (!active_open_) return;
  active_.close_frame = frame;
  active_.t_close_ns = t_ns;
  finalize(outcome);
}

void TraceRecorder::finalize(GestureTrace::Outcome outcome) {
  active_.outcome = outcome;
  const bool evicted = size_ == ring_.size();
  ring_[head_] = active_;
  head_ = (head_ + 1) % ring_.size();
  if (evicted)
    ++dropped_;
  else
    ++size_;
  ++completed_total_;
  active_open_ = false;
  closed_ = false;
  filtered_ = false;
}

std::size_t TraceRecorder::latest_index() const {
  return (head_ + ring_.size() - 1) % ring_.size();
}

std::vector<GestureTrace> TraceRecorder::completed() const {
  std::vector<GestureTrace> out;
  out.reserve(size_);
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

const GestureTrace* TraceRecorder::latest() const {
  if (size_ == 0) return nullptr;
  return &ring_[latest_index()];
}

void TraceRecorder::set_exemplar(std::size_t bucket, std::uint64_t trace_id) {
  if (bucket < exemplars_.size()) exemplars_[bucket] = trace_id;
}

void TraceRecorder::clear() {
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
  completed_total_ = 0;
  active_ = GestureTrace{};
  active_open_ = false;
  closed_ = false;
  filtered_ = false;
  next_id_ = 1;
  std::fill(exemplars_.begin(), exemplars_.end(), 0);
}

// --------------------------------------------------------------- flight

namespace {

/// All spans of one trace in chronological order (allocates; offline
/// rendering only). Stable: frame spans sort before segment-level spans
/// on equal timestamps, which cannot happen under a strictly advancing
/// clock anyway.
std::vector<TraceSpan> sorted_spans(const GestureTrace& t) {
  std::vector<TraceSpan> spans;
  spans.reserve(t.frame_span_count + t.decide_span_count);
  for (std::uint16_t i = 0; i < t.frame_span_count; ++i)
    spans.push_back(t.frame_spans[i]);
  for (std::uint16_t i = 0; i < t.decide_span_count; ++i)
    spans.push_back(t.decide_spans[i]);
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.t0_ns < b.t0_ns;
                   });
  return spans;
}

void write_flight_event_text(std::ostream& os, const PipelineEvent& e) {
  os << "t_ns=" << e.t_ns << " frame=" << e.frame << ' ' << kind_name(e.kind);
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
  os << " segment=" << e.begin << ".." << e.end;
}

void write_trace_json(std::ostream& os, const GestureTrace& t) {
  os << "{\"trace_id\": " << t.trace_id << ", \"stream\": " << t.stream
     << ", \"outcome\": \"" << outcome_name(t.outcome) << "\""
     << ", \"segment\": [" << t.begin << ", " << t.end << "]"
     << ", \"open_frame\": " << t.open_frame
     << ", \"close_frame\": " << t.close_frame
     << ", \"t_open_ns\": " << t.t_open_ns
     << ", \"t_close_ns\": " << t.t_close_ns
     << ", \"t_emit_ns\": " << t.t_emit_ns
     << ", \"emit_type\": " << static_cast<int>(t.emit_type)
     << ", \"spans_dropped\": " << t.spans_dropped << ", \"spans\": [";
  bool first = true;
  for (const TraceSpan& s : sorted_spans(t)) {
    os << (first ? "" : ", ") << "{\"stage\": \"" << trace_stage_name(s.stage)
       << "\", \"t0_ns\": " << s.t0_ns << ", \"dur_ns\": " << s.dur_ns << "}";
    first = false;
  }
  os << "], \"marks\": [";
  for (std::uint16_t i = 0; i < t.mark_count; ++i) {
    os << (i ? ", " : "") << "{\"t_ns\": " << t.marks[i].t_ns
       << ", \"frame\": " << t.marks[i].frame
       << ", \"type\": " << static_cast<int>(t.marks[i].emit_type) << "}";
  }
  os << "]}";
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t event_capacity) {
  AF_EXPECT(event_capacity >= 1, "flight recorder needs event capacity >= 1");
  events_.resize(event_capacity);
  traces_.resize(kTraceCapacity);
}

void FlightRecorder::capture(FlightReason reason, std::uint64_t frame,
                             const EventRing& ring,
                             const TraceRecorder& tracer) {
  ++triggers_;
  if (captured_) return;
  captured_ = true;
  reason_ = reason;
  frame_ = frame;
  event_count_ = ring.copy_recent(events_.data(), events_.size());
  trace_count_ = 0;
  if (const GestureTrace* last = tracer.latest())
    traces_[trace_count_++] = *last;
  if (tracer.active()) traces_[trace_count_++] = tracer.active_trace();
}

void FlightRecorder::dump_text(std::ostream& os) const {
  if (!captured_) {
    os << "flight recorder: no capture\n";
    return;
  }
  os << "flight recorder: reason=" << flight_reason_name(reason_)
     << " frame=" << frame_ << " triggers=" << triggers_ << '\n';
  os << "events (" << event_count_ << "):\n";
  for (std::size_t i = 0; i < event_count_; ++i) {
    os << "  ";
    write_flight_event_text(os, events_[i]);
    os << '\n';
  }
  os << "traces (" << trace_count_ << "):\n";
  for (std::size_t i = 0; i < trace_count_; ++i) {
    const GestureTrace& t = traces_[i];
    os << "  trace " << t.trace_id << " outcome=" << outcome_name(t.outcome)
       << " segment=" << t.begin << ".." << t.end << " frames=" << t.open_frame
       << ".." << t.close_frame << " spans="
       << (t.frame_span_count + t.decide_span_count)
       << " dropped=" << t.spans_dropped << '\n';
    for (const TraceSpan& s : sorted_spans(t))
      os << "    t0=" << s.t0_ns << " dur=" << s.dur_ns << ' '
         << trace_stage_name(s.stage) << '\n';
    for (std::uint16_t m = 0; m < t.mark_count; ++m)
      os << "    t=" << t.marks[m].t_ns << " emit type="
         << static_cast<int>(t.marks[m].emit_type) << '\n';
  }
}

void FlightRecorder::dump_json(std::ostream& os) const {
  os << "{\"flight\": {\"captured\": " << (captured_ ? "true" : "false")
     << ", \"reason\": \"" << flight_reason_name(reason_) << "\""
     << ", \"frame\": " << frame_ << ", \"triggers\": " << triggers_
     << ", \"events\": [";
  for (std::size_t i = 0; i < event_count_; ++i) {
    const PipelineEvent& e = events_[i];
    os << (i ? ", " : "") << "{\"t_ns\": " << e.t_ns
       << ", \"frame\": " << e.frame << ", \"kind\": \""
       << kind_name(e.kind)
       << "\", \"detail\": " << static_cast<int>(e.detail)
       << ", \"begin\": " << e.begin << ", \"end\": " << e.end << "}";
  }
  os << "], \"traces\": [";
  for (std::size_t i = 0; i < trace_count_; ++i) {
    if (i) os << ", ";
    write_trace_json(os, traces_[i]);
  }
  os << "]}}\n";
}

void FlightRecorder::clear() {
  event_count_ = 0;
  trace_count_ = 0;
  captured_ = false;
  triggers_ = 0;
  frame_ = 0;
  reason_ = FlightReason::kQuarantine;
}

// --------------------------------------------------------------- export

namespace {

/// Exact microseconds with three decimals from integer nanoseconds —
/// never float-formatted, so the text is a pure function of the input.
void write_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.';
  const std::uint64_t frac = ns % 1000;
  os << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + frac / 10 % 10)
     << static_cast<char>('0' + frac % 10);
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<SessionTraces>& sessions) {
  // Streams export in ascending id order regardless of how the caller
  // collected them, so shard/thread layout cannot reorder the bytes.
  std::vector<const SessionTraces*> ordered;
  ordered.reserve(sessions.size());
  for (const SessionTraces& s : sessions) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SessionTraces* a, const SessionTraces* b) {
                     return a->stream < b->stream;
                   });

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&]() {
    os << (first ? "\n" : ",\n");
    first = false;
  };
  for (const SessionTraces* session : ordered) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << session->stream
       << ",\"tid\":0,\"args\":{\"name\":\"stream " << session->stream
       << "\"}}";
    for (const GestureTrace& t : session->traces) {
      const std::uint64_t t_end =
          t.e2e_ns() >= 0 ? t.t_emit_ns : t.t_close_ns;
      sep();
      os << "{\"name\":\"gesture\",\"ph\":\"X\",\"pid\":" << session->stream
         << ",\"tid\":" << t.trace_id << ",\"ts\":";
      write_us(os, t.t_open_ns);
      os << ",\"dur\":";
      write_us(os, t_end >= t.t_open_ns ? t_end - t.t_open_ns : 0);
      os << ",\"args\":{\"trace_id\":" << t.trace_id << ",\"outcome\":\""
         << outcome_name(t.outcome) << "\",\"segment\":\"" << t.begin << ".."
         << t.end << "\",\"open_frame\":" << t.open_frame
         << ",\"close_frame\":" << t.close_frame
         << ",\"emit_type\":" << static_cast<int>(t.emit_type)
         << ",\"spans_dropped\":" << t.spans_dropped << "}}";
      for (const TraceSpan& s : sorted_spans(t)) {
        sep();
        os << "{\"name\":\"" << trace_stage_name(s.stage)
           << "\",\"ph\":\"X\",\"pid\":" << session->stream
           << ",\"tid\":" << t.trace_id << ",\"ts\":";
        write_us(os, s.t0_ns);
        os << ",\"dur\":";
        write_us(os, s.dur_ns);
        os << "}";
      }
      for (std::uint16_t m = 0; m < t.mark_count; ++m) {
        sep();
        os << "{\"name\":\"emit\",\"ph\":\"i\",\"s\":\"t\",\"pid\":"
           << session->stream << ",\"tid\":" << t.trace_id << ",\"ts\":";
        write_us(os, t.marks[m].t_ns);
        os << ",\"args\":{\"type\":" << static_cast<int>(t.marks[m].emit_type)
           << ",\"frame\":" << t.marks[m].frame << "}}";
      }
    }
  }
  os << "\n]}\n";
}

std::string to_chrome_trace(const std::vector<SessionTraces>& sessions) {
  std::ostringstream os;
  write_chrome_trace(os, sessions);
  return os.str();
}

}  // namespace airfinger::obs
