#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/prefetch.hpp"
#include "features/workspace.hpp"

namespace airfinger::core {

namespace {
dsp::SegmenterConfig session_segmenter_config(
    const std::shared_ptr<const ModelBundle>& bundle) {
  AF_EXPECT(bundle != nullptr, "Session requires a model bundle");
  dsp::SegmenterConfig seg = bundle->config().processing.segmenter;
  seg.sample_rate_hz = bundle->config().sample_rate_hz;
  return seg;
}

/// The calling thread's workspace with its tracing sink pointed at one
/// session for the scope of a probe or decide call. The previous sink is
/// restored on exit, so the thread's workspace never points at a session
/// outside that session's own calls.
class BoundWorkspace {
 public:
  explicit BoundWorkspace(obs::PipelineObservability& obs)
      : workspace_(features::thread_workspace()),
        previous_(std::exchange(workspace_.obs, &obs)) {}
  ~BoundWorkspace() { workspace_.obs = previous_; }
  BoundWorkspace(const BoundWorkspace&) = delete;
  BoundWorkspace& operator=(const BoundWorkspace&) = delete;

  features::Workspace& get() { return workspace_; }

 private:
  features::Workspace& workspace_;
  obs::PipelineObservability* previous_;
};
}  // namespace

Session::Session(std::shared_ptr<const ModelBundle> bundle)
    : Session(bundle, bundle ? bundle->config().fault_policy
                             : FaultPolicy{}) {}

Session::Session(std::shared_ptr<const ModelBundle> bundle,
                 FaultPolicy policy)
    : bundle_(std::move(bundle)),
      policy_(policy),
      calibration_(session_segmenter_config(bundle_)) {
  const DataProcessor processor(config().processing);
  const std::size_t channels = config().channels;
  const std::size_t w = processor.window_samples(config().sample_rate_hz);
  AF_EXPECT(w <= std::numeric_limits<std::uint32_t>::max(),
            "SBC window must fit 32 bits");
  hot_.channels = static_cast<std::uint32_t>(channels);
  hot_.sbc_window = static_cast<std::uint32_t>(w);
  const std::size_t ring_size = w * channels + calibration_.smooth_samples();
  if (ring_size > HotBlock::kRingCapacity) {
    ring_spill_.assign(ring_size, 0.0);
    hot_.spill = ring_spill_.data();
  }
  hot_.history = calibration_.history();
  hot_.seg = calibration_.restart();
  hot_.frames_total = obs_.registry().counter_cell(obs_.frames);
  obs_.bind_sampler(hot_.sampler);
  hot_.policy_enabled = policy_.enabled;
  open_view_.sample_rate_hz = config().sample_rate_hz;
  open_view_.delta_rss2.resize(channels);
  timing_cache_.configure(channels, config().sample_rate_hz,
                          bundle_->probe_timing_config());
  last_sample_.assign(channels, std::numeric_limits<double>::quiet_NaN());
  same_run_.assign(channels, 0);
  sat_run_.assign(channels, 0);
  if (policy_.enabled && policy_.artifact.detect) {
    const ArtifactPolicy& ap = policy_.artifact;
    AF_EXPECT(ap.repair_z > 0.0, "artifact repair_z must be positive");
    AF_EXPECT(ap.repair_min_step > 0.0,
              "artifact repair_min_step must be positive");
    AF_EXPECT(ap.repair_limit >= 1, "artifact repair_limit must be >= 1");
    AF_EXPECT(ap.crackle_repairs >= 2 && ap.crackle_window >= 1,
              "crackle rate monitor needs repairs >= 2 and window >= 1");
    AF_EXPECT(ap.impulsive_sustain >= 1 && ap.drift_sustain >= 1 &&
                  ap.flicker_sustain >= 1,
              "artifact sustain windows must be >= 1");
    detectors_.reserve(channels);
    for (std::size_t c = 0; c < channels; ++c)
      detectors_.emplace_back(ap.detector);
    hold_frames_.assign(ap.repair_limit * channels, 0.0);
    hold_flag_.assign(channels, 0);
    repair_ring_.assign(ap.crackle_repairs, 0);
    hot_.artifact_active = true;
  }
}

Session::Session(Session&& other) noexcept
    : hot_(other.hot_),
      bundle_(std::move(other.bundle_)),
      policy_(other.policy_),
      ring_spill_(std::move(other.ring_spill_)),
      calibration_(std::move(other.calibration_)),
      open_view_(std::move(other.open_view_)),
      timing_cache_(std::move(other.timing_cache_)),
      obs_(std::move(other.obs_)),
      clean_run_(other.clean_run_),
      last_sample_(std::move(other.last_sample_)),
      same_run_(std::move(other.same_run_)),
      sat_run_(std::move(other.sat_run_)),
      detectors_(std::move(other.detectors_)),
      hold_frames_(std::move(other.hold_frames_)),
      hold_flag_(std::move(other.hold_flag_)),
      hold_len_(other.hold_len_),
      repair_ring_(std::move(other.repair_ring_)),
      repair_ring_head_(other.repair_ring_head_),
      repairs_total_(other.repairs_total_),
      impulsive_run_(other.impulsive_run_),
      drift_run_(other.drift_run_),
      flicker_run_(other.flicker_run_) {
  // The heap pointers in hot_ moved with their buffers; only the sampler,
  // which lives in hot_ itself, has a new address.
  obs_.bind_sampler(hot_.sampler);
}

void Session::prefetch_next_frame() const {
  common::prefetch(hot_.history + hot_.seg.history_slot);
  common::prefetch(hot_.frames_total);
  if (hot_.open_view_valid) {
    for (const auto& ch : open_view_.delta_rss2)
      common::prefetch(ch.data() + ch.size());
    common::prefetch(open_view_.energy.data() + open_view_.energy.size());
    if (!hot_.early_direction_sent) timing_cache_.prefetch_append();
  }
  if (hot_.artifact_active)
    common::prefetch_range(
        detectors_.data(),
        detectors_.size() * sizeof(sensor::ChannelArtifactDetector));
}

void Session::restart_dsp() {
  double* const r = ring();
  std::fill(r, r + std::size_t{hot_.sbc_window} * hot_.channels, 0.0);
  hot_.sbc_head = 0;
  hot_.sbc_seen = 0;
  hot_.seg = calibration_.restart();
  double* const smooth = r + std::size_t{hot_.sbc_window} * hot_.channels;
  std::fill(smooth, smooth + hot_.seg.smooth_len, 0.0);
}

void Session::handle_segment(const dsp::Segment& segment,
                             const EventCallback& callback) {
  // Decide on the segment window re-based to local indices. A completed
  // (or flushed) segment is always a prefix of the open-segment view: it
  // opens on the view's first frame, and its end is the last
  // above-threshold sample + 1 while the view extends through the
  // below-threshold gap. Once quarantine has dropped the view, no segment
  // closes until recalibration has reset the segmenter. Trimming the view
  // therefore yields the exact window with no copy.
  const std::size_t len = segment.length();
  AF_ASSERT(hot_.open_view_valid && segment.begin == hot_.open_segment_begin &&
                len <= open_view_.energy.size(),
            "closed segment is not a prefix of the open-segment view");
  GestureEvent event;
  {
    obs::Span span(&obs_, obs::Stage::kDecide);
    for (auto& ch : open_view_.delta_rss2) ch.resize(len);
    open_view_.energy.resize(len);
    BoundWorkspace workspace(obs_);
    event = bundle_->decide(open_view_, dsp::Segment{0, len}, workspace.get());
  }
  hot_.open_view_valid = false;
  event.time_s = now();
  event.segment_begin = segment.begin;
  event.segment_end = segment.end;
  obs_.registry().inc(obs_.segments_closed);
  obs_.record(obs::PipelineEvent::Kind::kSegmentClose, hot_.frames,
              segment.begin, segment.end);
  if (event.type == GestureEvent::Type::kNonGesture)
    obs_.record(
        obs::PipelineEvent::Kind::kSegmentReject, hot_.frames, segment.begin,
        segment.end,
        static_cast<std::uint8_t>(obs::PipelineEvent::Reject::kFiltered));
  callback(event);
  note_emission(event);
}

HealthStats Session::health() const {
  const obs::Registry& r = obs_.registry();
  HealthStats h;
  h.frames = r.counter_value(obs_.frames);
  h.non_finite_samples = r.counter_value(obs_.non_finite_samples);
  h.saturated_samples = r.counter_value(obs_.saturated_samples);
  h.stuck_samples = r.counter_value(obs_.stuck_samples);
  h.quarantined_frames = r.counter_value(obs_.quarantined_frames);
  h.quarantines = r.counter_value(obs_.quarantines);
  h.recalibrations = r.counter_value(obs_.recalibrations);
  h.segments_dropped = r.counter_value(obs_.segments_dropped);
  return h;
}

void Session::note_emission(const GestureEvent& event) {
  obs::Registry& r = obs_.registry();
  switch (event.type) {
    case GestureEvent::Type::kDetectGesture:
      r.inc(obs_.events_detect);
      break;
    case GestureEvent::Type::kScrollDetected:
      r.inc(obs_.events_scroll);
      break;
    case GestureEvent::Type::kScrollDirection:
      r.inc(obs_.events_direction);
      break;
    case GestureEvent::Type::kNonGesture:
      r.inc(obs_.events_rejected);
      break;
  }
  obs_.record(obs::PipelineEvent::Kind::kEmit, hot_.frames, event.segment_begin,
              event.segment_end, static_cast<std::uint8_t>(event.type));
}

bool Session::scan_frame(std::span<const double> frame) {
  // Per-channel fault detectors (degraded mode only): O(channels)
  // comparisons, no allocation. Runs saturate at their trigger limit so
  // the counters cannot overflow on arbitrarily long fault bursts.
  bool fault = false;
  for (std::size_t c = 0; c < frame.size(); ++c) {
    const double x = frame[c];
    if (!std::isfinite(x)) {
      obs_.registry().inc(obs_.non_finite_samples);
      // A non-finite value resets the run trackers (NaN compares unequal
      // to everything, including itself).
      last_sample_[c] = x;
      same_run_[c] = 1;
      sat_run_[c] = 0;
      fault = true;
      continue;
    }
    if (x == last_sample_[c]) {
      if (same_run_[c] < policy_.stuck_run_limit) ++same_run_[c];
      if (same_run_[c] >= policy_.stuck_run_limit) {
        obs_.registry().inc(obs_.stuck_samples);
        fault = true;
      }
    } else {
      same_run_[c] = 1;
      last_sample_[c] = x;
    }
    if (std::abs(x) >= policy_.saturation_level) {
      obs_.registry().inc(obs_.saturated_samples);
      if (sat_run_[c] < policy_.saturation_run_limit) ++sat_run_[c];
      if (sat_run_[c] >= policy_.saturation_run_limit) fault = true;
    } else {
      sat_run_[c] = 0;
    }
  }
  return fault;
}

void Session::enter_quarantine() {
  hot_.quarantined = true;
  clean_run_ = 0;
  obs_.registry().inc(obs_.quarantines);
  obs_.registry().set(obs_.quarantined, 1.0);
  obs_.record(obs::PipelineEvent::Kind::kQuarantineEnter, hot_.frames);
  // Whatever the segmenter had open was built on corrupt samples: drop it.
  // The segmenter itself is re-calibrated from scratch on recovery.
  if (hot_.seg.in_gesture) {
    obs_.registry().inc(obs_.segments_dropped);
    obs_.record(
        obs::PipelineEvent::Kind::kSegmentReject, hot_.frames,
        hot_.open_segment_begin, hot_.frames,
        static_cast<std::uint8_t>(obs::PipelineEvent::Reject::kQuarantined));
  }
  hot_.open_view_valid = false;
  hot_.early_direction_sent = false;
}

void Session::recalibrate() {
  hot_.quarantined = false;
  clean_run_ = 0;
  obs_.registry().inc(obs_.recalibrations);
  obs_.registry().set(obs_.quarantined, 0.0);
  obs_.record(obs::PipelineEvent::Kind::kQuarantineExit, hot_.frames);
  restart_dsp();
  // Re-base: the segmenter restarts at position 0 while the stream clock
  // (hot_.frames) keeps running, so segmenter-space indices are shifted by
  // hot_.segment_offset from here on.
  hot_.segment_offset = hot_.frames;
  hot_.open_view_valid = false;
  hot_.early_direction_sent = false;
  timing_cache_.begin_segment();
  // Recalibration is a fresh start for the artifact layer too: the
  // adaptive statistics re-learn the post-fault signal (warmup keeps them
  // quiet meanwhile), and the sustained-confidence runs restart.
  for (auto& d : detectors_) d.reset();
  impulsive_run_ = drift_run_ = flicker_run_ = 0;
}

void Session::push_frame(std::span<const double> frame,
                         const EventCallback& callback) {
  AF_EXPECT(frame.size() == hot_.channels,
            "frame carries " + std::to_string(frame.size()) +
                " samples but the session expects " +
                std::to_string(hot_.channels) + " channels");
  AF_EXPECT(static_cast<bool>(callback), "event callback is required");

  if (hot_.policy_enabled) {
    const bool fault_now = scan_frame(frame);
    if (!hot_.quarantined && fault_now) {
      // A burst fault while frames are held back: the hold was corruption
      // after all — drop it with the stream, then quarantine.
      if (hold_len_ > 0) drop_hold();
      enter_quarantine();
    }
    if (hot_.quarantined) {
      // Consume the frame (the stream clock keeps running) but feed
      // nothing downstream; recover after a sustained clean run.
      ++hot_.frames;
      count_frame();
      obs_.registry().inc(obs_.quarantined_frames);
      if (fault_now)
        clean_run_ = 0;
      else if (++clean_run_ >= policy_.recovery_frames)
        recalibrate();
      return;
    }
  } else {
    for (std::size_t c = 0; c < frame.size(); ++c)
      if (!std::isfinite(frame[c]))
        throw StreamFaultError(
            "non-finite sample on channel " + std::to_string(c) +
            " at frame " + std::to_string(hot_.frames) +
            " (enable FaultPolicy for degraded-mode handling)");
  }
  // Every validated frame is accounted here exactly once, whether it is
  // fed now, held for repair, or later dropped by an escalation.
  count_frame();

  if (hot_.artifact_active && artifact_gate(frame, callback)) return;
  ingest(frame, callback);
}

bool Session::artifact_gate(std::span<const double> frame,
                            const EventCallback& callback) {
  const ArtifactPolicy& ap = policy_.artifact;
  if (hold_len_ == 0) {
    // Peek at the candidate frame against the adaptive derivative
    // statistics without committing it. Detection is graded: crossing
    // click_sigma only counts (the clean-traffic false-alarm proxy);
    // holding a frame for repair additionally needs the stricter repair_z
    // *and* the absolute repair_min_step floor.
    bool start = false;
    for (std::size_t c = 0; c < frame.size(); ++c) {
      const double z = detectors_[c].click_z(frame[c]);
      if (z >= ap.detector.click_sigma)
        obs_.registry().inc(obs_.artifact_impulse_suspect);
      if (ap.repair && z >= ap.repair_z &&
          std::abs(frame[c] - detectors_[c].last()) >= ap.repair_min_step) {
        start = true;
        hold_flag_[c] = 1;
      }
    }
    if (!start) return false;
    obs_.registry().inc(obs_.artifact_impulse_detected);
    std::copy(frame.begin(), frame.end(), hold_frames_.begin());
    hold_len_ = 1;
    return true;
  }

  // A hold is pending. Resume when the frame sits within the absolute
  // repair floor of every channel's last accepted value — genuine signal
  // movement stays under repair_min_step across a repair_limit-frame gap
  // by the policy's own threshold derivation; an impulse or a shifted
  // level does not.
  bool resume = true;
  for (std::size_t c = 0; c < frame.size(); ++c)
    if (std::abs(frame[c] - detectors_[c].last()) >= ap.repair_min_step) {
      resume = false;
      break;
    }
  if (resume) {
    repair_hold(frame, callback);
    return true;
  }
  const std::size_t channels = frame.size();
  if (hold_len_ < ap.repair_limit) {
    std::copy(frame.begin(), frame.end(),
              hold_frames_.begin() +
                  static_cast<long>(hold_len_ * channels));
    ++hold_len_;
    return true;
  }

  // Hold overflow: this was never an isolated impulse. With escalation
  // off, release the raw frames through the unchanged pipeline (a pure
  // delay — downstream emissions are identical to never having held).
  if (!ap.escalate) {
    const std::size_t held = hold_len_;
    hold_len_ = 0;
    std::fill(hold_flag_.begin(), hold_flag_.end(), 0);
    for (std::size_t j = 0; j < held; ++j)
      ingest({hold_frames_.data() + j * channels, channels}, callback);
    ingest(frame, callback);
    return true;
  }

  // Escalate: settled held values mean the level jumped and stayed — a
  // zipper/step; unsettled ones are a dense impulse train — crackle.
  // Either way the held frames and this one are corruption: drop them and
  // quarantine (recovery recalibrates onto the new level).
  bool settled = true;
  for (std::size_t c = 0; c < channels && settled; ++c) {
    if (!hold_flag_[c]) continue;
    double prev = hold_frames_[(hold_len_ - 1) * channels + c];
    if (std::abs(frame[c] - prev) >= ap.repair_min_step) settled = false;
    if (hold_len_ >= 2) {
      const double before = hold_frames_[(hold_len_ - 2) * channels + c];
      if (std::abs(prev - before) >= ap.repair_min_step) settled = false;
    }
  }
  const ArtifactClass cls =
      settled ? ArtifactClass::kStep : ArtifactClass::kCrackle;
  note_artifact(cls, hot_.frames, hot_.frames + hold_len_ + 1);
  obs_.registry().inc(obs_.artifact_quarantines);
  drop_hold();
  ++hot_.frames;
  obs_.registry().inc(obs_.quarantined_frames);
  enter_quarantine();
  return true;
}

void Session::repair_hold(std::span<const double> frame,
                          const EventCallback& callback) {
  const std::size_t channels = frame.size();
  // Linear interpolation across the gap: held frame j (of n) on a flagged
  // channel becomes base + (clean - base) * (j+1)/(n+1), where base is the
  // last accepted sample and clean the resuming one. Channels that never
  // fired keep their recorded values. When the clean signal is itself
  // locally linear the repaired values equal the uncorrupted ones exactly
  // and the downstream byte stream is identical to a clean trace.
  const double n1 = static_cast<double>(hold_len_ + 1);
  for (std::size_t c = 0; c < channels; ++c) {
    if (!hold_flag_[c]) continue;
    const double base = detectors_[c].last();
    const double span = frame[c] - base;
    for (std::size_t j = 0; j < hold_len_; ++j)
      hold_frames_[j * channels + c] =
          base + span * static_cast<double>(j + 1) / n1;
  }
  obs_.registry().inc(obs_.artifact_impulse_repaired);
  obs_.registry().inc(obs_.artifact_repaired_frames, hold_len_);
  note_artifact(ArtifactClass::kImpulse, hot_.frames, hot_.frames + hold_len_);

  // Crackle rate monitor: too many repair episodes inside a sliding
  // window mean the "isolated" impulses are a train.
  const std::uint64_t pos = hot_.frames;
  repair_ring_[repair_ring_head_] = pos;
  repair_ring_head_ = (repair_ring_head_ + 1) % repair_ring_.size();
  ++repairs_total_;
  const bool crackling =
      policy_.artifact.escalate && repairs_total_ >= repair_ring_.size() &&
      pos - repair_ring_[repair_ring_head_] < policy_.artifact.crackle_window;

  const std::size_t held = hold_len_;
  hold_len_ = 0;
  std::fill(hold_flag_.begin(), hold_flag_.end(), 0);
  for (std::size_t j = 0; j < held; ++j)
    ingest({hold_frames_.data() + j * channels, channels}, callback);
  ingest(frame, callback);

  if (crackling && !hot_.quarantined) {
    note_artifact(ArtifactClass::kCrackle,
                  pos >= policy_.artifact.crackle_window
                      ? pos - policy_.artifact.crackle_window
                      : 0,
                  hot_.frames);
    obs_.registry().inc(obs_.artifact_quarantines);
    enter_quarantine();
  }
}

void Session::drop_hold() {
  if (hold_len_ == 0) return;
  // The held frames were already counted in af_frames_total at push time;
  // consume them as degraded and advance the stream clock past them.
  obs_.registry().inc(obs_.quarantined_frames, hold_len_);
  hot_.frames += hold_len_;
  hold_len_ = 0;
  std::fill(hold_flag_.begin(), hold_flag_.end(), 0);
}

void Session::note_artifact(ArtifactClass cls, std::uint64_t begin,
                            std::uint64_t end) {
  obs::Registry& r = obs_.registry();
  switch (cls) {
    case ArtifactClass::kImpulse:
      break;  // Detection/repair already counted by the gate.
    case ArtifactClass::kCrackle:
      r.inc(obs_.artifact_crackle_detected);
      break;
    case ArtifactClass::kStep:
      r.inc(obs_.artifact_step_detected);
      break;
    case ArtifactClass::kDrift:
      r.inc(obs_.artifact_drift_detected);
      break;
    case ArtifactClass::kFlicker:
      r.inc(obs_.artifact_flicker_detected);
      break;
  }
  obs_.record(obs::PipelineEvent::Kind::kArtifact, hot_.frames, begin, end,
              static_cast<std::uint8_t>(cls));
}

bool Session::artifact_accept(std::span<const double> frame) {
  const ArtifactPolicy& ap = policy_.artifact;
  double impulsive = 0.0;
  double drift = 0.0;
  double tonal = 0.0;
  double flicker = 0.0;
  for (std::size_t c = 0; c < frame.size(); ++c) {
    const sensor::ArtifactScores s = detectors_[c].accept(frame[c]);
    impulsive = std::max(impulsive, std::max(s.residual, s.kurtosis));
    drift = std::max(drift, s.drift);
    tonal = std::max(tonal, s.tonal);
    flicker = std::max(flicker, s.flicker);
  }
  if (impulsive >= 1.0) {
    obs_.registry().inc(obs_.artifact_impulsive_suspect);
    ++impulsive_run_;
  } else {
    impulsive_run_ = 0;
  }
  if (tonal >= 1.0) obs_.registry().inc(obs_.artifact_tonal_suspect);
  drift_run_ = drift >= 1.0 ? drift_run_ + 1 : 0;
  flicker_run_ = (flicker >= 1.0 && tonal >= 1.0) ? flicker_run_ + 1 : 0;
  if (!ap.escalate) return false;

  // Sustained-confidence escalation, most specific class first. The runs
  // must outlast any clean gesture (the policy's sustain windows are the
  // false-positive guard), so by the time one trips the stream has been
  // corrupt for a while already.
  ArtifactClass cls;
  std::uint64_t run;
  if (flicker_run_ >= ap.flicker_sustain) {
    cls = ArtifactClass::kFlicker;
    run = flicker_run_;
  } else if (drift_run_ >= ap.drift_sustain) {
    cls = ArtifactClass::kDrift;
    run = drift_run_;
  } else if (impulsive_run_ >= ap.impulsive_sustain) {
    cls = ArtifactClass::kCrackle;
    run = impulsive_run_;
  } else {
    return false;
  }
  note_artifact(cls, hot_.frames >= run ? hot_.frames - run : 0, hot_.frames + 1);
  obs_.registry().inc(obs_.artifact_quarantines);
  impulsive_run_ = drift_run_ = flicker_run_ = 0;
  enter_quarantine();
  return true;
}

void Session::ingest(std::span<const double> frame,
                     const EventCallback& callback) {
  // Reachable while quarantined only when a repair released held frames
  // and an escalation fired mid-release: consume the remainder degraded.
  if (hot_.quarantined) {
    ++hot_.frames;
    obs_.registry().inc(obs_.quarantined_frames);
    clean_run_ = 0;
    return;
  }
  if (hot_.artifact_active && artifact_accept(frame)) {
    ++hot_.frames;
    obs_.registry().inc(obs_.quarantined_frames);
    return;
  }

  // Per-frame stage spans (ingest / timing_cache / probe) are sampled
  // 1-in-N on a deterministic counter so steady-state clock reads stay
  // within the tracing overhead budget; segment-level spans always record.
  obs::PipelineObservability* const frame_obs =
      hot_.sampler.next() ? &obs_ : nullptr;

  // This frame's ΔRSS² per channel: kept only here unless a segment is
  // open, in which case it is appended to the open-segment view below.
  double deltas[kMaxTimingChannels] = {};
  const std::size_t channels = frame.size();
  double energy = 0.0;
  const bool was_open = hot_.seg.in_gesture;
  std::optional<dsp::Segment> completed;
  {
    // Stage span: SBC update + segmenter advance. At most one span per
    // frame, so an idle stream costs at most two clock reads per sampling
    // period.
    obs::Span span(frame_obs, obs::Stage::kIngest);
    double* const r = ring();
    double* const delay = r + std::size_t{hot_.sbc_head} * channels;
    const bool primed = hot_.sbc_seen == hot_.sbc_window;
    for (std::size_t c = 0; c < channels; ++c) {
      deltas[c] = dsp::sbc_step(delay[c], frame[c], primed);
      energy += deltas[c];
    }
    if (++hot_.sbc_head == hot_.sbc_window) hot_.sbc_head = 0;
    if (!primed) ++hot_.sbc_seen;
    completed = dsp::segmenter_push(
        hot_.seg, r + std::size_t{hot_.sbc_window} * channels, hot_.history,
        calibration_, energy);
  }
  ++hot_.frames;
  // Segmenter indices are relative to the last recalibration; events use
  // absolute stream indices.
  if (completed) {
    completed->begin += hot_.segment_offset;
    completed->end += hot_.segment_offset;
  }

  if (!was_open && hot_.seg.in_gesture) {
    hot_.open_segment_begin = hot_.frames - 1;
    hot_.early_direction_sent = false;
    for (auto& ch : open_view_.delta_rss2) ch.clear();
    open_view_.energy.clear();
    hot_.open_view_valid = true;
    timing_cache_.begin_segment();
    obs_.registry().inc(obs_.segments_opened);
    obs_.record(obs::PipelineEvent::Kind::kSegmentOpen, hot_.frames,
                hot_.open_segment_begin, hot_.frames);
  }

  // Maintain the open-segment view incrementally: O(channels) per frame
  // instead of an O(channels · length) copy per probe.
  if (hot_.open_view_valid && (was_open || hot_.seg.in_gesture)) {
    for (std::size_t c = 0; c < channels; ++c)
      open_view_.delta_rss2[c].push_back(deltas[c]);
    open_view_.energy.push_back(energy);
    // Feed the probe's incremental timing analysis; once the early verdict
    // is out no probe will read it again this segment.
    if (!hot_.early_direction_sent) {
      obs::Span span(frame_obs, obs::Stage::kTimingCache);
      timing_cache_.append({deltas, channels});
    }
  }

  // Early scroll-direction verdict: once the open segment is longer than
  // I_g and the router already sees an ordered rise, report direction
  // without waiting for the gesture to finish.
  if (hot_.seg.in_gesture && !hot_.early_direction_sent) {
    const std::size_t open_len = hot_.frames - hot_.open_segment_begin;
    const auto ig_samples = static_cast<std::size_t>(
        config().router.ig_threshold_s * config().sample_rate_hz);
    if (open_len > 2 * ig_samples + 2) {
      AF_ASSERT(hot_.open_view_valid &&
                    open_view_.energy.size() == open_len,
                "open-segment view out of sync with the segmenter");
      const dsp::Segment local{0, open_len};
      const auto est = [&] {
        obs::Span span(frame_obs, obs::Stage::kProbe);
        BoundWorkspace workspace(obs_);
        return bundle_->probe_direction(open_view_, local, workspace.get(),
                                        timing_cache_);
      }();
      if (est) {
        GestureEvent event;
        event.type = GestureEvent::Type::kScrollDirection;
        event.time_s = now();
        event.segment_begin = hot_.open_segment_begin;
        event.segment_end = hot_.frames;
        event.scroll = *est;
        hot_.early_direction_sent = true;
        callback(event);
        note_emission(event);
      }
    }
  }

  if (completed) handle_segment(*completed, callback);
  // The segmenter may abandon an open segment without completing it (too
  // short): drop the maintained view with it.
  if (!hot_.seg.in_gesture) {
    if (was_open && !completed && hot_.open_view_valid) {
      obs_.registry().inc(obs_.segments_abandoned);
      obs_.record(
          obs::PipelineEvent::Kind::kSegmentReject, hot_.frames,
          hot_.open_segment_begin, hot_.frames,
          static_cast<std::uint8_t>(obs::PipelineEvent::Reject::kTooShort));
    }
    hot_.open_view_valid = false;
  }
}

void Session::finish(const EventCallback& callback) {
  AF_EXPECT(static_cast<bool>(callback), "event callback is required");
  // A quarantined stream ends without trusting its pre-fault open segment
  // (already counted in segments_dropped when quarantine was entered).
  if (hot_.quarantined) return;
  // A hold pending at end of stream never found its clean resume sample:
  // there is nothing to interpolate toward, so the suspect tail is dropped
  // as degraded rather than fed raw.
  if (hold_len_ > 0) drop_hold();
  if (auto open = dsp::segmenter_flush(hot_.seg)) {
    open->begin += hot_.segment_offset;
    open->end += hot_.segment_offset;
    handle_segment(*open, callback);
  }
}

void Session::reset() {
  restart_dsp();
  hot_.frames = 0;
  hot_.early_direction_sent = false;
  hot_.open_segment_begin = 0;
  for (auto& ch : open_view_.delta_rss2) ch.clear();
  open_view_.energy.clear();
  hot_.open_view_valid = false;
  timing_cache_.begin_segment();
  obs_.reset_values();
  hot_.quarantined = false;
  clean_run_ = 0;
  hot_.segment_offset = 0;
  std::fill(last_sample_.begin(), last_sample_.end(),
            std::numeric_limits<double>::quiet_NaN());
  std::fill(same_run_.begin(), same_run_.end(), 0u);
  std::fill(sat_run_.begin(), sat_run_.end(), 0u);
  for (auto& d : detectors_) d.reset();
  hold_len_ = 0;
  std::fill(hold_flag_.begin(), hold_flag_.end(),
            static_cast<std::uint8_t>(0));
  std::fill(repair_ring_.begin(), repair_ring_.end(), 0u);
  repair_ring_head_ = 0;
  repairs_total_ = 0;
  impulsive_run_ = drift_run_ = flicker_run_ = 0;
}

std::vector<GestureEvent> Session::process_trace(
    const sensor::MultiChannelTrace& trace) {
  AF_EXPECT(trace.channel_count() == config().channels,
            "trace carries " + std::to_string(trace.channel_count()) +
                " channels but the session expects " +
                std::to_string(config().channels));
  std::vector<GestureEvent> events;
  const auto sink = [&events](const GestureEvent& e) {
    events.push_back(e);
  };
  std::vector<double> frame(trace.channel_count());
  for (std::size_t i = 0; i < trace.sample_count(); ++i) {
    for (std::size_t c = 0; c < frame.size(); ++c)
      frame[c] = trace.channel(c)[i];
    push_frame(frame, sink);
  }
  finish(sink);
  return events;
}

}  // namespace airfinger::core
