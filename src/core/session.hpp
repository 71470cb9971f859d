// Per-stream streaming state over a shared immutable ModelBundle.
//
// A Session owns everything that changes as frames arrive from one sensor
// stream: the SBC delay samples, the dynamic-threshold segmenter state and
// calibration, the ΔRSS² of the currently open segment, and that segment's
// early-direction bookkeeping. What an idle frame touches is packed into a
// hot block at the front of the object (DESIGN.md §19). It keeps no ΔRSS² between segments: every
// decision reads only the open segment. Construction from a
// `shared_ptr<const ModelBundle>` is O(1) — it allocates only the small
// per-stream buffers and copies no forest data — so a serving host can
// spin up one Session per connected wearable against one resident copy of
// the trained models. The decision core's scratch arena belongs to the
// thread, not the Session (features::thread_workspace()), so all Sessions
// served on one thread share one. Sessions over the same bundle are
// independent: driving them from different threads needs no
// synchronization beyond the bundle's shared (read-only) ownership.
#pragma once

#include <functional>
#include <memory>

#include "core/health.hpp"
#include "core/model_bundle.hpp"
#include "dsp/dynamic_threshold.hpp"
#include "dsp/sbc.hpp"
#include "obs/pipeline.hpp"

namespace airfinger::core {

/// One sensor stream's state machine. Frames (one sample per photodiode)
/// are pushed in; the session runs SBC per channel, streams the summed
/// ΔRSS² through the dynamic-threshold segmenter, and hands each completed
/// segment to the bundle's decision core. Results are delivered as events
/// through a caller-supplied callback, including early scroll-direction
/// events emitted before the gesture ends (Sec. IV-D-1).
class Session {
 public:
  using EventCallback = std::function<void(const GestureEvent&)>;

  /// O(1): shares the bundle, allocates only the per-stream buffers. The
  /// fault policy is taken from the bundle's config.
  explicit Session(std::shared_ptr<const ModelBundle> bundle);

  /// Same, with an explicit per-stream fault policy override.
  Session(std::shared_ptr<const ModelBundle> bundle, FaultPolicy policy);

  /// Moves the stream state; the observability is re-bound to the moved
  /// sampler (see HotBlock).
  Session(Session&& other) noexcept;
  Session& operator=(Session&&) = delete;

  const ModelBundle& bundle() const { return *bundle_; }
  const AirFingerConfig& config() const { return bundle_->config(); }

  /// Feeds one frame (one RSS sample per channel). Events triggered by
  /// this frame are delivered synchronously through `callback`.
  ///
  /// Input validation: a wrong-width frame raises PreconditionError
  /// (reporting the observed and expected channel counts) and leaves the
  /// session untouched. A non-finite sample raises StreamFaultError in
  /// strict mode (policy().enabled == false); with the degraded-mode
  /// policy enabled it instead quarantines the segmenter until the stream
  /// has been clean for policy().recovery_frames, then re-calibrates (see
  /// DESIGN.md §12). On clean input both modes are bit-identical.
  void push_frame(std::span<const double> frame,
                  const EventCallback& callback);

  /// Flushes any open segment at end of stream.
  void finish(const EventCallback& callback);

  /// Processes a whole recorded trace through the streaming path,
  /// returning all events.
  std::vector<GestureEvent> process_trace(
      const sensor::MultiChannelTrace& trace);

  /// Samples consumed so far.
  std::size_t frames_seen() const { return hot_.frames; }

  /// The active degraded-mode policy (see core/health.hpp).
  const FaultPolicy& policy() const { return policy_; }

  /// Stream-health counters since construction or the last reset(),
  /// assembled from the session's metric registry (the counters live
  /// there since the observability layer subsumed the standalone struct;
  /// see DESIGN.md §13).
  HealthStats health() const;

  /// The session's observability bundle: metric registry, stage-latency
  /// histograms, and the structured pipeline-event ring. Mutable access
  /// is for configuration (clock injection, span toggling) — recording is
  /// the session's own job. Single-writer like all per-session state.
  obs::PipelineObservability& observability() { return obs_; }
  const obs::PipelineObservability& observability() const { return obs_; }

  /// True while the degraded-mode policy has the segmenter quarantined.
  bool quarantined() const { return hot_.quarantined; }

  /// Clears all streaming state (SBC delay lines, segmenter calibration,
  /// open-segment view, quarantine state, health counters) so the session
  /// can process an unrelated recording. The shared bundle is untouched.
  void reset();

  /// Bytes of per-frame state at the front of the object: an idle frame
  /// reads and writes only these, the calibration history slot it fills
  /// and the af_frames_total counter (DESIGN.md §19).
  static constexpr std::size_t kHotBytes = 304;

  /// Hints the heap lines the next push_frame() touches: through the hot
  /// block's pointers the history slot and the frame counter; while a
  /// segment is open, the open view's and the timing cache's tails; on an
  /// artifact lane, the detectors. An idle frame's call reads only the hot
  /// block, so a host issues it once that block has been prefetched.
  void prefetch_next_frame() const;

 private:
  /// Updates fault detectors for one frame; true when a fault fired.
  bool scan_frame(std::span<const double> frame);
  /// Feeds one validated frame through the pipeline body (detector accept,
  /// SBC, segmenter, probe, decide). The caller has already counted the
  /// frame in af_frames_total; this advances the stream clock. Called once
  /// per frame on the clean path and again for each held frame a repair
  /// releases — feeding repaired values through here is what makes an
  /// exact repair byte-identical to the uncorrupted trace.
  void ingest(std::span<const double> frame, const EventCallback& callback);
  /// Counts one validated frame in af_frames_total, through the hot
  /// block's pointer to the counter (Registry::inc's saturating add).
  void count_frame() {
    *hot_.frames_total = obs::saturating_add(*hot_.frames_total, 1);
  }
  /// The impulse repair gate: inspects the candidate frame against the
  /// detectors without committing it. Returns true when the frame was
  /// consumed (held, repaired-and-fed, or escalated); false hands the
  /// frame to the normal ingest path.
  bool artifact_gate(std::span<const double> frame,
                     const EventCallback& callback);
  /// Detector accept + sustained-confidence escalation for one fed frame;
  /// true when the frame triggered an artifact quarantine instead of
  /// being interpreted.
  bool artifact_accept(std::span<const double> frame);
  /// Resolves the current hold by linear interpolation and feeds the held
  /// frames (then `frame`) through ingest().
  void repair_hold(std::span<const double> frame,
                   const EventCallback& callback);
  /// Drops the held frames as quarantined (hold unresolved at a burst
  /// fault, escalation, or finish()).
  void drop_hold();
  /// Records one artifact classification (event + per-class counter).
  void note_artifact(ArtifactClass cls, std::uint64_t begin,
                     std::uint64_t end);
  void enter_quarantine();
  /// Leaves quarantine: fresh SBC delay lines and segmenter calibration,
  /// re-based at the current stream position.
  void recalibrate();
  void handle_segment(const dsp::Segment& segment,
                      const EventCallback& callback);
  /// Counts and trace-records one delivered GestureEvent.
  void note_emission(const GestureEvent& event);
  double now() const {
    return static_cast<double>(hot_.frames) / config().sample_rate_hz;
  }
  /// The inline ring, or its heap spill when the configured windows
  /// outgrow it.
  double* ring() { return hot_.spill ? hot_.spill : hot_.ring; }
  /// Zeroes the SBC delay samples and restarts the segmenter (fresh
  /// calibration, zeroed smoothing ring).
  void restart_dsp();

  /// Everything an idle frame reads or writes, packed at the front of the
  /// object so a serving host can pull a lane's per-frame state into cache
  /// as a few adjacent lines (DESIGN.md §19). Pointers here lead to heap
  /// storage only, so a move keeps them valid.
  struct HotBlock {
    /// Inline ring capacity, in doubles: the default 3 channels × 1 SBC
    /// sample plus the 14-sample smoothing window.
    static constexpr std::size_t kRingCapacity = 17;
    /// SBC delay samples, frame-major (sbc_window frames × channels), then
    /// the segmenter's smoothing ring (seg.smooth_len values). One layout
    /// for any configured window: `spill` holds it when it does not fit.
    double ring[kRingCapacity] = {};
    dsp::SegmenterState seg;
    std::size_t frames = 0;  ///< Samples consumed (the stream clock).
    /// Absolute sample index the segmenter's position 0 corresponds to.
    /// 0 until the first recalibration; segmenter-space segment indices
    /// are shifted by this before any event emission.
    std::size_t segment_offset = 0;
    std::size_t open_segment_begin = 0;  ///< Stream index of the open view.
    double* spill = nullptr;             ///< ring_spill_ when in use.
    double* history = nullptr;           ///< calibration_.history().
    std::uint64_t* frames_total = nullptr;  ///< af_frames_total's cell.
    obs::FrameSampler sampler;  ///< Bound into obs_ (per-frame spans).
    std::uint32_t channels = 0;
    std::uint32_t sbc_window = 1;  ///< w, in frames.
    std::uint32_t sbc_head = 0;    ///< Ring frame the next sample replaces.
    std::uint32_t sbc_seen = 0;    ///< Frames seen, saturating at w.
    /// Early-direction verdict already sent for the open segment.
    bool early_direction_sent = false;
    /// open_view_ holds the open segment (see open_view_).
    bool open_view_valid = false;
    bool quarantined = false;      ///< Degraded mode holds the segmenter.
    bool policy_enabled = false;   ///< policy_.enabled.
    bool artifact_active = false;  ///< The artifact detectors run.
  };
  static_assert(sizeof(HotBlock) == kHotBytes,
                "the hot block grows only on purpose: re-measure the host "
                "prefetch when it does");

  HotBlock hot_;
  std::shared_ptr<const ModelBundle> bundle_;
  FaultPolicy policy_;
  /// Heap home of the hot block's ring when channels × w plus the
  /// smoothing window exceed HotBlock::kRingCapacity; empty otherwise.
  std::vector<double> ring_spill_;
  /// The segmenter's recalibration side: config, history ring, Otsu
  /// scratch (touched once every update_interval frames).
  dsp::SegmenterCalibration calibration_;
  /// The ΔRSS² of the currently open segment in local indices, appended
  /// one frame at a time (O(channels) per frame). It is the only ΔRSS²
  /// the session keeps: the probe reads all of it, and a closing segment,
  /// which opened on the view's first frame, is decided on a prefix of
  /// it. Valid from segment open until the segment is decided or
  /// abandoned; spans [open_segment_begin, frames) while valid.
  ProcessedTrace open_view_;
  /// Incremental timing analysis over the open segment: fed one frame at a
  /// time so each early-direction probe costs amortized O(n) instead of
  /// recomputing segment_timing() from scratch. Configured from the
  /// bundle's probe timing config.
  OpenSegmentTiming timing_cache_;
  /// Metrics, stage spans, and the pipeline-event ring (DESIGN.md §13).
  /// Record-only: nothing in here feeds back into any decision, so
  /// emissions are bit-identical with instrumentation on or off.
  obs::PipelineObservability obs_;
  // ---- degraded-mode state (core/health.hpp; inert when policy_ is off).
  /// Clean frames seen in a row while quarantined (recovery progress).
  std::size_t clean_run_ = 0;
  /// Per-channel fault detectors: last sample value and the lengths of the
  /// current identical-value and saturated runs. Fixed-size, allocated at
  /// construction — the per-frame scan touches no heap.
  std::vector<double> last_sample_;
  std::vector<std::uint32_t> same_run_;
  std::vector<std::uint32_t> sat_run_;
  // ---- graded artifact state (DESIGN.md §17; empty when detect is off).
  /// One streaming detector per channel (sensor/artifact.hpp); all buffers
  /// preallocated, so the per-frame artifact path stays 0-alloc.
  std::vector<sensor::ChannelArtifactDetector> detectors_;
  /// Hold buffer for suspected impulses: up to repair_limit frames
  /// (channel-major, flat) withheld from the pipeline until repaired or
  /// escalated.
  std::vector<double> hold_frames_;
  std::vector<std::uint8_t> hold_flag_;  ///< Per channel: impulse-flagged.
  std::size_t hold_len_ = 0;
  /// Stream positions of recent repair episodes (ring of
  /// crackle_repairs entries) for the crackle rate monitor.
  std::vector<std::uint64_t> repair_ring_;
  std::size_t repair_ring_head_ = 0;
  std::uint64_t repairs_total_ = 0;
  /// Sustained-confidence run lengths for the slow escalation classes.
  std::uint32_t impulsive_run_ = 0;
  std::uint32_t drift_run_ = 0;
  std::uint32_t flicker_run_ = 0;
};

}  // namespace airfinger::core
