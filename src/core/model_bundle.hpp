// The immutable model layer of the engine: everything that is trained
// offline and then frozen for deployment — configuration, the fitted
// detect recognizer, and the optional interference filter — packaged as a
// single shareable object.
//
// A ModelBundle is reference-counted (`std::shared_ptr<const ModelBundle>`)
// and never mutated after construction, so any number of concurrent
// Sessions (see core/session.hpp) can serve independent sensor streams
// from one copy of the forests. The bundle also owns the *decision core*:
// routing, interference filtering, and classification of one segmented
// gesture window are pure functions of the trained models, so they live
// here rather than in the per-stream Session.
//
// Persistence: a bundle serializes to one versioned artifact (tagged
// header `afbundle 1`, ml/serialize-style line-oriented text with exact
// hex-float doubles).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "core/data_processor.hpp"
#include "core/detect_recognizer.hpp"
#include "core/health.hpp"
#include "core/interference_filter.hpp"
#include "core/timing_cache.hpp"
#include "core/type_router.hpp"
#include "core/zebra.hpp"
#include "synth/motion_kind.hpp"

namespace airfinger::core {

/// Engine configuration.
struct AirFingerConfig {
  double sample_rate_hz = 100.0;
  std::size_t channels = 3;
  DataProcessorConfig processing{};
  TypeRouterConfig router{};
  ZebraConfig zebra{};
  DetectRecognizerConfig recognizer{};
  InterferenceFilterConfig interference{};
  bool interference_filtering = true;  ///< Enable the non-gesture filter.
  /// Hybrid routing: the recognizer is trained on all eight gestures and
  /// cross-checks the rule-based router — a track-routed segment that the
  /// classifier confidently calls a detect gesture is re-labelled, and a
  /// detect-routed segment classified as a scroll is handed to ZEBRA. This
  /// recovers rule misroutes at the cost of one extra classification; the
  /// rule-only mode reproduces the paper's architecture exactly.
  bool hybrid_routing = true;
  /// Classifier probability needed to override the rule-based router.
  double hybrid_override_margin = 0.50;
  /// A segment is rejected as unintentional motion only when the filter's
  /// P(gesture) falls below this (biasing towards keeping real gestures,
  /// as false rejections are costlier than an occasional false accept).
  double rejection_threshold = 0.40;
  /// Degraded-mode handling of corrupt input streams (see core/health.hpp).
  /// A deploy-time concern like the structural configuration: not stored
  /// in the serialized artifact, and overridable per Session.
  FaultPolicy fault_policy{};
};

/// An event emitted by the engine.
struct GestureEvent {
  enum class Type {
    kDetectGesture,   ///< A detect-aimed gesture was recognized.
    kScrollDetected,  ///< A track-aimed gesture completed (full estimate).
    kScrollDirection, ///< Early direction verdict (before gesture end).
    kNonGesture,      ///< A segment was rejected as unintentional motion.
  };
  Type type{};
  double time_s = 0.0;          ///< Engine time at emission.
  /// kDetectGesture: the recognized detect-aimed gesture.
  std::optional<synth::MotionKind> gesture;
  /// kScroll*: tracking estimate (direction always set; velocity/duration
  /// only on kScrollDetected).
  std::optional<ScrollEstimate> scroll;
  /// Segment bounds in absolute sample indices.
  std::size_t segment_begin = 0;
  std::size_t segment_end = 0;

  std::string describe() const;
};

/// The frozen train-time output: config + fitted models + the stateless
/// analyzers (router, ZEBRA) they parameterize. Immutable and shareable;
/// construct once, serve many Sessions.
class ModelBundle {
 public:
  /// Serialized artifact version written/accepted by save()/load().
  static constexpr int kFormatVersion = 1;

  /// Requires a fitted recognizer and (when filtering is enabled) a fitted
  /// filter; validates the configuration (2..kMaxTimingChannels channels).
  ModelBundle(AirFingerConfig config, DetectRecognizer recognizer,
              std::optional<InterferenceFilter> filter);

  /// Convenience: constructs directly into shared ownership.
  static std::shared_ptr<const ModelBundle> create(
      AirFingerConfig config, DetectRecognizer recognizer,
      std::optional<InterferenceFilter> filter);

  const AirFingerConfig& config() const { return config_; }
  const DetectRecognizer& recognizer() const { return recognizer_; }
  const std::optional<InterferenceFilter>& filter() const { return filter_; }
  const TypeRouter& router() const { return router_; }
  const ZebraTracker& zebra() const { return zebra_; }

  /// Decision core: routes one segmented window (detect- vs track-aimed),
  /// applies hybrid-routing vetoes and the interference filter, and either
  /// classifies (RF) or tracks (ZEBRA) it. Pure w.r.t. the bundle — safe
  /// to call from any number of threads concurrently. `local` is the
  /// segment in `view`'s local sample indices; the returned event carries
  /// no time/segment bookkeeping (the caller owns stream positions).
  GestureEvent decide(const ProcessedTrace& view,
                      const dsp::Segment& local) const;

  /// decide() drawing every working array (timing scratch, feature row,
  /// probabilities) from the caller's workspace arena: once the arena
  /// reaches its high-water mark the call is allocation-free. When router
  /// and ZEBRA share one TimingConfig (the default) the segment timing is
  /// computed once and reused. Results are bit-identical to decide()
  /// without a workspace. The workspace must not be shared across threads.
  GestureEvent decide(const ProcessedTrace& view, const dsp::Segment& local,
                      features::Workspace& workspace) const;

  /// The early-direction probe, batch form: routes the (still open)
  /// segment and, when it is track-aimed, runs ZEBRA on it — sharing one
  /// SegmentTiming between the two when their configs agree. Returns
  /// nullopt for detect-aimed or undecidable windows. Allocation-free at
  /// the workspace's high-water mark; bit-identical to
  /// `router().route(...) == kTrackAimed ? zebra().track(...) : nullopt`.
  /// Sessions use the cached overload below; this one is the reference
  /// the probe-parity tests compare it against.
  std::optional<ScrollEstimate> probe_direction(
      const ProcessedTrace& view, const dsp::Segment& local,
      features::Workspace& workspace) const;

  /// The probe the streaming path runs: probe_direction() reading the
  /// segment timing from an incrementally maintained cache instead of
  /// recomputing it over the whole open window — amortized O(n) per probe
  /// instead of O(n·w). `cache` must be configured with
  /// probe_timing_config() and contain exactly the samples of
  /// `view`/`local` (which must span the full view). Bit-identical to the
  /// cacheless overload.
  std::optional<ScrollEstimate> probe_direction(
      const ProcessedTrace& view, const dsp::Segment& local,
      features::Workspace& workspace, OpenSegmentTiming& cache) const;

  /// The TimingConfig the early-direction probe analyses windows with —
  /// what a per-session OpenSegmentTiming cache must be configured with.
  const TimingConfig& probe_timing_config() const {
    return router_.config().timing;
  }

  /// Offline classification of a recorded trace: batch SBC + batch DT
  /// segmentation (identical to the training-time processing), then the
  /// same routing/recognition logic as the streaming path. One event per
  /// detected segment. This is the paper's offline evaluation protocol.
  std::vector<GestureEvent> classify_recording(
      const sensor::MultiChannelTrace& trace) const;

  // ------------------------------------------------------------ artifact

  /// Writes the single-file `afbundle 1` artifact: header, the scalar
  /// engine/router/ZEBRA parameters (hex-float exact — including the
  /// trained velocity gain), the recognizer, the optional filter, and a
  /// trailing integrity footer (`checksum <FNV-1a64 of the payload>`)
  /// that load() verifies before parsing. Structural configuration
  /// (feature-bank layout, forest topology) is not stored: load() must be
  /// given the same structural config the models were trained with,
  /// validated via the serialized bank width — the same contract as
  /// DetectRecognizer::load.
  void save(std::ostream& os) const;

  /// save() to a file (opened std::ios::binary so hex-float round-trips
  /// are byte-identical across platforms). Throws PreconditionError when
  /// the file cannot be written.
  void save_file(const std::string& path) const;

  /// Reads an artifact written by save(). `base` supplies the structural
  /// configuration (bank/forest/processing); the serialized scalars
  /// overwrite the corresponding fields of `base`. Older artifacts carry a
  /// `history_limit` line that configures nothing now; it is read past and
  /// ignored. The integrity footer is verified over the full payload
  /// before any parsing, so *any* truncation or bit corruption throws
  /// PreconditionError — never a crash, hang, runaway allocation, or
  /// partially constructed bundle.
  static std::shared_ptr<const ModelBundle> load(std::istream& is,
                                                 AirFingerConfig base = {});

  /// load() from a file (opened std::ios::binary).
  static std::shared_ptr<const ModelBundle> load_file(
      const std::string& path, AirFingerConfig base = {});

  /// Wall-clock nanoseconds load() spent verifying and parsing this
  /// artifact (0 for bundles built in-process). Deploy diagnostics:
  /// af_inspect and af_stats surface it, hosts export it as the
  /// af_bundle_load_seconds gauge.
  std::uint64_t load_ns() const { return load_ns_; }

 private:
  /// Artifact body without the integrity footer (save() appends it).
  void save_payload(std::ostream& os) const;
  /// Parses a footer-verified payload (the pre-footer parse pipeline).
  static std::shared_ptr<ModelBundle> load_payload(std::istream& is,
                                                   AirFingerConfig base);

  AirFingerConfig config_;
  DetectRecognizer recognizer_;
  std::optional<InterferenceFilter> filter_;
  TypeRouter router_;
  ZebraTracker zebra_;
  /// Router and ZEBRA were configured with the same TimingConfig, so one
  /// SegmentTiming (over the same padded windows) serves both.
  bool timing_shared_ = false;
  /// Wall-clock cost of the load() that produced this bundle (see load_ns).
  std::uint64_t load_ns_ = 0;
};

}  // namespace airfinger::core
