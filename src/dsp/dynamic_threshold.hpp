// Dynamic Threshold (DT) gesture segmentation — Sec. IV-B-2.
//
// The paper adapts Otsu's method (background/foreground separation) to the
// ΔRSS² stream: the threshold I_seg is iteratively recomputed to maximize
// the inter-class variance ω0·ω1·(μ0-μ1)² between gesture and non-gesture
// samples, then start/end points are detected by threshold crossings and
// segments closer than t_e are clustered into one gesture.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace airfinger::dsp {

/// A half-open sample range [begin, end) within a signal.
struct Segment {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t length() const { return end - begin; }
  bool operator==(const Segment&) const = default;
};

/// Otsu's threshold over raw (non-histogrammed) values: exhaustively
/// evaluates candidate thresholds at the sorted unique values and returns
/// the one maximizing inter-class variance. O(n log n).
/// Requires non-empty input. Returns max(x) when all values are equal
/// (nothing separable → nothing exceeds the threshold).
double otsu_threshold(std::span<const double> x);

/// Histogram-based Otsu (O(n + bins²)); used by the streaming segmenter
/// where the exhaustive form would be too slow. Requires bins >= 2.
double otsu_threshold_hist(std::span<const double> x, int bins = 64);

/// otsu_threshold_hist()'s fit plus the maximum of `x`, which its min/max
/// pass finds anyway (the streaming segmenter's all-noise branch needs it).
struct OtsuFit {
  double threshold = 0.0;
  double max = 0.0;
};

/// otsu_threshold_hist() with caller-provided histogram scratch (both spans
/// sized >= bins), so recalibration inside the streaming segmenter does not
/// touch the heap. Bins count in integers, and each bin's value sum adds
/// its members in input order, so the threshold is the same double the
/// textbook per-value loop produces.
OtsuFit otsu_fit_hist(std::span<const double> x, int bins,
                      std::span<std::uint32_t> count_scratch,
                      std::span<double> value_sum_scratch);

/// Configuration shared by the batch and streaming segmenters.
struct SegmenterConfig {
  double sample_rate_hz = 100.0;
  double initial_threshold = 10.0;  ///< I'_seg before any calibration.
  /// t_e: merge segments closer than this. The paper learned 100 ms for its
  /// hardware; re-learning the parameter on the simulated substrate (same
  /// procedure, Sec. V-A) gives 280 ms — our optical lulls between gesture
  /// phases are longer than theirs.
  double cluster_gap_s = 0.28;
  double min_duration_s = 0.12;     ///< Discard shorter detections (blips).
  /// ΔRSS² is spiky (it dips to zero at every motion reversal) and heavy-
  /// tailed; segmentation therefore runs on a short moving average of the
  /// energy, thresholded in the log1p domain where the gesture/noise
  /// histogram is bimodal and Otsu is well behaved.
  double smooth_window_s = 0.14;
  /// Hysteresis: a segment opens when the signal exceeds I_seg but only
  /// closes when it falls below μ_noise + exit_ratio·(I_seg - μ_noise).
  /// Gestures whose weak phases hover just under the entry threshold would
  /// otherwise be chopped into fragments.
  double exit_ratio = 0.25;
  /// Bimodality guard: Otsu always produces *a* threshold, even on pure
  /// noise. A split is only accepted when the class means (in the log1p
  /// domain) are at least this far apart; otherwise the window is treated
  /// as all-noise and nothing is segmented.
  double min_log_separation = 1.2;
  /// Streaming only: how many recent values feed threshold updates.
  std::size_t history_capacity = 1024;
  /// Streaming only: recompute the threshold every this many samples.
  std::size_t update_interval = 32;
  /// Streaming only: no segment may open before this many samples were
  /// seen (the threshold is uncalibrated until then).
  std::size_t warmup_samples = 16;
};

/// Batch segmentation of a complete ΔRSS² signal.
std::vector<Segment> segment_signal(std::span<const double> delta_rss2,
                                    const SegmenterConfig& config);

/// The streaming segmenter's per-frame state: every value a push() reads
/// or writes on a frame that does not recalibrate, including the three
/// config values it consults each frame. Plain data that owns no storage:
/// the smoothing ring and the calibration history are passed to
/// segmenter_push(), so an owner can pack this with its other per-frame
/// state (core::Session keeps it in its hot block).
struct SegmenterState {
  double smooth_sum = 0.0;     ///< Sum of the smoothing ring.
  double log_threshold = 0.0;  ///< Entry level, log1p domain.
  double log_exit = 0.0;       ///< Hysteresis exit level, log1p domain.
  std::size_t position = 0;    ///< Index of the next sample.
  std::size_t segment_begin = 0;
  std::size_t last_above = 0;  ///< Last sample index above the level.
  std::uint32_t smooth_len = 1;    ///< Smoothing ring width, samples.
  std::uint32_t smooth_head = 0;   ///< Ring slot the next value replaces.
  std::uint32_t smooth_count = 0;  ///< Values averaged (<= smooth_len).
  std::uint32_t history_slot = 0;  ///< History slot the next value fills.
  std::uint32_t history_capacity = 0;
  std::uint32_t update_interval = 1;
  std::uint32_t warmup_samples = 0;
  std::uint32_t gap_samples = 0;  ///< t_e in samples.
  std::uint32_t min_samples = 0;  ///< Minimum segment length, samples.
  bool history_full = false;
  bool in_gesture = false;
};

/// The streaming segmenter's calibration side, touched once every
/// update_interval samples: the config, the ring of log1p(smoothed) values
/// the Otsu threshold is fitted to, and the histogram scratch.
class SegmenterCalibration {
 public:
  explicit SegmenterCalibration(const SegmenterConfig& config);

  const SegmenterConfig& config() const { return config_; }

  /// Width of the smoothing ring segmenter_push() reads, in samples.
  std::size_t smooth_samples() const;

  /// The history ring (history_capacity slots) segmenter_push() writes.
  double* history() { return history_.data(); }

  /// Forgets the fitted threshold and returns the per-frame state of a
  /// fresh stream. The caller zeroes its smoothing ring.
  SegmenterState restart();

  /// Fits I_seg to `window` (the history, in ring order) and stores the
  /// entry and exit levels in `state`.
  void refit(std::span<const double> window, SegmenterState& state);

  /// The currently calibrated I_seg (in ΔRSS² units).
  double threshold() const { return threshold_; }

 private:
  SegmenterConfig config_;
  std::vector<double> history_;
  std::vector<std::uint32_t> otsu_count_;
  std::vector<double> otsu_sum_;
  double threshold_;
};

/// Feeds one ΔRSS² value through a streaming segmenter whose per-frame
/// state is `state`, whose smoothing ring is `smooth_ring`
/// (state.smooth_len values) and whose history ring is `history`
/// (calibration.history()). Returns a completed segment when one closes.
std::optional<Segment> segmenter_push(SegmenterState& state,
                                      double* smooth_ring, double* history,
                                      SegmenterCalibration& calibration,
                                      double value);

/// Finalizes and returns any open segment (end of stream).
std::optional<Segment> segmenter_flush(SegmenterState& state);

/// Streaming segmenter: feed ΔRSS² one sample at a time; completed gesture
/// segments are returned as they are finalized (i.e. once the signal has
/// stayed below threshold for longer than t_e).
class DynamicThresholdSegmenter {
 public:
  explicit DynamicThresholdSegmenter(const SegmenterConfig& config);

  /// Feeds one ΔRSS² value; returns a completed segment when one closes.
  std::optional<Segment> push(double value) {
    return segmenter_push(state_, smooth_ring_.data(),
                          calibration_.history(), calibration_, value);
  }

  /// Finalizes and returns any open segment (end of stream).
  std::optional<Segment> flush() { return segmenter_flush(state_); }

  /// The currently calibrated I_seg (in ΔRSS² units).
  double threshold() const { return calibration_.threshold(); }

  /// Index of the next sample to be pushed.
  std::size_t position() const { return state_.position; }

  /// True while inside a candidate gesture.
  bool in_gesture() const { return state_.in_gesture; }

  void reset();

 private:
  SegmenterCalibration calibration_;
  SegmenterState state_;
  std::vector<double> smooth_ring_;
};

}  // namespace airfinger::dsp
