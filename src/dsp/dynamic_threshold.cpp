#include "dsp/dynamic_threshold.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace airfinger::dsp {

double otsu_threshold(std::span<const double> x) {
  AF_EXPECT(!x.empty(), "otsu_threshold requires non-empty input");
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());

  // Prefix sums let every candidate split be evaluated in O(1).
  std::vector<double> prefix(sorted.size() + 1, 0.0);
  for (std::size_t i = 0; i < sorted.size(); ++i)
    prefix[i + 1] = prefix[i] + sorted[i];
  const double total = prefix.back();

  double best_sep = -1.0, best_threshold = sorted.back();
  // Candidate thresholds between consecutive distinct values: class NG gets
  // values <= candidate, class G gets values > candidate (Eq. 1).
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] == sorted[i - 1]) continue;
    const double n_ng = static_cast<double>(i);
    const double n_g = n - n_ng;
    const double mu_ng = prefix[i] / n_ng;
    const double mu_g = (total - prefix[i]) / n_g;
    const double w0 = n_g / n, w1 = n_ng / n;
    const double sep = w0 * w1 * (mu_g - mu_ng) * (mu_g - mu_ng);
    if (sep > best_sep) {
      best_sep = sep;
      best_threshold = 0.5 * (sorted[i - 1] + sorted[i]);
    }
  }
  return best_threshold;
}

double otsu_threshold_hist(std::span<const double> x, int bins) {
  AF_EXPECT(bins >= 2, "otsu_threshold_hist requires bins >= 2");
  std::vector<std::uint32_t> count(static_cast<std::size_t>(bins), 0);
  std::vector<double> value_sum(static_cast<std::size_t>(bins), 0.0);
  return otsu_fit_hist(x, bins, count, value_sum).threshold;
}

OtsuFit otsu_fit_hist(std::span<const double> x, int bins,
                      std::span<std::uint32_t> count_scratch,
                      std::span<double> value_sum_scratch) {
  AF_EXPECT(!x.empty(), "otsu_threshold_hist requires non-empty input");
  AF_EXPECT(bins >= 2, "otsu_threshold_hist requires bins >= 2");
  AF_EXPECT(x.size() <= std::numeric_limits<std::uint32_t>::max(),
            "otsu_threshold_hist counts at most 2^32 - 1 values");
  AF_EXPECT(count_scratch.size() >= static_cast<std::size_t>(bins) &&
                value_sum_scratch.size() >= static_cast<std::size_t>(bins),
            "otsu_threshold_hist scratch too small");
  const auto [lo_it, hi_it] = std::minmax_element(x.begin(), x.end());
  const double lo = *lo_it, hi = *hi_it;
  if (hi <= lo) return {hi, hi};

  const auto b = static_cast<std::size_t>(bins);
  const std::span<std::uint32_t> count = count_scratch.first(b);
  const std::span<double> value_sum = value_sum_scratch.first(b);
  std::fill(count.begin(), count.end(), 0u);
  std::fill(value_sum.begin(), value_sum.end(), 0.0);
  const double scale = static_cast<double>(bins) / (hi - lo);
  const auto bin_of = [&](double v) {
    return std::min(static_cast<std::size_t>((v - lo) * scale), b - 1);
  };
  // Consecutive values mostly share a bin (the history is a smoothed
  // signal), so the open bin's sum and count ride in registers and are
  // stored only when the bin changes. Reloading the stored sum on return
  // keeps every bin's additions in input order, starting from 0.0.
  std::size_t open = bin_of(x.front());
  double open_sum = 0.0;
  std::uint32_t open_count = 0;
  for (double v : x) {
    const std::size_t idx = bin_of(v);
    if (idx != open) {
      value_sum[open] = open_sum;
      count[open] += open_count;
      open = idx;
      open_sum = value_sum[idx];
      open_count = 0;
    }
    open_sum += v;
    ++open_count;
  }
  value_sum[open] = open_sum;
  count[open] += open_count;

  const std::uint64_t n_total = x.size();
  const double n = static_cast<double>(n_total);
  double total = 0.0;
  for (double v : value_sum) total += v;

  // Between well-separated clusters the objective is flat (empty bins), so
  // follow the standard Otsu convention and take the midpoint of the tied
  // argmax range instead of its first bin. Counts are exact integers, so
  // converting the running count reproduces a double accumulation.
  double best_sep = -1.0;
  double first_tie = hi, last_tie = hi;
  std::uint64_t below = 0;
  double cum_sum = 0.0;
  for (std::size_t i = 0; i + 1 < b; ++i) {
    below += count[i];
    cum_sum += value_sum[i];
    if (below == 0 || below == n_total) continue;
    const double cum_n = static_cast<double>(below);
    const double mu_ng = cum_sum / cum_n;
    const double mu_g = (total - cum_sum) / (n - cum_n);
    const double w1 = cum_n / n, w0 = 1.0 - w1;
    const double sep = w0 * w1 * (mu_g - mu_ng) * (mu_g - mu_ng);
    const double threshold = lo + (static_cast<double>(i) + 1.0) / scale;
    if (sep > best_sep * (1.0 + 1e-12)) {
      best_sep = sep;
      first_tie = last_tie = threshold;
    } else if (sep >= best_sep * (1.0 - 1e-12)) {
      last_tie = threshold;
    }
  }
  return {0.5 * (first_tie + last_tie), hi};
}

namespace {
std::vector<double> smooth_log_energy(std::span<const double> delta_rss2,
                                      const SegmenterConfig& config) {
  const auto w = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config.smooth_window_s * config.sample_rate_hz)));
  std::vector<double> smoothed(delta_rss2.begin(), delta_rss2.end());
  if (w > 1) {
    std::vector<double> tmp(smoothed.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < smoothed.size(); ++i) {
      sum += smoothed[i];
      if (i >= w) sum -= smoothed[i - w];
      tmp[i] = sum / static_cast<double>(std::min(i + 1, w));
    }
    smoothed.swap(tmp);
  }
  for (double& v : smoothed) v = std::log1p(std::max(v, 0.0));
  return smoothed;
}

/// Class means on either side of a threshold; used by the bimodality guard
/// and the hysteresis exit level.
struct ClassMeans {
  double mu_lo = 0.0;
  double mu_hi = 0.0;
  std::size_t n_lo = 0;
  std::size_t n_hi = 0;
};

ClassMeans class_means(std::span<const double> logv, double threshold) {
  ClassMeans m;
  double sum_lo = 0.0, sum_hi = 0.0;
  for (double v : logv) {
    if (v > threshold) {
      sum_hi += v;
      ++m.n_hi;
    } else {
      sum_lo += v;
      ++m.n_lo;
    }
  }
  if (m.n_lo) m.mu_lo = sum_lo / static_cast<double>(m.n_lo);
  if (m.n_hi) m.mu_hi = sum_hi / static_cast<double>(m.n_hi);
  return m;
}

/// True when the threshold separates two genuinely distinct modes.
bool split_is_bimodal(const ClassMeans& m, double min_separation) {
  if (m.n_lo == 0 || m.n_hi == 0) return false;
  return m.mu_hi - m.mu_lo >= min_separation;
}
}  // namespace

std::vector<Segment> segment_signal(std::span<const double> delta_rss2,
                                    const SegmenterConfig& config) {
  AF_EXPECT(config.sample_rate_hz > 0.0, "sample rate must be positive");
  if (delta_rss2.empty()) return {};
  const std::vector<double> logv = smooth_log_energy(delta_rss2, config);
  const double threshold = otsu_threshold(logv);
  const ClassMeans means = class_means(logv, threshold);
  if (!split_is_bimodal(means, config.min_log_separation)) return {};
  const double exit_threshold =
      means.mu_lo + config.exit_ratio * (threshold - means.mu_lo);

  const auto gap = static_cast<std::size_t>(
      std::lround(config.cluster_gap_s * config.sample_rate_hz));
  // Smoothing widens every above-threshold run by roughly the window, so
  // the minimum-duration rule accounts for it.
  const auto smooth_w = static_cast<std::size_t>(
      std::lround(config.smooth_window_s * config.sample_rate_hz));
  const auto min_len = static_cast<std::size_t>(std::lround(
                           config.min_duration_s * config.sample_rate_hz)) +
                       smooth_w;

  std::vector<Segment> raw;
  bool inside = false;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < logv.size(); ++i) {
    // Hysteresis: open above the Otsu threshold, stay open until the signal
    // drops below the exit level.
    const bool above = logv[i] > (inside ? exit_threshold : threshold);
    if (above && !inside) {
      inside = true;
      begin = i;
    } else if (!above && inside) {
      inside = false;
      raw.push_back({begin, i});
    }
  }
  if (inside) raw.push_back({begin, delta_rss2.size()});

  // Cluster segments separated by less than t_e into one gesture.
  std::vector<Segment> merged;
  for (const auto& seg : raw) {
    if (!merged.empty() && seg.begin - merged.back().end <= gap)
      merged.back().end = seg.end;
    else
      merged.push_back(seg);
  }

  std::vector<Segment> out;
  for (const auto& seg : merged)
    if (seg.length() >= min_len) out.push_back(seg);
  return out;
}

namespace {
constexpr int kOtsuBins = 64;

/// A config-derived sample count as the 32-bit field the per-frame state
/// keeps. Counts past 2^32 - 1 samples (16 months at 100 Hz) saturate:
/// like the unbounded count, they are never reached by a stream.
std::uint32_t saturate_u32(std::size_t v) {
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(v, std::numeric_limits<std::uint32_t>::max()));
}

std::size_t rounded_samples(double seconds, double rate_hz) {
  return static_cast<std::size_t>(std::lround(seconds * rate_hz));
}
}  // namespace

SegmenterCalibration::SegmenterCalibration(const SegmenterConfig& config)
    : config_(config),
      otsu_count_(kOtsuBins, 0),
      otsu_sum_(kOtsuBins, 0.0),
      threshold_(config.initial_threshold) {
  AF_EXPECT(config.sample_rate_hz > 0.0, "sample rate must be positive");
  AF_EXPECT(config.history_capacity >= 16,
            "history capacity too small to calibrate a threshold");
  AF_EXPECT(config.history_capacity <= std::numeric_limits<std::uint32_t>::max(),
            "history capacity must fit 32 bits");
  AF_EXPECT(config.update_interval >= 1, "update interval must be >= 1");
  AF_EXPECT(config.update_interval <= std::numeric_limits<std::uint32_t>::max(),
            "update interval must fit 32 bits");
  AF_EXPECT(smooth_samples() <= std::numeric_limits<std::uint32_t>::max(),
            "smoothing window must fit 32 bits");
  history_.resize(config.history_capacity);
}

std::size_t SegmenterCalibration::smooth_samples() const {
  return std::max<std::size_t>(
      1, rounded_samples(config_.smooth_window_s, config_.sample_rate_hz));
}

SegmenterState SegmenterCalibration::restart() {
  threshold_ = config_.initial_threshold;
  SegmenterState s;
  s.log_threshold = std::log1p(std::max(config_.initial_threshold, 0.0));
  s.log_exit = s.log_threshold;
  s.smooth_len = static_cast<std::uint32_t>(smooth_samples());
  s.history_capacity = static_cast<std::uint32_t>(config_.history_capacity);
  s.update_interval = static_cast<std::uint32_t>(config_.update_interval);
  s.warmup_samples = saturate_u32(config_.warmup_samples);
  s.gap_samples = saturate_u32(
      rounded_samples(config_.cluster_gap_s, config_.sample_rate_hz));
  // Smoothing widens every above-threshold run by roughly the window, so
  // the minimum-duration rule accounts for it.
  s.min_samples = saturate_u32(
      rounded_samples(config_.min_duration_s, config_.sample_rate_hz) +
      rounded_samples(config_.smooth_window_s, config_.sample_rate_hz));
  return s;
}

void SegmenterCalibration::refit(std::span<const double> window,
                                 SegmenterState& state) {
  const OtsuFit fit =
      otsu_fit_hist(window, kOtsuBins, otsu_count_, otsu_sum_);
  const ClassMeans means = class_means(window, fit.threshold);
  if (split_is_bimodal(means, config_.min_log_separation)) {
    state.log_threshold = fit.threshold;
    state.log_exit =
        means.mu_lo + config_.exit_ratio * (fit.threshold - means.mu_lo);
  } else {
    // All-noise history: hold the threshold above everything seen so far
    // (and above 0, where the peak fold starts) so idle noise cannot open
    // segments.
    state.log_threshold = std::max(0.0, fit.max) + 0.5;
    state.log_exit = state.log_threshold;
  }
  threshold_ = std::expm1(state.log_threshold);
}

std::optional<Segment> segmenter_flush(SegmenterState& s) {
  if (!s.in_gesture) return std::nullopt;
  s.in_gesture = false;
  const Segment seg{s.segment_begin, s.last_above + 1};
  if (seg.length() >= s.min_samples) return seg;
  return std::nullopt;
}

std::optional<Segment> segmenter_push(SegmenterState& s, double* smooth_ring,
                                      double* history,
                                      SegmenterCalibration& calibration,
                                      double value) {
  // Incremental moving average, then log compression (matching
  // segment_signal's preprocessing).
  s.smooth_sum += value - smooth_ring[s.smooth_head];
  smooth_ring[s.smooth_head] = value;
  if (++s.smooth_head == s.smooth_len) s.smooth_head = 0;
  s.smooth_count = std::min(s.smooth_count + 1, s.smooth_len);
  const double smoothed =
      std::max(s.smooth_sum, 0.0) / static_cast<double>(s.smooth_count);
  const double logv = std::log1p(smoothed);

  // Accumulate calibration history (ring buffer), and recompute the
  // threshold every update_interval samples once 16 values are in.
  history[s.history_slot] = logv;
  if (++s.history_slot == s.history_capacity) {
    s.history_slot = 0;
    s.history_full = true;
  }
  if (s.position % s.update_interval == 0) {
    const std::size_t n = s.history_full ? s.history_capacity : s.history_slot;
    if (n >= 16) calibration.refit({history, n}, s);
  }

  std::optional<Segment> completed;
  const bool above = logv > (s.in_gesture ? s.log_exit : s.log_threshold) &&
                     s.position >= s.warmup_samples;
  if (above) {
    if (!s.in_gesture) {
      s.in_gesture = true;
      s.segment_begin = s.position;
    }
    s.last_above = s.position;
  } else if (s.in_gesture && s.position - s.last_above > s.gap_samples) {
    completed = segmenter_flush(s);
  }
  ++s.position;
  return completed;
}

DynamicThresholdSegmenter::DynamicThresholdSegmenter(
    const SegmenterConfig& config)
    : calibration_(config),
      state_(calibration_.restart()),
      smooth_ring_(calibration_.smooth_samples(), 0.0) {}

void DynamicThresholdSegmenter::reset() {
  state_ = calibration_.restart();
  std::fill(smooth_ring_.begin(), smooth_ring_.end(), 0.0);
}

}  // namespace airfinger::dsp
