// Reference copy of the streaming segmenter's threshold refit as it stood
// before the integer-count histogram: double-valued bin counts, one
// read-modify-write of the bin sums per value, and a separate fold for the
// all-noise peak. dsp_test checks SegmenterCalibration::refit against it
// bit for bit on randomized windows. Test-only; never linked into the
// library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/dynamic_threshold.hpp"

namespace airfinger::test {

inline double reference_otsu_hist(std::span<const double> x, int bins) {
  std::vector<double> count(static_cast<std::size_t>(bins), 0.0);
  std::vector<double> value_sum(static_cast<std::size_t>(bins), 0.0);
  const auto [lo_it, hi_it] = std::minmax_element(x.begin(), x.end());
  const double lo = *lo_it, hi = *hi_it;
  if (hi <= lo) return hi;

  const auto b = static_cast<std::size_t>(bins);
  const double scale = static_cast<double>(bins) / (hi - lo);
  for (double v : x) {
    auto idx = static_cast<std::size_t>((v - lo) * scale);
    idx = std::min(idx, b - 1);
    count[idx] += 1.0;
    value_sum[idx] += v;
  }
  const double n = static_cast<double>(x.size());
  double total = 0.0;
  for (double v : value_sum) total += v;

  double best_sep = -1.0;
  double first_tie = hi, last_tie = hi;
  double cum_n = 0.0, cum_sum = 0.0;
  for (std::size_t i = 0; i + 1 < b; ++i) {
    cum_n += count[i];
    cum_sum += value_sum[i];
    if (cum_n == 0.0 || cum_n == n) continue;
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
  return 0.5 * (first_tie + last_tie);
}

/// The refit's outputs: entry and exit levels (log1p domain) and I_seg.
struct ReferenceLevels {
  double log_threshold = 0.0;
  double log_exit = 0.0;
  double threshold = 0.0;
};

inline ReferenceLevels reference_refit(std::span<const double> window,
                                       const dsp::SegmenterConfig& config) {
  const double candidate = reference_otsu_hist(window, 64);
  double sum_lo = 0.0, sum_hi = 0.0;
  std::size_t n_lo = 0, n_hi = 0;
  for (double v : window) {
    if (v > candidate) {
      sum_hi += v;
      ++n_hi;
    } else {
      sum_lo += v;
      ++n_lo;
    }
  }
  const double mu_lo = n_lo ? sum_lo / static_cast<double>(n_lo) : 0.0;
  const double mu_hi = n_hi ? sum_hi / static_cast<double>(n_hi) : 0.0;
  ReferenceLevels out;
  if (n_lo != 0 && n_hi != 0 && mu_hi - mu_lo >= config.min_log_separation) {
    out.log_threshold = candidate;
    out.log_exit = mu_lo + config.exit_ratio * (candidate - mu_lo);
  } else {
    double peak = 0.0;
    for (double v : window) peak = std::max(peak, v);
    out.log_threshold = peak + 0.5;
    out.log_exit = out.log_threshold;
  }
  out.threshold = std::expm1(out.log_threshold);
  return out;
}

}  // namespace airfinger::test
