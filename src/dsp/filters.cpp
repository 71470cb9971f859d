#include "dsp/filters.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace airfinger::dsp {

std::vector<double> moving_average(std::span<const double> x, std::size_t w) {
  std::vector<double> out(x.size());
  moving_average_into(x, w, out);
  return out;
}

void moving_average_into(std::span<const double> x, std::size_t w,
                         std::span<double> out) {
  AF_EXPECT(!x.empty(), "moving_average requires non-empty input");
  moving_average_range_into(x, w, 0, out);
}

void moving_average_range_into(std::span<const double> x, std::size_t w,
                               std::size_t from, std::span<double> out) {
  AF_EXPECT(w >= 1, "moving_average requires w >= 1");
  AF_EXPECT(out.size() == x.size(), "moving_average output size mismatch");
  AF_EXPECT(from <= x.size(), "moving_average range start out of bounds");
  const std::size_t n = x.size();
  const std::size_t half = w / 2;
  for (std::size_t i = from; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(i + half + 1, n);
    double s = 0.0;
    for (std::size_t j = lo; j < hi; ++j) s += x[j];
    out[i] = s / static_cast<double>(hi - lo);
  }
}

std::vector<double> exponential_smooth(std::span<const double> x,
                                       double alpha) {
  AF_EXPECT(!x.empty(), "exponential_smooth requires non-empty input");
  AF_EXPECT(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0,1]");
  std::vector<double> out(x.size());
  out[0] = x[0];
  for (std::size_t i = 1; i < x.size(); ++i)
    out[i] = alpha * x[i] + (1.0 - alpha) * out[i - 1];
  return out;
}

std::vector<double> median_filter(std::span<const double> x, std::size_t w) {
  AF_EXPECT(!x.empty(), "median_filter requires non-empty input");
  AF_EXPECT(w >= 1, "median_filter requires w >= 1");
  if (w % 2 == 0) ++w;
  const std::size_t half = w / 2;
  std::vector<double> out(x.size());
  std::vector<double> window;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(i + half + 1, x.size());
    window.assign(x.begin() + static_cast<long>(lo),
                  x.begin() + static_cast<long>(hi));
    std::nth_element(window.begin(),
                     window.begin() + static_cast<long>(window.size() / 2),
                     window.end());
    out[i] = window[window.size() / 2];
  }
  return out;
}

std::vector<double> resample_linear(std::span<const double> x,
                                    std::size_t target) {
  std::vector<double> out(target);
  resample_linear_into(x, out);
  return out;
}

void resample_linear_into(std::span<const double> x, std::span<double> out) {
  AF_EXPECT(!x.empty(), "resample_linear requires non-empty input");
  const std::size_t target = out.size();
  AF_EXPECT(target >= 1, "resample_linear requires target >= 1");
  if (target == 1) {
    out[0] = x[0];
    return;
  }
  for (std::size_t i = 0; i < target; ++i) {
    const double pos = static_cast<double>(i) *
                       static_cast<double>(x.size() - 1) /
                       static_cast<double>(target - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    out[i] = (lo + 1 < x.size()) ? x[lo] * (1.0 - frac) + x[lo + 1] * frac
                                 : x[lo];
  }
}

std::vector<double> diff(std::span<const double> x) {
  AF_EXPECT(x.size() >= 2, "diff requires n >= 2");
  std::vector<double> out(x.size() - 1);
  for (std::size_t i = 0; i + 1 < x.size(); ++i) out[i] = x[i + 1] - x[i];
  return out;
}

std::vector<std::size_t> find_peaks(std::span<const double> x,
                                    std::size_t support) {
  AF_EXPECT(support >= 1, "find_peaks requires support >= 1");
  std::vector<std::size_t> peaks;
  if (x.size() < 2 * support + 1) return peaks;
  for (std::size_t i = support; i + support < x.size(); ++i) {
    bool is_peak = true;
    for (std::size_t k = 1; k <= support && is_peak; ++k)
      is_peak = x[i] > x[i - k] && x[i] > x[i + k];
    if (is_peak) peaks.push_back(i);
  }
  return peaks;
}

std::size_t count_peaks(std::span<const double> x, std::size_t support) {
  // level = -HUGE_VAL admits every peak: a centre that is -inf (or NaN)
  // can never be strictly above a neighbour, so the >= level test only
  // ever sees finite peaks it accepts.
  return count_peaks_at_least(x, support, -HUGE_VAL);
}

std::size_t count_peaks_at_least(std::span<const double> x,
                                 std::size_t support, double level) {
  AF_EXPECT(support >= 1, "find_peaks requires support >= 1");
  std::size_t count = 0;
  if (x.size() < 2 * support + 1) return count;
  for (std::size_t i = support; i + support < x.size(); ++i) {
    bool is_peak = true;
    for (std::size_t k = 1; k <= support && is_peak; ++k)
      is_peak = x[i] > x[i - k] && x[i] > x[i + k];
    if (is_peak && x[i] >= level) ++count;
  }
  return count;
}

}  // namespace airfinger::dsp
