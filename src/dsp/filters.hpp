// Small filtering/resampling utilities shared by the pipeline and the
// feature extractors.
#pragma once

#include <span>
#include <vector>

namespace airfinger::dsp {

/// Centred moving average of window w (odd windows recommended); edges use
/// the available neighbourhood. Requires w >= 1 and non-empty input.
std::vector<double> moving_average(std::span<const double> x, std::size_t w);

/// moving_average writing into caller storage; out.size() == x.size().
/// Each output sums its own window left to right — a sliding-sum rewrite
/// would change the floating-point addition order and break the bit-exact
/// determinism contract (DESIGN.md §9, §15).
void moving_average_into(std::span<const double> x, std::size_t w,
                         std::span<double> out);

/// moving_average_into restricted to out[from..n): recomputes only the
/// suffix (bit-identical to the same positions of a full pass). Used by
/// the streaming timing cache; tolerates empty x when from == 0.
void moving_average_range_into(std::span<const double> x, std::size_t w,
                               std::size_t from, std::span<double> out);

/// Exponential smoothing with factor alpha in (0, 1]. out[0] = x[0].
std::vector<double> exponential_smooth(std::span<const double> x,
                                       double alpha);

/// Centred median filter of window w (w >= 1, odd enforced by rounding up).
std::vector<double> median_filter(std::span<const double> x, std::size_t w);

/// Linear resampling of x (length n) to `target` samples (target >= 1).
std::vector<double> resample_linear(std::span<const double> x,
                                    std::size_t target);

/// resample_linear writing into caller storage; target = out.size() (>= 1).
void resample_linear_into(std::span<const double> x, std::span<double> out);

/// First difference: out[i] = x[i+1] - x[i]; length n-1 (n >= 2 required).
std::vector<double> diff(std::span<const double> x);

/// Indices of local maxima strictly greater than their `support` neighbours
/// on both sides (tsfresh's number_peaks definition).
std::vector<std::size_t> find_peaks(std::span<const double> x,
                                    std::size_t support);

/// find_peaks().size() without materializing the index list.
std::size_t count_peaks(std::span<const double> x, std::size_t support);

/// Number of find_peaks() peaks whose value is >= level.
std::size_t count_peaks_at_least(std::span<const double> x,
                                 std::size_t support, double level);

}  // namespace airfinger::dsp
