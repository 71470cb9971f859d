// Autocorrelation, partial autocorrelation, and autoregressive fits.
//
// Backing math for Table I's "Autocorrelation", "Partial autocorrelation",
// and "AR" features: sample ACF, Durbin–Levinson recursion for the PACF,
// and Yule–Walker AR coefficient estimation.
#pragma once

#include <span>
#include <vector>

#include "common/arena.hpp"

namespace airfinger::dsp {

/// Sample autocorrelation at one lag, normalized by the lag-0 variance.
/// Returns 0 when the variance is 0 or lag >= n. Requires non-empty input.
double autocorrelation(std::span<const double> x, std::size_t lag);

/// ACF for lags 0..max_lag (inclusive). acf[0] == 1 unless variance is 0.
std::vector<double> acf(std::span<const double> x, std::size_t max_lag);

/// acf() writing into caller storage; max_lag = out.size() - 1 (out
/// non-empty). Reference implementation: one autocorrelation() pass per
/// lag, recentring the signal every time.
void acf_into(std::span<const double> x, std::span<double> out);

/// acf_into() with the centred signal hoisted into `arena` scratch: the
/// mean and the lag-0 denominator are computed once, then each lag sums
/// its numerator over the hoisted signal. Bit-identical to the per-lag
/// reference — each accumulator keeps its own serial order and
/// d[i] = x[i] - m is the same value the reference recomputes.
/// Requires non-empty x.
void acf_into(std::span<const double> x, common::ScratchArena& arena,
              std::span<double> out);

/// Partial autocorrelation for lags 1..max_lag via Durbin–Levinson.
/// Entry [k-1] is the PACF at lag k. Degenerate recursions yield 0 entries.
std::vector<double> pacf(std::span<const double> x, std::size_t max_lag);

/// pacf() writing into caller storage; max_lag = out.size() (>= 1). The
/// recursion's intermediates come from `arena` (released before returning).
void pacf_into(std::span<const double> x, common::ScratchArena& arena,
               std::span<double> out);

/// Yule–Walker AR(p) coefficients φ_1..φ_p. Returns zeros when the signal
/// variance is 0 or the recursion degenerates. Requires p >= 1.
std::vector<double> ar_coefficients(std::span<const double> x, std::size_t p);

/// ar_coefficients() writing into caller storage; p = out.size() (>= 1).
void ar_coefficients_into(std::span<const double> x,
                          common::ScratchArena& arena, std::span<double> out);

}  // namespace airfinger::dsp
