// Time-series complexity measures backing Table I's feature set.
//
// Each function reproduces the mathematical definition used by tsfresh (the
// toolbox the paper extracts candidate features with): sample entropy,
// approximate entropy, complexity-invariant distance (Batista et al. 2014),
// the c3 nonlinearity statistic (Schreiber & Schmitz 1997), the time
// reversal asymmetry statistic, energy ratio by chunks, and a simplified
// augmented Dickey-Fuller test statistic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace airfinger::common {
class ScratchArena;
}

namespace airfinger::features {

/// Sample entropy SampEn(m, r) with embedding m and tolerance r (absolute).
/// Standard convention: returns 0 for degenerate inputs (n <= m+1) and a
/// large-but-finite value (log of count bound) when no template matches.
double sample_entropy(std::span<const double> x, unsigned m = 2,
                      double r = -1.0);

/// Approximate entropy ApEn(m, r). r < 0 means 0.2·stddev(x) (the common
/// default, also applied by sample_entropy).
double approximate_entropy(std::span<const double> x, unsigned m = 2,
                           double r = -1.0);

/// {sample_entropy(x, m, r), approximate_entropy(x, m, r)} from one fused
/// pair sweep — the two measures share every Chebyshev template
/// comparison, so computing them together halves the O(n²·m) work.
/// Bit-identical to the two separate calls (the underlying counts are
/// integers; the ApEn log-mean keeps its serial template order). The
/// arena only holds the per-template count scratch for the duration of
/// the call.
std::pair<double, double> entropy_pair(std::span<const double> x,
                                       common::ScratchArena& arena,
                                       unsigned m = 2, double r = -1.0);

/// Complexity-invariant distance complexity estimate:
/// CE(x) = sqrt(Σ (x[i+1]-x[i])²). 0 for n < 2.
double cid_ce(std::span<const double> x, bool normalize = true);

/// c3 statistic: mean of x[i+2l]·x[i+l]·x[i] (measure of nonlinearity).
/// 0 when n <= 2·lag.
double c3(std::span<const double> x, std::size_t lag);

/// Time reversal asymmetry statistic:
/// mean of x[i+2l]²·x[i+l] − x[i+l]·x[i]². 0 when n <= 2·lag.
double time_reversal_asymmetry(std::span<const double> x, std::size_t lag);

/// Energy of chunk `focus` of `num_chunks` equal splits, as a fraction of
/// total energy. 0 when the total energy is 0. Requires focus < num_chunks
/// and non-empty input.
double energy_ratio_by_chunks(std::span<const double> x,
                              std::size_t num_chunks, std::size_t focus);

/// Simplified augmented Dickey-Fuller test statistic: the t-statistic of γ
/// in Δx[t] = α + γ·x[t-1] + β·Δx[t-1] + ε. Large negative values indicate
/// stationarity. Returns 0 for degenerate inputs (n < 6 or singular fit).
double adf_statistic(std::span<const double> x);

namespace detail {

/// SampEn pair count: ordered template pairs (i < j) of length m within
/// Chebyshev tolerance r. 0 when n < m.
std::size_t count_matches(std::span<const double> x, std::size_t m,
                          double r);

/// ApEn phi(m): mean over templates i of log(C_i / templates), where C_i
/// counts every template j (self included) within tolerance r. Requires
/// n > m.
double apen_phi(std::span<const double> x, std::size_t m, double r);

/// Fused SampEn/ApEn pair sweep behind entropy_pair(): one pass over the
/// pairs i < j of length-m templates yields count_matches(m) and
/// count_matches(m+1) as pairs_m / pairs_m1, and apen_phi's per-template
/// counts, self-match included, in cm (size n-m+1) and cm1 (size n-m).
/// A length-(m+1) match is a length-m match whose final offset is also
/// within r, counted only while both templates fit. Requires n > m + 1.
void entropy_counts(std::span<const double> x, std::size_t m, double r,
                    std::span<std::uint32_t> cm, std::span<std::uint32_t> cm1,
                    std::size_t& pairs_m, std::size_t& pairs_m1);

}  // namespace detail

}  // namespace airfinger::features
