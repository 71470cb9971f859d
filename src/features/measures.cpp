#include "features/measures.hpp"

#include <algorithm>
#include <cmath>

#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace airfinger::features {

namespace {

double default_tolerance(std::span<const double> x, double r) {
  if (r >= 0.0) return r;
  return 0.2 * common::stddev(x);
}

/// True when the length-m templates at i and j lie within Chebyshev
/// distance r of each other.
bool template_match(std::span<const double> x, std::size_t i, std::size_t j,
                    std::size_t m, double r) {
  bool match = true;
  for (std::size_t k = 0; k < m && match; ++k)
    match = std::fabs(x[i + k] - x[j + k]) <= r;
  return match;
}

}  // namespace

std::size_t detail::count_matches(std::span<const double> x, std::size_t m,
                                  double r) {
  const std::size_t n = x.size();
  if (n < m) return 0;
  const std::size_t templates = n - m + 1;
  std::size_t count = 0;
  for (std::size_t i = 0; i < templates; ++i)
    for (std::size_t j = i + 1; j < templates; ++j)
      if (template_match(x, i, j, m, r)) ++count;
  return count;
}

double detail::apen_phi(std::span<const double> x, std::size_t m, double r) {
  const std::size_t templates = x.size() - m + 1;
  double acc = 0.0;
  for (std::size_t i = 0; i < templates; ++i) {
    std::size_t count = 0;
    for (std::size_t j = 0; j < templates; ++j)
      if (template_match(x, i, j, m, r)) ++count;
    acc += std::log(static_cast<double>(count) /
                    static_cast<double>(templates));
  }
  return acc / static_cast<double>(templates);
}

void detail::entropy_counts(std::span<const double> x, std::size_t m,
                            double r, std::span<std::uint32_t> cm,
                            std::span<std::uint32_t> cm1,
                            std::size_t& pairs_m, std::size_t& pairs_m1) {
  const std::size_t tm = x.size() - m + 1;  // templates of length m
  const std::size_t tm1 = x.size() - m;     // templates of length m + 1
  for (std::size_t i = 0; i < tm; ++i) cm[i] = 1;  // ApEn self-match
  for (std::size_t i = 0; i < tm1; ++i) cm1[i] = 1;
  std::size_t pm = 0, pm1 = 0;
  for (std::size_t i = 0; i < tm; ++i)
    for (std::size_t j = i + 1; j < tm; ++j)
      if (template_match(x, i, j, m, r)) {
        ++pm;
        ++cm[i];
        ++cm[j];
        // A length-(m+1) match is a length-m match whose final offset is
        // also within r — defined only when both templates still fit
        // (j < tm1 implies i < tm1 since i < j).
        if (j < tm1 && std::fabs(x[i + m] - x[j + m]) <= r) {
          ++pm1;
          ++cm1[i];
          ++cm1[j];
        }
      }
  pairs_m = pm;
  pairs_m1 = pm1;
}

double sample_entropy(std::span<const double> x, unsigned m, double r) {
  const std::size_t n = x.size();
  if (n <= m + 1) return 0.0;
  const double tol = default_tolerance(x, r);
  if (tol <= 0.0) return 0.0;  // constant signal: perfectly regular
  const auto b = static_cast<double>(detail::count_matches(x, m, tol));
  const auto a = static_cast<double>(detail::count_matches(x, m + 1, tol));
  if (b == 0.0) return 0.0;  // no templates match at length m either
  if (a == 0.0) {
    // Convention: cap at the information content of one match among all
    // possible pairs, keeping the feature finite.
    const double pairs = static_cast<double>(n - m) *
                         static_cast<double>(n - m - 1) / 2.0;
    return std::log(std::max(pairs, 2.0));
  }
  return -std::log(a / b);
}

double approximate_entropy(std::span<const double> x, unsigned m, double r) {
  const std::size_t n = x.size();
  if (n <= m + 1) return 0.0;
  const double tol = default_tolerance(x, r);
  if (tol <= 0.0) return 0.0;

  // The per-template counts include the self-match, per the ApEn
  // definition; the log-mean accumulates in template order.
  return detail::apen_phi(x, m, tol) - detail::apen_phi(x, m + 1, tol);
}

std::pair<double, double> entropy_pair(std::span<const double> x,
                                       common::ScratchArena& arena,
                                       unsigned m, double r) {
  const std::size_t n = x.size();
  if (n <= m + 1) return {0.0, 0.0};  // both measures' degenerate case
  const double tol = default_tolerance(x, r);
  if (tol <= 0.0) return {0.0, 0.0};

  const std::size_t tm = n - m + 1;
  const std::size_t tm1 = n - m;
  const auto frame = arena.frame();
  const std::span<std::uint32_t> cm = arena.alloc<std::uint32_t>(tm);
  const std::span<std::uint32_t> cm1 = arena.alloc<std::uint32_t>(tm1);
  std::size_t pairs_m = 0, pairs_m1 = 0;
  detail::entropy_counts(x, m, tol, cm, cm1, pairs_m, pairs_m1);

  // SampEn from the pair totals, with sample_entropy's exact special
  // cases (the counts equal count_matches(m) / count_matches(m+1)).
  double sampen;
  const auto b = static_cast<double>(pairs_m);
  const auto a = static_cast<double>(pairs_m1);
  if (b == 0.0) {
    sampen = 0.0;
  } else if (a == 0.0) {
    const double pairs = static_cast<double>(n - m) *
                         static_cast<double>(n - m - 1) / 2.0;
    sampen = std::log(std::max(pairs, 2.0));
  } else {
    sampen = -std::log(a / b);
  }

  // ApEn: the log-mean accumulates in ascending template order, exactly
  // the apen_phi reference, so phi(m) - phi(m+1) keeps its bits.
  double phi_m = 0.0;
  for (std::size_t i = 0; i < tm; ++i)
    phi_m += std::log(static_cast<double>(cm[i]) / static_cast<double>(tm));
  phi_m /= static_cast<double>(tm);
  double phi_m1 = 0.0;
  for (std::size_t i = 0; i < tm1; ++i)
    phi_m1 +=
        std::log(static_cast<double>(cm1[i]) / static_cast<double>(tm1));
  phi_m1 /= static_cast<double>(tm1);
  return {sampen, phi_m - phi_m1};
}

double cid_ce(std::span<const double> x, bool normalize) {
  if (x.size() < 2) return 0.0;
  if (!normalize) {
    // Differences of the raw values need no working copy.
    double s = 0.0;
    for (std::size_t i = 1; i < x.size(); ++i) {
      const double d = x[i] - x[i - 1];
      s += d * d;
    }
    return std::sqrt(s);
  }
  const std::vector<double> v = common::znormalize(x);
  double s = 0.0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    const double d = v[i] - v[i - 1];
    s += d * d;
  }
  return std::sqrt(s);
}

double c3(std::span<const double> x, std::size_t lag) {
  AF_EXPECT(lag >= 1, "c3 requires lag >= 1");
  if (x.size() <= 2 * lag) return 0.0;
  double s = 0.0;
  const std::size_t n = x.size() - 2 * lag;
  for (std::size_t i = 0; i < n; ++i)
    s += x[i + 2 * lag] * x[i + lag] * x[i];
  return s / static_cast<double>(n);
}

double time_reversal_asymmetry(std::span<const double> x, std::size_t lag) {
  AF_EXPECT(lag >= 1, "time_reversal_asymmetry requires lag >= 1");
  if (x.size() <= 2 * lag) return 0.0;
  double s = 0.0;
  const std::size_t n = x.size() - 2 * lag;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = x[i + 2 * lag], b = x[i + lag], c = x[i];
    s += a * a * b - b * c * c;
  }
  return s / static_cast<double>(n);
}

double energy_ratio_by_chunks(std::span<const double> x,
                              std::size_t num_chunks, std::size_t focus) {
  AF_EXPECT(!x.empty(), "energy_ratio_by_chunks requires non-empty input");
  AF_EXPECT(num_chunks >= 1 && focus < num_chunks,
            "energy_ratio_by_chunks: focus must be < num_chunks");
  const double total = common::energy(x);
  if (total <= 0.0) return 0.0;
  // tsfresh splits into num_chunks contiguous chunks (last may be shorter).
  const std::size_t chunk_len =
      (x.size() + num_chunks - 1) / num_chunks;  // ceil
  const std::size_t begin = focus * chunk_len;
  if (begin >= x.size()) return 0.0;
  const std::size_t end = std::min(begin + chunk_len, x.size());
  return common::energy(x.subspan(begin, end - begin)) / total;
}

namespace {

/// 3×3 Gaussian elimination mirroring common::solve_linear step for step
/// (partial pivoting, 1e-14 singularity threshold, identical operation
/// order) but on stack storage, so adf_statistic stays allocation-free.
/// Mutates a/b; returns false where solve_linear would throw.
bool solve3(double a[3][3], double b[3], double out[3]) {
  constexpr std::size_t n = 3;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    if (std::fabs(a[pivot][col]) < 1e-14) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[pivot][c], a[col][c]);
      std::swap(b[pivot], b[col]);
    }
    const double inv = 1.0 / a[col][col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= a[ri][c] * out[c];
    out[ri] = s / a[ri][ri];
  }
  return true;
}

}  // namespace

double adf_statistic(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n < 6) return 0.0;
  // Regression: Δx[t] = α + γ·x[t-1] + β·Δx[t-1] + ε, t = 2..n-1. The
  // design matrix is never materialized: X'X and X'y accumulate directly on
  // the stack in common::ols's order (upper triangle, row-outer, ridge
  // 1e-8, lower mirrored), which keeps the statistic bit-identical to the
  // earlier Matrix-based formulation.
  const std::size_t rows = n - 2;
  double xtx[3][3] = {{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
  double xty[3] = {0.0, 0.0, 0.0};
  for (std::size_t t = 2; t < n; ++t) {
    const double row[3] = {1.0, x[t - 1], x[t - 1] - x[t - 2]};
    const double yr = x[t] - x[t - 1];
    for (std::size_t i = 0; i < 3; ++i) {
      xty[i] += row[i] * yr;
      for (std::size_t j = i; j < 3; ++j) xtx[i][j] += row[i] * row[j];
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    xtx[i][i] += 1e-8;
    for (std::size_t j = 0; j < i; ++j) xtx[i][j] = xtx[j][i];
  }

  double a[3][3], b[3], beta[3];
  std::copy(&xtx[0][0], &xtx[0][0] + 9, &a[0][0]);
  std::copy(xty, xty + 3, b);
  if (!solve3(a, b, beta)) return 0.0;

  // Residual variance and the standard error of γ (coefficient 1).
  double rss = 0.0;
  for (std::size_t t = 2; t < n; ++t) {
    const double d1 = x[t - 1], d2 = x[t - 1] - x[t - 2];
    const double fit = beta[0] + beta[1] * d1 + beta[2] * d2;
    const double e = (x[t] - x[t - 1]) - fit;
    rss += e * e;
  }
  const double dof = static_cast<double>(rows) - 3.0;
  if (dof <= 0.0) return 0.0;
  const double sigma2 = rss / dof;

  // SE(γ) via the (X'X)^-1 [1][1] entry: solve X'X e1 = unit vector.
  double unit[3] = {0.0, 1.0, 0.0}, col[3];
  std::copy(&xtx[0][0], &xtx[0][0] + 9, &a[0][0]);
  if (!solve3(a, unit, col)) return 0.0;
  const double se = std::sqrt(std::max(sigma2 * col[1], 0.0));
  if (se <= 0.0) return 0.0;
  return beta[1] / se;
}

}  // namespace airfinger::features
