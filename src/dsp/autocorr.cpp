#include "dsp/autocorr.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/reduce.hpp"
#include "common/stats.hpp"

namespace airfinger::dsp {

double autocorrelation(std::span<const double> x, std::size_t lag) {
  AF_EXPECT(!x.empty(), "autocorrelation requires non-empty input");
  if (lag >= x.size()) return 0.0;
  const double m = common::mean(x);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - m;
    den += d * d;
    if (i + lag < x.size()) num += d * (x[i + lag] - m);
  }
  return den > 0.0 ? num / den : 0.0;
}

std::vector<double> acf(std::span<const double> x, std::size_t max_lag) {
  std::vector<double> out(max_lag + 1, 0.0);
  acf_into(x, out);
  return out;
}

void acf_into(std::span<const double> x, std::span<double> out) {
  AF_EXPECT(!out.empty(), "acf output must hold at least lag 0");
  const std::size_t max_lag = out.size() - 1;
  for (std::size_t k = 0; k <= max_lag; ++k) out[k] = autocorrelation(x, k);
  if (out[0] == 0.0 && !x.empty()) out[0] = 1.0;  // zero-variance convention
}

void acf_into(std::span<const double> x, common::ScratchArena& arena,
              std::span<double> out) {
  AF_EXPECT(!out.empty(), "acf output must hold at least lag 0");
  AF_EXPECT(!x.empty(), "acf requires non-empty input");
  const std::size_t n = x.size();
  const std::size_t max_lag = out.size() - 1;
  const auto frame = arena.frame();
  const std::span<double> d = arena.alloc<double>(n);
  const double m = common::mean(x);
  for (std::size_t i = 0; i < n; ++i) d[i] = x[i] - m;
  const double den = common::reduce::energy(d);
  if (den > 0.0) {
    const std::size_t lags = std::min(max_lag, n - 1);
    for (std::size_t k = 0; k <= lags; ++k) {
      double s = 0.0;
      for (std::size_t i = 0; i + k < n; ++i) s += d[i] * d[i + k];
      out[k] = s / den;
    }
    for (std::size_t k = lags + 1; k <= max_lag; ++k) out[k] = 0.0;
  } else {
    for (double& o : out) o = 0.0;
  }
  if (out[0] == 0.0) out[0] = 1.0;  // zero-variance convention
}

std::vector<double> pacf(std::span<const double> x, std::size_t max_lag) {
  AF_EXPECT(max_lag >= 1, "pacf requires max_lag >= 1");
  std::vector<double> out(max_lag, 0.0);
  common::ScratchArena arena(3 * (max_lag + 1) * sizeof(double) + 64);
  pacf_into(x, arena, out);
  return out;
}

void pacf_into(std::span<const double> x, common::ScratchArena& arena,
               std::span<double> out) {
  const std::size_t max_lag = out.size();
  AF_EXPECT(max_lag >= 1, "pacf requires max_lag >= 1");
  const auto frame = arena.frame();
  const std::span<double> rho = arena.alloc<double>(max_lag + 1);
  acf_into(x, arena, rho);
  for (double& o : out) o = 0.0;

  // Durbin–Levinson: phi[k][k] is the PACF at lag k.
  const std::span<double> phi_prev = arena.alloc<double>(max_lag + 1);
  const std::span<double> phi = arena.alloc<double>(max_lag + 1);
  double v = 1.0;  // prediction error variance (normalized)
  for (std::size_t k = 1; k <= max_lag; ++k) {
    double num = rho[k];
    for (std::size_t j = 1; j < k; ++j) num -= phi_prev[j] * rho[k - j];
    if (std::fabs(v) < 1e-12) break;  // degenerate: remaining PACF = 0
    const double a = num / v;
    phi[k] = a;
    for (std::size_t j = 1; j < k; ++j)
      phi[j] = phi_prev[j] - a * phi_prev[k - j];
    v *= (1.0 - a * a);
    out[k - 1] = a;
    std::copy(phi.begin(), phi.end(), phi_prev.begin());
  }
}

std::vector<double> ar_coefficients(std::span<const double> x,
                                    std::size_t p) {
  AF_EXPECT(p >= 1, "ar_coefficients requires p >= 1");
  std::vector<double> out(p, 0.0);
  common::ScratchArena arena(3 * (p + 1) * sizeof(double) + 64);
  ar_coefficients_into(x, arena, out);
  return out;
}

void ar_coefficients_into(std::span<const double> x,
                          common::ScratchArena& arena,
                          std::span<double> out) {
  const std::size_t p = out.size();
  AF_EXPECT(p >= 1, "ar_coefficients requires p >= 1");
  const auto frame = arena.frame();
  const std::span<double> rho = arena.alloc<double>(p + 1);
  acf_into(x, arena, rho);
  // Levinson recursion on the Yule–Walker equations.
  const std::span<double> phi_prev = arena.alloc<double>(p + 1);
  const std::span<double> phi = arena.alloc<double>(p + 1);
  double v = 1.0;
  for (std::size_t k = 1; k <= p; ++k) {
    double num = rho[k];
    for (std::size_t j = 1; j < k; ++j) num -= phi_prev[j] * rho[k - j];
    if (std::fabs(v) < 1e-12) {
      for (double& f : phi) f = 0.0;
      break;
    }
    const double a = num / v;
    phi[k] = a;
    for (std::size_t j = 1; j < k; ++j)
      phi[j] = phi_prev[j] - a * phi_prev[k - j];
    v *= (1.0 - a * a);
    std::copy(phi.begin(), phi.end(), phi_prev.begin());
  }
  std::copy(phi.begin() + 1, phi.end(), out.begin());
}

}  // namespace airfinger::dsp
