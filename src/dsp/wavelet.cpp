#include "dsp/wavelet.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace airfinger::dsp {

double ricker(double t, double a) {
  AF_EXPECT(a > 0.0, "ricker width must be positive");
  const double norm =
      2.0 / (std::sqrt(3.0 * a) * std::pow(std::numbers::pi, 0.25));
  const double u = t / a;
  return norm * (1.0 - u * u) * std::exp(-0.5 * u * u);
}

std::vector<double> ricker_wavelet(std::size_t points, double a) {
  AF_EXPECT(points >= 1, "ricker_wavelet requires points >= 1");
  std::vector<double> w(points);
  const double mid = (static_cast<double>(points) - 1.0) / 2.0;
  for (std::size_t i = 0; i < points; ++i)
    w[i] = ricker(static_cast<double>(i) - mid, a);
  return w;
}

std::vector<double> cwt_row(std::span<const double> x, double a) {
  std::vector<double> out(x.size(), 0.0);
  common::ScratchArena arena;
  cwt_row_into(x, a, arena, out);
  return out;
}

void cwt_row_into(std::span<const double> x, double a,
                  common::ScratchArena& arena, std::span<double> out) {
  // Support of the wavelet: ±5 widths captures >99.99% of its energy.
  const auto half = static_cast<std::size_t>(std::ceil(5.0 * a));
  const std::size_t wlen = 2 * half + 1;
  const auto frame = arena.frame();
  const std::span<double> w = arena.alloc<double>(wlen);
  const double mid = (static_cast<double>(wlen) - 1.0) / 2.0;
  for (std::size_t i = 0; i < wlen; ++i)
    w[i] = ricker(static_cast<double>(i) - mid, a);
  cwt_row_with_wavelet_into(x, w, out);
}

void cwt_row_with_wavelet_into(std::span<const double> x,
                               std::span<const double> w,
                               std::span<double> out) {
  AF_EXPECT(!x.empty(), "cwt_row requires non-empty input");
  AF_EXPECT(out.size() == x.size(), "cwt_row output size mismatch");
  AF_EXPECT(w.size() % 2 == 1, "cwt_row wavelet length must be odd");
  // Output i visits only its in-range taps k, 0 <= i + k - half < n, in
  // ascending order: the same multiplications in the same order as the
  // historical skip-with-continue loop, so the tight bounds keep the bits.
  const std::size_t n = x.size();
  const std::size_t half = w.size() / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k0 = half > i ? half - i : 0;
    const std::size_t k1 = std::min(w.size(), n + half - i);
    double acc = 0.0;
    for (std::size_t k = k0; k < k1; ++k) acc += x[i + k - half] * w[k];
    out[i] = acc;
  }
}

std::vector<std::vector<double>> cwt(std::span<const double> x,
                                     std::span<const double> widths) {
  std::vector<std::vector<double>> rows;
  rows.reserve(widths.size());
  for (double a : widths) rows.push_back(cwt_row(x, a));
  return rows;
}

}  // namespace airfinger::dsp
