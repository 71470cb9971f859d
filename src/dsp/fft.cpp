#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace airfinger::dsp {

namespace {

// Twiddle factors are the same for every block of a stage (the serial
// w *= wlen chain restarts at 1 per block), so stages up to this many
// butterflies hoist them into a stack buffer once and run the blocks
// through fft_stage. The chain itself stays the serial std::complex
// product — bit-identical to the former in-loop updates.
constexpr std::size_t kMaxStackTwiddles = 512;

// One complex butterfly: (vr, vi) = v * w with the compiler's finite-path
// complex-multiply order (ac - bd, ad + bc), then u +- v.
void butterfly(double* u, double* v, double wr, double wi) {
  const double vr = v[0] * wr - v[1] * wi;
  const double vi = v[0] * wi + v[1] * wr;
  const double ur = u[0], ui = u[1];
  u[0] = ur + vr;
  u[1] = ui + vi;
  v[0] = ur - vr;
  v[1] = ui - vi;
}

// One radix-2 stage over n complex values stored as interleaved (re, im)
// doubles: every block of `len` values gets its len/2 butterflies with
// the precomputed twiddles `tw` (interleaved re, im).
void fft_stage(double* reim, std::size_t n, std::size_t len,
               const double* tw) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len)
    for (std::size_t k = 0; k < half; ++k)
      butterfly(reim + 2 * (i + k), reim + 2 * (i + k + half), tw[2 * k],
                tw[2 * k + 1]);
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  AF_EXPECT(n >= 1, "next_pow2 requires n >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::vector<std::complex<double>>& x, bool inverse) {
  fft_inplace(std::span<std::complex<double>>(x), inverse);
}

void fft_inplace(std::span<std::complex<double>> x, bool inverse) {
  const std::size_t n = x.size();
  AF_EXPECT(n >= 1 && (n & (n - 1)) == 0,
            "fft_inplace requires power-of-two length");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    const std::size_t half = len / 2;
    if (half <= kMaxStackTwiddles) {
      double tw[2 * kMaxStackTwiddles];
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < half; ++k) {
        tw[2 * k] = w.real();
        tw[2 * k + 1] = w.imag();
        w *= wlen;
      }
      fft_stage(reinterpret_cast<double*>(x.data()), n, len, tw);
    } else {
      for (std::size_t i = 0; i < n; i += len) {
        std::complex<double> w(1.0, 0.0);
        for (std::size_t k = 0; k < half; ++k) {
          const std::complex<double> u = x[i + k];
          const std::complex<double> v = x[i + k + half] * w;
          x[i + k] = u + v;
          x[i + k + half] = u - v;
          w *= wlen;
        }
      }
    }
  }
  if (inverse) {
    for (auto& v : x) v /= static_cast<double>(n);
  }
}

std::vector<std::complex<double>> fft_real(std::span<const double> x) {
  AF_EXPECT(!x.empty(), "fft_real requires non-empty input");
  std::vector<std::complex<double>> buf(next_pow2(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) buf[i] = {x[i], 0.0};
  fft_inplace(buf);
  return buf;
}

std::span<const std::complex<double>> fft_real_scratch(
    std::span<const double> x, common::ScratchArena& arena) {
  AF_EXPECT(!x.empty(), "fft_real requires non-empty input");
  const std::span<std::complex<double>> buf =
      arena.alloc<std::complex<double>>(next_pow2(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) buf[i] = {x[i], 0.0};
  fft_inplace(buf);
  return buf;
}

std::vector<double> fft_magnitudes(std::span<const double> x,
                                   std::size_t count) {
  std::vector<double> out(count, 0.0);
  if (x.empty()) return out;
  const auto spec = fft_real(x);
  fft_magnitudes_from(spec, out);
  return out;
}

void fft_magnitudes_from(std::span<const std::complex<double>> spec,
                         std::span<double> out) {
  for (double& o : out) o = 0.0;
  const std::size_t usable = std::min(out.size(), spec.size() / 2 + 1);
  for (std::size_t i = 0; i < usable; ++i) out[i] = std::abs(spec[i]);
}

double spectral_centroid(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  const auto spec = fft_real(x);
  return spectral_centroid_from(spec);
}

double spectral_centroid_from(
    std::span<const std::complex<double>> spec) {
  const std::size_t half = spec.size() / 2;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 1; i <= half; ++i) {  // skip DC
    const double p = std::norm(spec[i]);
    const double f = static_cast<double>(i) / static_cast<double>(spec.size());
    num += f * p;
    den += p;
  }
  return den > 0.0 ? num / den : 0.0;
}

double spectral_energy_ratio(std::span<const double> x, double fraction) {
  AF_EXPECT(fraction >= 0.0 && fraction <= 1.0,
            "spectral_energy_ratio fraction must lie in [0,1]");
  if (x.size() < 2) return 0.0;
  const auto spec = fft_real(x);
  return spectral_energy_ratio_from(spec, fraction);
}

double spectral_energy_ratio_from(std::span<const std::complex<double>> spec,
                                  double fraction) {
  AF_EXPECT(fraction >= 0.0 && fraction <= 1.0,
            "spectral_energy_ratio fraction must lie in [0,1]");
  const std::size_t half = spec.size() / 2;
  const auto cutoff = static_cast<std::size_t>(
      fraction * static_cast<double>(half));
  double below = 0.0, total = 0.0;
  for (std::size_t i = 1; i <= half; ++i) {
    const double p = std::norm(spec[i]);
    total += p;
    if (i <= cutoff) below += p;
  }
  return total > 0.0 ? below / total : 0.0;
}

}  // namespace airfinger::dsp
