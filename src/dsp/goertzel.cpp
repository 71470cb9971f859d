#include "dsp/goertzel.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace airfinger::dsp {

namespace {
double goertzel_coefficient(double frequency_hz, double sample_rate_hz) {
  AF_EXPECT(sample_rate_hz > 0.0, "sample rate must be positive");
  AF_EXPECT(frequency_hz > 0.0 && frequency_hz < sample_rate_hz / 2.0,
            "Goertzel frequency must lie in (0, rate/2)");
  return 2.0 * std::cos(2.0 * std::numbers::pi * frequency_hz /
                        sample_rate_hz);
}

double block_magnitude(double s1, double s2, double coeff, std::size_t n) {
  const double power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
  return std::sqrt(std::max(power, 0.0)) * 2.0 / static_cast<double>(n);
}
}  // namespace

double goertzel_magnitude(std::span<const double> x, double frequency_hz,
                          double sample_rate_hz) {
  AF_EXPECT(!x.empty(), "goertzel_magnitude requires non-empty input");
  const double coeff = goertzel_coefficient(frequency_hz, sample_rate_hz);
  double s1 = 0.0, s2 = 0.0;
  for (double v : x) {
    const double s0 = v + coeff * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  return block_magnitude(s1, s2, coeff, x.size());
}

void goertzel_magnitudes(std::span<const double> x,
                         std::span<const double> frequencies_hz,
                         double sample_rate_hz, std::span<double> out) {
  AF_EXPECT(!x.empty(), "goertzel_magnitude requires non-empty input");
  AF_EXPECT(out.size() == frequencies_hz.size(),
            "goertzel_magnitudes output size mismatch");
  for (std::size_t f = 0; f < frequencies_hz.size(); ++f)
    out[f] = goertzel_magnitude(x, frequencies_hz[f], sample_rate_hz);
}

GoertzelDetector::GoertzelDetector(double frequency_hz,
                                   double sample_rate_hz,
                                   std::size_t block_size)
    : coeff_(goertzel_coefficient(frequency_hz, sample_rate_hz)),
      block_size_(block_size) {
  AF_EXPECT(block_size >= 8, "Goertzel block size must be >= 8");
}

bool GoertzelDetector::push(double sample) {
  const double s0 = sample + coeff_ * s1_ - s2_;
  s2_ = s1_;
  s1_ = s0;
  if (++filled_ < block_size_) return false;
  last_magnitude_ = block_magnitude(s1_, s2_, coeff_, block_size_);
  filled_ = 0;
  s1_ = s2_ = 0.0;
  return true;
}

void GoertzelDetector::reset() {
  filled_ = 0;
  s1_ = s2_ = 0.0;
  last_magnitude_ = 0.0;
}

}  // namespace airfinger::dsp
