#include "dsp/sbc.hpp"

#include "common/error.hpp"

namespace airfinger::dsp {

SquareBasedCalculator::SquareBasedCalculator(std::size_t window)
    : window_(window), delay_(window, 0.0) {
  AF_EXPECT(window >= 1, "SBC window must be >= 1 sample");
}

double SquareBasedCalculator::push(double rss) {
  const double out = sbc_step(delay_[head_], rss, seen_ >= window_);
  head_ = (head_ + 1) % window_;
  ++seen_;
  return out;
}

void SquareBasedCalculator::reset() {
  delay_.assign(window_, 0.0);
  head_ = 0;
  seen_ = 0;
}

std::vector<double> SquareBasedCalculator::apply(std::span<const double> x,
                                                 std::size_t window) {
  AF_EXPECT(window >= 1, "SBC window must be >= 1 sample");
  std::vector<double> out(x.size(), 0.0);
  for (std::size_t i = window; i < x.size(); ++i) {
    const double d = x[i] - x[i - window];
    out[i] = d * d;
  }
  return out;
}

std::vector<double> sbc_energy(
    std::span<const std::span<const double>> channels, std::size_t window) {
  AF_EXPECT(!channels.empty(), "sbc_energy requires at least one channel");
  std::vector<double> out(channels[0].size(), 0.0);
  for (const auto& ch : channels) {
    AF_EXPECT(ch.size() == out.size(),
              "sbc_energy requires equal-length channels");
    const std::vector<double> e = SquareBasedCalculator::apply(ch, window);
    for (std::size_t i = 0; i < e.size(); ++i) out[i] += e[i];
  }
  return out;
}

}  // namespace airfinger::dsp
