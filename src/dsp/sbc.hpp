// Square Based Calculation (SBC) — the paper's noise-mitigation transform
// (Sec. IV-B-1).
//
// SBC slides a window of size w over the RSS stream, subtracts the value one
// window back, and squares the difference: ΔRSS²[i] = (x[i] - x[i-w])².
// Differencing removes the static component N_static exactly; squaring
// relatively suppresses the low-magnitude dynamic noise N_dyn while
// enhancing the gesture signal S_ges. O(1) per sample.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace airfinger::dsp {

/// The one streaming SBC update: returns (x - slot)², the square of the
/// difference from the sample stored `window` frames ago, once the delay
/// line is `primed` (w samples seen; 0 before), and stores x in its place.
/// SquareBasedCalculator and core::Session, which keeps every channel's
/// delay samples in its packed per-frame state, both go through it.
inline double sbc_step(double& slot, double x, bool primed) {
  double out = 0.0;
  if (primed) {
    const double d = x - slot;
    out = d * d;
  }
  slot = x;
  return out;
}

/// Streaming SBC filter over one channel.
class SquareBasedCalculator {
 public:
  /// `window` is w in samples (the paper uses 10 ms = 1 sample at 100 Hz).
  /// Requires window >= 1.
  explicit SquareBasedCalculator(std::size_t window);

  std::size_t window() const { return window_; }

  /// Feeds one sample; returns ΔRSS² (0 until w samples have been seen).
  double push(double rss);

  /// Resets the internal delay line.
  void reset();

  /// Batch form: out[i] = (x[i] - x[i-w])² for i >= w, else 0.
  static std::vector<double> apply(std::span<const double> x,
                                   std::size_t window);

 private:
  std::size_t window_;
  std::vector<double> delay_;   // ring buffer of the last w samples
  std::size_t head_ = 0;
  std::size_t seen_ = 0;
};

/// Applies SBC per channel and sums the results — the aggregate motion
/// energy signal the detect-aimed pipeline operates on.
std::vector<double> sbc_energy(
    std::span<const std::span<const double>> channels, std::size_t window);

}  // namespace airfinger::dsp
