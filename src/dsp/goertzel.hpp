// Goertzel single-bin DFT — the building block of the modulated-LED
// synchronous detector (the paper's Sec. VI frequency-modulation hardening).
//
// A real lock-in front end multiplies the photodiode signal by the carrier
// and low-passes; equivalently, the carrier-bin magnitude of a short window
// can be evaluated with the Goertzel recurrence at O(1) state per sample.
// `sensor::FrontEndSpec` models the detector's *effect* (ambient
// rejection); this is the reference implementation of the mechanism, used
// by the tests to show carrier extraction from a contaminated signal.
#pragma once

#include <cstddef>
#include <span>

namespace airfinger::dsp {

/// One-shot Goertzel: magnitude of the DFT bin nearest `frequency_hz` over
/// the whole window. Requires non-empty input and 0 < frequency < rate/2.
double goertzel_magnitude(std::span<const double> x, double frequency_hz,
                          double sample_rate_hz);

/// One-shot Goertzel over several bins: out[f] = goertzel_magnitude(x,
/// frequencies_hz[f], rate) for every f. Requires out.size() ==
/// frequencies_hz.size().
void goertzel_magnitudes(std::span<const double> x,
                         std::span<const double> frequencies_hz,
                         double sample_rate_hz, std::span<double> out);

/// Streaming Goertzel over fixed-size blocks: push samples, read the
/// carrier magnitude of each completed block.
class GoertzelDetector {
 public:
  /// Requires block_size >= 8 and 0 < frequency < rate/2.
  GoertzelDetector(double frequency_hz, double sample_rate_hz,
                   std::size_t block_size);

  /// Feeds one sample. Returns true when a block completed (its magnitude
  /// is then available via last_magnitude()).
  bool push(double sample);

  /// Carrier magnitude of the last completed block.
  double last_magnitude() const { return last_magnitude_; }

  std::size_t block_size() const { return block_size_; }

  void reset();

 private:
  double coeff_;
  std::size_t block_size_;
  std::size_t filled_ = 0;
  double s1_ = 0.0;
  double s2_ = 0.0;
  double last_magnitude_ = 0.0;
};

}  // namespace airfinger::dsp
