// Unit tests for the signal-processing layer: SBC, dynamic-threshold
// segmentation, FFT, wavelets, autocorrelation, filters, cross-correlation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dsp/autocorr.hpp"
#include "dsp/dynamic_threshold.hpp"
#include "dsp/fft.hpp"
#include "dsp/filters.hpp"
#include "dsp/sbc.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/xcorr.hpp"
#include "otsu_reference.hpp"

namespace airfinger::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

// ---------------------------------------------------------------- SBC

TEST(Sbc, RemovesConstantOffsetExactly) {
  std::vector<double> x(50, 123.4);
  const auto d = SquareBasedCalculator::apply(x, 1);
  for (std::size_t i = 1; i < d.size(); ++i) EXPECT_DOUBLE_EQ(d[i], 0.0);
}

TEST(Sbc, SquaresDifferences) {
  const std::vector<double> x{0, 3, 3, 7};
  const auto d = SquareBasedCalculator::apply(x, 1);
  EXPECT_DOUBLE_EQ(d[0], 0.0);  // warm-up
  EXPECT_DOUBLE_EQ(d[1], 9.0);
  EXPECT_DOUBLE_EQ(d[2], 0.0);
  EXPECT_DOUBLE_EQ(d[3], 16.0);
}

TEST(Sbc, WindowedDifference) {
  const std::vector<double> x{0, 1, 2, 3, 4, 5};
  const auto d = SquareBasedCalculator::apply(x, 3);
  for (std::size_t i = 3; i < d.size(); ++i) EXPECT_DOUBLE_EQ(d[i], 9.0);
}

TEST(Sbc, StreamMatchesBatch) {
  common::Rng rng(3);
  std::vector<double> x;
  for (int i = 0; i < 200; ++i) x.push_back(rng.uniform(0, 100));
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    const auto batch = SquareBasedCalculator::apply(x, w);
    SquareBasedCalculator stream(w);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_DOUBLE_EQ(stream.push(x[i]), batch[i]) << "w=" << w;
  }
}

TEST(Sbc, ResetClearsState) {
  SquareBasedCalculator s(1);
  s.push(10.0);
  s.push(20.0);
  s.reset();
  EXPECT_DOUBLE_EQ(s.push(99.0), 0.0);  // warm-up again
}

TEST(Sbc, EnergySumsChannels) {
  const std::vector<double> a{0, 1, 1};
  const std::vector<double> b{0, 2, 2};
  const std::span<const double> chans[] = {a, b};
  const auto e = sbc_energy(chans, 1);
  EXPECT_DOUBLE_EQ(e[1], 1.0 + 4.0);
  EXPECT_DOUBLE_EQ(e[2], 0.0);
}

TEST(Sbc, SuppressesSmallNoiseRelativeToSignal) {
  // The squaring property (Sec. IV-B-1): a 10× amplitude ratio between
  // S_ges and N_dyn of the same bandwidth becomes 100× in ΔRSS².
  std::vector<double> weak, strong;
  for (int i = 0; i < 500; ++i) {
    weak.push_back(1.0 * std::sin(0.3 * i + 0.7));
    strong.push_back(10.0 * std::sin(0.3 * i));
  }
  const auto dw = SquareBasedCalculator::apply(weak, 1);
  const auto ds = SquareBasedCalculator::apply(strong, 1);
  EXPECT_NEAR(common::mean(ds) / common::mean(dw), 100.0, 1.0);
}

// ------------------------------------------------------ Otsu / segmentation

TEST(Otsu, SeparatesBimodalData) {
  std::vector<double> x;
  common::Rng rng(7);
  for (int i = 0; i < 200; ++i) x.push_back(rng.normal(1.0, 0.1));
  for (int i = 0; i < 100; ++i) x.push_back(rng.normal(8.0, 0.3));
  const double t = otsu_threshold(x);
  EXPECT_GT(t, 2.0);
  EXPECT_LT(t, 7.0);
  const double th = otsu_threshold_hist(x);
  EXPECT_GT(th, 2.0);
  EXPECT_LT(th, 7.0);
}

TEST(Otsu, ConstantInputReturnsMax) {
  const std::vector<double> x(10, 5.0);
  EXPECT_DOUBLE_EQ(otsu_threshold(x), 5.0);
  EXPECT_DOUBLE_EQ(otsu_threshold_hist(x), 5.0);
}

std::vector<double> burst_signal(std::size_t idle1, std::size_t burst,
                                 std::size_t idle2, double level,
                                 common::Rng& rng) {
  std::vector<double> x;
  for (std::size_t i = 0; i < idle1; ++i)
    x.push_back(std::fabs(rng.normal(3, 1)));
  for (std::size_t i = 0; i < burst; ++i)
    x.push_back(level * (0.5 + rng.uniform()));
  for (std::size_t i = 0; i < idle2; ++i)
    x.push_back(std::fabs(rng.normal(3, 1)));
  return x;
}

TEST(Segmenter, DetectsSingleBurst) {
  common::Rng rng(1);
  const auto x = burst_signal(100, 40, 100, 2000.0, rng);
  const auto segs = segment_signal(x, {});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_NEAR(static_cast<double>(segs[0].begin), 100.0, 12.0);
  EXPECT_NEAR(static_cast<double>(segs[0].end), 140.0, 15.0);
}

TEST(Segmenter, NoSegmentsOnPureNoise) {
  common::Rng rng(2);
  std::vector<double> x;
  for (int i = 0; i < 400; ++i) x.push_back(std::fabs(rng.normal(3, 1)));
  EXPECT_TRUE(segment_signal(x, {}).empty());
}

TEST(Segmenter, MergesBurstsWithinTe) {
  common::Rng rng(3);
  std::vector<double> x = burst_signal(100, 30, 10, 2000.0, rng);
  const auto more = burst_signal(0, 30, 100, 2000.0, rng);
  x.insert(x.end(), more.begin(), more.end());
  // Two bursts separated by 10 samples (0.1 s) < t_e: one gesture.
  const auto segs = segment_signal(x, {});
  EXPECT_EQ(segs.size(), 1u);
}

TEST(Segmenter, KeepsDistantBurstsSeparate) {
  common::Rng rng(4);
  std::vector<double> x = burst_signal(100, 30, 60, 2000.0, rng);
  const auto more = burst_signal(0, 30, 100, 2000.0, rng);
  x.insert(x.end(), more.begin(), more.end());
  // Gap of 0.6 s >> t_e.
  const auto segs = segment_signal(x, {});
  EXPECT_EQ(segs.size(), 2u);
}

TEST(Segmenter, DiscardsShortBlips) {
  common::Rng rng(5);
  // 5-sample blip < min_duration (12 samples at 100 Hz).
  const auto x = burst_signal(100, 5, 100, 2000.0, rng);
  EXPECT_TRUE(segment_signal(x, {}).empty());
}

TEST(Segmenter, StreamingDetectsSameBurst) {
  common::Rng rng(6);
  const auto x = burst_signal(150, 40, 150, 2000.0, rng);
  DynamicThresholdSegmenter seg{SegmenterConfig{}};
  std::vector<Segment> found;
  for (double v : x) {
    if (const auto s = seg.push(v)) found.push_back(*s);
  }
  if (const auto s = seg.flush()) found.push_back(*s);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NEAR(static_cast<double>(found[0].begin), 150.0, 15.0);
}

TEST(Segmenter, StreamingQuietOnNoise) {
  common::Rng rng(7);
  DynamicThresholdSegmenter seg{SegmenterConfig{}};
  int segments = 0;
  for (int i = 0; i < 2000; ++i)
    if (seg.push(std::fabs(rng.normal(3, 1)))) ++segments;
  if (seg.flush()) ++segments;
  EXPECT_EQ(segments, 0);
}

/// A randomized calibration window shaped like the segmenter's history:
/// log1p of non-negative smoothed energy. `shape` picks idle noise, a
/// noise/gesture mixture, slow runs (long same-bin stretches), constant
/// values, or exact zeros with rare spikes.
std::vector<double> calibration_window(int shape, std::size_t n,
                                       std::mt19937_64& rng) {
  std::exponential_distribution<double> idle(1.0);
  std::normal_distribution<double> gesture(60.0, 25.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> x(n);
  double level = idle(rng);
  for (std::size_t i = 0; i < n; ++i) {
    double energy = 0.0;
    switch (shape) {
      case 0: energy = idle(rng); break;
      case 1: energy = unit(rng) < 0.2 ? gesture(rng) : idle(rng); break;
      case 2:
        if (unit(rng) < 0.05) level = unit(rng) < 0.3 ? gesture(rng) : idle(rng);
        energy = level;
        break;
      case 3: energy = 7.25; break;
      default: energy = unit(rng) < 0.02 ? gesture(rng) : 0.0; break;
    }
    x[i] = std::log1p(std::max(energy, 0.0));
  }
  return x;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// The refit's histogram counts in integers, carries each bin's running sum
// in a register and reuses the min/max pass's maximum as the all-noise
// peak. None of that may move a bit: threshold, exit level and I_seg must
// equal the reference copy of the per-value double-count code.
TEST(Segmenter, RefitMatchesReferenceBitForBit) {
  std::mt19937_64 rng(0x0757);
  SegmenterConfig config;
  SegmenterCalibration calibration(config);
  std::size_t bimodal = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const int shape = trial % 5;
    const std::size_t n =
        16 + static_cast<std::size_t>(rng() % (config.history_capacity - 15));
    const std::vector<double> window = calibration_window(shape, n, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", shape " +
                 std::to_string(shape) + ", n " + std::to_string(n));
    const test::ReferenceLevels expected = test::reference_refit(window, config);
    SegmenterState state = calibration.restart();
    calibration.refit(window, state);
    EXPECT_EQ(bits(state.log_threshold), bits(expected.log_threshold));
    EXPECT_EQ(bits(state.log_exit), bits(expected.log_exit));
    EXPECT_EQ(bits(calibration.threshold()), bits(expected.threshold));
    EXPECT_EQ(bits(otsu_threshold_hist(window)),
              bits(test::reference_otsu_hist(window, 64)));
    if (state.log_exit != state.log_threshold) ++bimodal;
  }
  // Both branches of the refit must run, or the comparison is one-sided.
  EXPECT_GT(bimodal, 100u);
  EXPECT_LT(bimodal, 1400u);
}

TEST(Segmenter, ResetRestoresInitialState) {
  DynamicThresholdSegmenter seg{SegmenterConfig{}};
  for (int i = 0; i < 100; ++i) seg.push(5.0);
  seg.reset();
  EXPECT_EQ(seg.position(), 0u);
  EXPECT_FALSE(seg.in_gesture());
}

// ---------------------------------------------------------------- FFT

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(129), 256u);
}

TEST(Fft, RoundTripInverse) {
  common::Rng rng(8);
  std::vector<std::complex<double>> x(64);
  std::vector<std::complex<double>> original;
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  original = x;
  fft_inplace(x);
  fft_inplace(x, /*inverse=*/true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, SinusoidConcentratesInOneBin) {
  const std::size_t n = 128;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(2.0 * kPi * 8.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  const auto spec = fft_real(x);
  std::size_t best = 1;
  for (std::size_t k = 1; k < n / 2; ++k)
    if (std::abs(spec[k]) > std::abs(spec[best])) best = k;
  EXPECT_EQ(best, 8u);
}

TEST(Fft, ParsevalHolds) {
  common::Rng rng(9);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const auto spec = fft_real(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (double v : x) time_energy += v * v;
  for (const auto& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(spec.size()), time_energy,
              1e-9);
}

TEST(Fft, MagnitudesPadShortSignals) {
  const std::vector<double> x{1.0, 2.0};
  const auto mags = fft_magnitudes(x, 8);
  EXPECT_EQ(mags.size(), 8u);
  EXPECT_GT(mags[0], 0.0);     // DC
  EXPECT_DOUBLE_EQ(mags[7], 0.0);  // beyond available coefficients
}

TEST(Fft, CentroidHigherForFasterSignal) {
  std::vector<double> slow(128), fast(128);
  for (int i = 0; i < 128; ++i) {
    slow[i] = std::sin(2.0 * kPi * 2.0 * i / 128.0);
    fast[i] = std::sin(2.0 * kPi * 30.0 * i / 128.0);
  }
  EXPECT_GT(spectral_centroid(fast), spectral_centroid(slow));
}

TEST(Fft, LowBandRatioDetectsSlowSignal) {
  std::vector<double> slow(128);
  for (int i = 0; i < 128; ++i)
    slow[i] = std::sin(2.0 * kPi * 2.0 * i / 128.0);
  EXPECT_GT(spectral_energy_ratio(slow, 0.2), 0.9);
}

// ---------------------------------------------------------------- wavelets

TEST(Wavelet, RickerNearZeroMean) {
  const auto w = ricker_wavelet(201, 8.0);
  double sum = 0.0;
  for (double v : w) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-3);
}

TEST(Wavelet, PeakAtCentre) {
  const auto w = ricker_wavelet(101, 10.0);
  EXPECT_EQ(common::argmax(w), 50u);
}

TEST(Wavelet, CwtRespondsAtMatchedScale) {
  // A Gaussian bump of width ~8 responds more to a width-8 wavelet than to
  // width-2.
  std::vector<double> x(128, 0.0);
  for (int i = 0; i < 128; ++i)
    x[i] = std::exp(-0.5 * std::pow((i - 64.0) / 8.0, 2.0));
  const double widths[] = {2.0, 8.0};
  const auto rows = cwt(x, widths);
  double peak2 = 0.0, peak8 = 0.0;
  for (double v : rows[0]) peak2 = std::max(peak2, std::fabs(v));
  for (double v : rows[1]) peak8 = std::max(peak8, std::fabs(v));
  EXPECT_GT(peak8, peak2);
}

// ------------------------------------------------------------ autocorr

TEST(Autocorr, Lag0IsOne) {
  common::Rng rng(10);
  std::vector<double> x(200);
  for (auto& v : x) v = rng.normal();
  EXPECT_NEAR(autocorrelation(x, 0), 1.0, 1e-12);
}

TEST(Autocorr, WhiteNoiseDecorrelated) {
  common::Rng rng(11);
  std::vector<double> x(5000);
  for (auto& v : x) v = rng.normal();
  EXPECT_NEAR(autocorrelation(x, 3), 0.0, 0.05);
}

TEST(Autocorr, PeriodicSignalPeaksAtPeriod) {
  std::vector<double> x(200);
  for (int i = 0; i < 200; ++i) x[i] = std::sin(2.0 * kPi * i / 20.0);
  EXPECT_GT(autocorrelation(x, 20), 0.9);
  EXPECT_LT(autocorrelation(x, 10), -0.9);
}

TEST(Autocorr, PacfOfAr1CutsOffAfterLag1) {
  // AR(1): x[t] = 0.7 x[t-1] + e.
  common::Rng rng(12);
  std::vector<double> x(4000);
  x[0] = rng.normal();
  for (std::size_t i = 1; i < x.size(); ++i)
    x[i] = 0.7 * x[i - 1] + rng.normal();
  const auto p = pacf(x, 5);
  EXPECT_NEAR(p[0], 0.7, 0.05);
  for (std::size_t k = 1; k < 5; ++k) EXPECT_NEAR(p[k], 0.0, 0.06);
}

TEST(Autocorr, ArCoefficientsRecoverAr2) {
  common::Rng rng(13);
  std::vector<double> x(8000);
  x[0] = x[1] = 0.0;
  for (std::size_t i = 2; i < x.size(); ++i)
    x[i] = 0.5 * x[i - 1] - 0.3 * x[i - 2] + rng.normal();
  const auto phi = ar_coefficients(x, 2);
  EXPECT_NEAR(phi[0], 0.5, 0.05);
  EXPECT_NEAR(phi[1], -0.3, 0.05);
}

TEST(Autocorr, ConstantSignalDegenerate) {
  const std::vector<double> x(50, 3.0);
  EXPECT_DOUBLE_EQ(autocorrelation(x, 1), 0.0);
  const auto p = pacf(x, 3);
  for (double v : p) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ---------------------------------------------------------------- filters

TEST(Filters, MovingAverageOfConstantIsConstant) {
  const std::vector<double> x(20, 4.0);
  for (double v : moving_average(x, 5)) EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(Filters, MovingAverageSmooths) {
  std::vector<double> x;
  for (int i = 0; i < 100; ++i) x.push_back(i % 2 ? 1.0 : -1.0);
  const auto s = moving_average(x, 9);
  EXPECT_LT(common::stddev(s), common::stddev(x) / 3.0);
}

TEST(Filters, MedianFilterRemovesSpike) {
  std::vector<double> x(21, 1.0);
  x[10] = 100.0;
  const auto f = median_filter(x, 5);
  EXPECT_DOUBLE_EQ(f[10], 1.0);
}

TEST(Filters, ExponentialSmoothConverges) {
  std::vector<double> x(50, 10.0);
  x[0] = 0.0;
  const auto s = exponential_smooth(x, 0.5);
  EXPECT_NEAR(s.back(), 10.0, 1e-6);
}

TEST(Filters, ResampleEndpointsPreserved) {
  const std::vector<double> x{0, 1, 2, 3, 4};
  const auto up = resample_linear(x, 9);
  EXPECT_DOUBLE_EQ(up.front(), 0.0);
  EXPECT_DOUBLE_EQ(up.back(), 4.0);
  EXPECT_DOUBLE_EQ(up[4], 2.0);  // midpoint
  const auto down = resample_linear(x, 3);
  EXPECT_DOUBLE_EQ(down[1], 2.0);
}

TEST(Filters, DiffBasics) {
  const std::vector<double> x{1, 4, 2};
  const auto d = diff(x);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], -2.0);
}

TEST(Filters, FindPeaksWithSupport) {
  const std::vector<double> x{0, 1, 0, 5, 0, 1, 0};
  const auto p1 = find_peaks(x, 1);
  ASSERT_EQ(p1.size(), 3u);
  const auto p2 = find_peaks(x, 2);
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_EQ(p2[0], 3u);
}

// ---------------------------------------------------------------- xcorr

TEST(Xcorr, DetectsKnownShift) {
  std::vector<double> a(100, 0.0), b(100, 0.0);
  for (int i = 0; i < 100; ++i)
    a[i] = std::exp(-0.5 * std::pow((i - 30.0) / 5.0, 2.0));
  for (int i = 0; i < 100; ++i)
    b[i] = std::exp(-0.5 * std::pow((i - 42.0) / 5.0, 2.0));
  const auto est = best_lag(a, b, 30);
  EXPECT_EQ(est.lag, 12);  // b lags a by 12
  EXPECT_GT(est.correlation, 0.99);
}

TEST(Xcorr, ZeroLagForIdenticalSignals) {
  common::Rng rng(14);
  std::vector<double> a(80);
  for (auto& v : a) v = rng.uniform(-1, 1);
  const auto est = best_lag(a, a, 20);
  EXPECT_EQ(est.lag, 0);
  EXPECT_NEAR(est.correlation, 1.0, 1e-9);
}

TEST(Xcorr, ConstantSignalGivesZeroCorrelation) {
  const std::vector<double> a(50, 1.0);
  const std::vector<double> b(50, 2.0);
  EXPECT_DOUBLE_EQ(correlation_at_lag(a, b, 0), 0.0);
}

// ------------------------------------- partial / hoisted / batched paths
// Each fast path must reproduce its plain reference bit for bit: the
// streaming timing cache and the feature bank rely on it.

void expect_bits(double a, double b, const std::string& what) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::vector<double> x(n);
  for (auto& v : x) v = value(rng);
  return x;
}

TEST(Filters, MovingAverageRangeMatchesFullPass) {
  // A partial update over [from, n) must write exactly the bits a full
  // pass writes at those positions — the streaming timing cache depends
  // on this.
  const std::size_t n = 97;
  const std::vector<double> x = random_signal(n, 71);
  for (const std::size_t w :
       {std::size_t{3}, std::size_t{9}, std::size_t{33}}) {
    std::vector<double> full(n);
    moving_average_into(x, w, full);
    for (const std::size_t from : {std::size_t{0}, std::size_t{1},
                                   std::size_t{40}, std::size_t{96},
                                   std::size_t{97}}) {
      std::vector<double> partial(n, -1000.0);
      moving_average_range_into(x, w, from, partial);
      for (std::size_t i = from; i < n; ++i)
        expect_bits(full[i], partial[i],
                    "range w=" + std::to_string(w) +
                        " from=" + std::to_string(from) + " i=" +
                        std::to_string(i));
      for (std::size_t i = 0; i < from; ++i)
        EXPECT_EQ(partial[i], -1000.0) << "wrote before from";
    }
  }
}

TEST(Autocorr, HoistedAcfMatchesPerLagReference) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (const std::size_t n : {96, 255, 301}) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    const std::vector<double> x = random_signal(n, 43 + n);
    const std::size_t max_lag = n + 2;  // deliberately beyond n
    std::vector<double> per_lag(max_lag + 1);
    acf_into(x, per_lag);
    std::vector<double> hoisted(max_lag + 1);
    common::ScratchArena arena;
    acf_into(x, arena, hoisted);
    for (std::size_t k = 0; k <= max_lag; ++k)
      expect_bits(per_lag[k], hoisted[k],
                  "acf per-lag-vs-hoisted n=" + std::to_string(n) +
                      " lag=" + std::to_string(k));
  }
  // Zero-variance convention survives the hoisting.
  const std::vector<double> flat(32, 3.25);
  std::vector<double> out(5);
  common::ScratchArena arena;
  acf_into(flat, arena, out);
  EXPECT_EQ(out[0], 1.0);
  for (std::size_t k = 1; k < out.size(); ++k) EXPECT_EQ(out[k], 0.0);
}

}  // namespace
}  // namespace airfinger::dsp
