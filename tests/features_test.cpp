// Unit tests for the feature measures and the feature bank.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <string>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/filters.hpp"
#include "features/bank.hpp"
#include "features/measures.hpp"

namespace airfinger::features {
namespace {

constexpr double kPi = std::numbers::pi;

std::vector<double> sine(std::size_t n, double cycles) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(2.0 * kPi * cycles * static_cast<double>(i) /
                    static_cast<double>(n));
  return x;
}

std::vector<double> noise(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  return x;
}

// ------------------------------------------------------------- measures

TEST(Measures, SampleEntropyOrdersRegularVsRandom) {
  const auto regular = sine(200, 4.0);
  const auto random = noise(200, 1);
  EXPECT_LT(sample_entropy(regular), sample_entropy(random));
}

TEST(Measures, SampleEntropyConstantIsZero) {
  const std::vector<double> x(50, 2.0);
  EXPECT_DOUBLE_EQ(sample_entropy(x), 0.0);
}

TEST(Measures, ApproximateEntropyOrdersRegularVsRandom) {
  const auto regular = sine(150, 3.0);
  const auto random = noise(150, 2);
  EXPECT_LT(approximate_entropy(regular), approximate_entropy(random));
}

TEST(Measures, CidHigherForComplexSignal) {
  const auto smooth = sine(128, 1.0);
  const auto rough = noise(128, 3);
  EXPECT_LT(cid_ce(smooth), cid_ce(rough));
}

TEST(Measures, CidZeroForShortInput) {
  const std::vector<double> x{1.0};
  EXPECT_DOUBLE_EQ(cid_ce(x), 0.0);
}

TEST(Measures, C3OfSymmetricNoiseNearZero) {
  const auto x = noise(5000, 4);
  EXPECT_NEAR(c3(x, 1), 0.0, 0.1);
}

TEST(Measures, TimeReversalAsymmetryDetectsAsymmetry) {
  // A sawtooth (slow rise, fast fall) is time-asymmetric.
  std::vector<double> saw(300);
  for (int i = 0; i < 300; ++i) saw[i] = (i % 30) / 30.0;
  const auto sym = sine(300, 10.0);
  EXPECT_GT(std::fabs(time_reversal_asymmetry(saw, 1)),
            std::fabs(time_reversal_asymmetry(sym, 1)) + 1e-4);
}

TEST(Measures, EnergyRatioChunksSumToOne) {
  const auto x = noise(97, 5);  // non-divisible length
  double total = 0.0;
  for (std::size_t c = 0; c < 5; ++c)
    total += energy_ratio_by_chunks(x, 5, c);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Measures, EnergyRatioFocusedChunk) {
  std::vector<double> x(100, 0.0);
  for (int i = 40; i < 60; ++i) x[i] = 1.0;  // all energy in chunk 2
  EXPECT_NEAR(energy_ratio_by_chunks(x, 5, 2), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(energy_ratio_by_chunks(x, 5, 0), 0.0);
}

TEST(Measures, AdfStationaryIsStronglyNegative) {
  // White noise is stationary: the ADF statistic should be very negative.
  const auto stationary = noise(300, 6);
  // A random walk has a unit root: statistic near zero.
  common::Rng rng(7);
  std::vector<double> walk(300);
  walk[0] = 0.0;
  for (std::size_t i = 1; i < walk.size(); ++i)
    walk[i] = walk[i - 1] + rng.normal();
  EXPECT_LT(adf_statistic(stationary), -5.0);
  EXPECT_GT(adf_statistic(walk), -3.0);
}

TEST(Measures, DegenerateInputsAreFinite) {
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_TRUE(std::isfinite(sample_entropy(tiny)));
  EXPECT_TRUE(std::isfinite(approximate_entropy(tiny)));
  EXPECT_TRUE(std::isfinite(adf_statistic(tiny)));
  EXPECT_DOUBLE_EQ(c3(tiny, 1), 0.0);
  EXPECT_DOUBLE_EQ(time_reversal_asymmetry(tiny, 1), 0.0);
}

// ------------------------------------------------------------- bank

TEST(Bank, NamesMatchFeatureCount) {
  const FeatureBank bank;
  EXPECT_EQ(bank.names().size(), bank.feature_count());
  EXPECT_GT(bank.feature_count(), 60u);
}

TEST(Bank, InterferenceSubsetHasNineEntries) {
  const FeatureBank bank;
  EXPECT_EQ(bank.interference_indices().size(), 9u);
  for (std::size_t idx : bank.interference_indices())
    EXPECT_LT(idx, bank.feature_count());
}

TEST(Bank, ExtractIsDeterministicAndFinite) {
  const FeatureBank bank;
  const auto x = noise(150, 8);
  std::vector<double> seg(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) seg[i] = x[i] * x[i];
  const auto a = bank.extract(seg);
  const auto b = bank.extract(seg);
  ASSERT_EQ(a.size(), bank.feature_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
    EXPECT_TRUE(std::isfinite(a[i])) << bank.names()[i];
  }
}

TEST(Bank, ConstantSegmentIsHandled) {
  const FeatureBank bank;
  const std::vector<double> seg(64, 5.0);
  const auto f = bank.extract(seg);
  for (std::size_t i = 0; i < f.size(); ++i)
    EXPECT_TRUE(std::isfinite(f[i])) << bank.names()[i];
}

TEST(Bank, ShortSegmentThrows) {
  const FeatureBank bank;
  const std::vector<double> seg{1.0, 2.0, 3.0};
  EXPECT_THROW(bank.extract(std::span<const double>(seg)),
               PreconditionError);
}

TEST(Bank, ShapeFeaturesAreAmplitudeInvariant) {
  const FeatureBank bank;
  auto base = sine(120, 3.0);
  for (auto& v : base) v = (v + 1.5) * (v + 1.5);  // positive "energy"
  std::vector<double> scaled(base);
  // Log compression turns a pure scale into a shift that z-normalization
  // removes, so shape features should barely move for large scale factors.
  for (auto& v : scaled) v *= 1000.0;
  const auto fa = bank.extract(std::span<const double>(base));
  const auto fb = bank.extract(std::span<const double>(scaled));
  const auto& names = bank.names();
  // log1p turns a pure scale into an (approximate) shift that the
  // z-normalization removes; small-value regions deviate, so the
  // invariance is approximate: require the bulk of the shape features to
  // move very little, rather than a hard bound on every statistic.
  std::size_t compared = 0, stable = 0;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (names[i].rfind("log_", 0) == 0 || names[i] == "coeff_variation")
      continue;  // scale features are supposed to move
    ++compared;
    if (std::fabs(fa[i] - fb[i]) <= 0.3) ++stable;
  }
  EXPECT_GT(static_cast<double>(stable) / static_cast<double>(compared),
            0.85);
}

TEST(Bank, DurationReachesLengthFeature) {
  const FeatureBank bank;
  auto short_seg = sine(60, 2.0);
  auto long_seg = sine(180, 6.0);
  for (auto& v : short_seg) v = v * v;
  for (auto& v : long_seg) v = v * v;
  const auto fs = bank.extract(std::span<const double>(short_seg));
  const auto fl = bank.extract(std::span<const double>(long_seg));
  const auto& names = bank.names();
  const auto it =
      std::find(names.begin(), names.end(), std::string("log_length"));
  ASSERT_NE(it, names.end());
  const auto idx = static_cast<std::size_t>(it - names.begin());
  EXPECT_GT(fl[idx], fs[idx]);
}

TEST(Bank, CrossChannelZerosForSingleChannel) {
  const FeatureBank bank;
  const auto x = sine(100, 2.0);
  std::vector<double> seg(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) seg[i] = x[i] * x[i] + 1.0;
  const auto f = bank.extract(std::span<const double>(seg));
  const auto& names = bank.names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].rfind("xc_", 0) == 0) {
      EXPECT_DOUBLE_EQ(f[i], 0.0) << names[i];
    }
  }
}

TEST(Bank, CrossChannelAsymmetryDetectsOrderedEnergy) {
  const FeatureBank bank;
  // Channel 1 bursts early, channel 3 late: a scroll-like pattern.
  std::vector<double> c1(120, 0.1), c2(120, 0.1), c3v(120, 0.1);
  for (int i = 20; i < 45; ++i) c1[i] = 50.0;
  for (int i = 50; i < 70; ++i) c2[i] = 50.0;
  for (int i = 75; i < 100; ++i) c3v[i] = 50.0;
  const std::span<const double> chans[] = {c1, c2, c3v};
  const auto f = bank.extract(std::span<const std::span<const double>>(chans));
  const auto& names = bank.names();
  const auto find = [&](const char* n) {
    return static_cast<std::size_t>(
        std::find(names.begin(), names.end(), std::string(n)) -
        names.begin());
  };
  EXPECT_GT(f[find("xc_asym_delta")], 0.5);
  EXPECT_GT(f[find("xc_tau_spread")], 0.2);
}

TEST(Bank, EnvelopeBurstCountSeparatesSingleFromDouble) {
  const FeatureBank bank;
  // One hump vs two well-separated humps.
  std::vector<double> one(150, 0.0), two(150, 0.0);
  for (int i = 50; i < 100; ++i)
    one[i] = std::sin(kPi * (i - 50) / 50.0) * 100.0;
  for (int i = 20; i < 60; ++i)
    two[i] = std::sin(kPi * (i - 20) / 40.0) * 100.0;
  for (int i = 90; i < 130; ++i)
    two[i] = std::sin(kPi * (i - 90) / 40.0) * 100.0;
  const auto f1 = bank.extract(std::span<const double>(one));
  const auto f2 = bank.extract(std::span<const double>(two));
  const auto& names = bank.names();
  const auto idx = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), std::string("env_burst_count")) -
      names.begin());
  EXPECT_LT(f1[idx], f2[idx]);
}

TEST(Bank, CrossChannelCapBoundsLongSegmentsOnly) {
  FeatureBankOptions uncapped_opt;
  uncapped_opt.cross_channel_cap = 0;
  const FeatureBank capped;  // default cap
  const FeatureBank uncapped(uncapped_opt);
  const std::size_t cap = capped.options().cross_channel_cap;
  ASSERT_GT(cap, 0u);

  auto make_channels = [](std::size_t n, std::uint64_t seed) {
    common::Rng rng(seed);
    std::vector<std::vector<double>> ch(3, std::vector<double>(n));
    for (auto& c : ch)
      for (auto& v : c) v = std::fabs(rng.normal()) + 0.1;
    return ch;
  };
  auto as_spans = [](const std::vector<std::vector<double>>& ch) {
    return std::vector<std::span<const double>>(ch.begin(), ch.end());
  };
  auto bits_equal = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(a)) == 0;
  };

  // At or under the cap the capped bank is bit-identical to the uncapped
  // one — every training/evaluation gesture takes this path.
  {
    const auto ch = make_channels(cap, 7);
    const auto spans = as_spans(ch);
    const auto a = capped.extract(spans);
    const auto b = uncapped.extract(spans);
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_TRUE(bits_equal(a[i], b[i])) << capped.names()[i];
  }

  // Above the cap only the xc_* features may move, and they must equal
  // the uncapped bank's xc_* features over the decimated channels (the
  // cap is exactly "resample, then the historical block").
  {
    const std::size_t n = 2 * cap + 117;
    const auto ch = make_channels(n, 8);
    std::vector<std::vector<double>> dec(3, std::vector<double>(cap));
    for (std::size_t c = 0; c < 3; ++c)
      dsp::resample_linear_into(ch[c], dec[c]);
    const auto spans = as_spans(ch);
    const auto dec_spans = as_spans(dec);
    const auto got = capped.extract(spans);
    const auto raw = uncapped.extract(spans);
    const auto via_dec = uncapped.extract(dec_spans);
    const auto& names = capped.names();
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (names[i].rfind("xc_", 0) == 0) {
        EXPECT_TRUE(bits_equal(got[i], via_dec[i])) << names[i];
      } else {
        EXPECT_TRUE(bits_equal(got[i], raw[i])) << names[i];
      }
    }
  }
}

TEST(Bank, CustomOptionsChangeArity) {
  FeatureBankOptions opt;
  opt.fft_coefficients = 4;
  opt.cross_channel = false;
  const FeatureBank small(opt);
  const FeatureBank standard;
  EXPECT_LT(small.feature_count(), standard.feature_count());
}

// ------------------------------------------------ fused entropy sweep

std::vector<double> uniform_signal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::vector<double> x(n);
  for (auto& v : x) v = value(rng);
  return x;
}

// Lengths 1..17 plus a few longer ones.
std::vector<std::size_t> entropy_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (const std::size_t n : {96, 255, 301}) lengths.push_back(n);
  return lengths;
}

TEST(Measures, FusedEntropyCountsMatchSeparateCounts) {
  constexpr std::size_t m = 2;
  const double r = 0.35;
  for (const std::size_t n : entropy_lengths()) {
    if (n <= m + 1) continue;  // entropy_counts precondition
    const std::vector<double> x = uniform_signal(n, 505 + n);
    const std::size_t tm = n - m + 1;
    const std::size_t tm1 = n - m;

    // Independent references: the pair totals from count_matches, the
    // per-template counts from a plain double loop over ALL ordered
    // (i, j) including the self-match.
    const auto cheb = [&](std::size_t i, std::size_t j, std::size_t mm) {
      for (std::size_t k = 0; k < mm; ++k)
        if (std::fabs(x[i + k] - x[j + k]) > r) return false;
      return true;
    };
    std::vector<std::uint32_t> want_cm(tm, 0), want_cm1(tm1, 0);
    for (std::size_t i = 0; i < tm; ++i)
      for (std::size_t j = 0; j < tm; ++j)
        if (cheb(i, j, m)) ++want_cm[i];
    for (std::size_t i = 0; i < tm1; ++i)
      for (std::size_t j = 0; j < tm1; ++j)
        if (cheb(i, j, m + 1)) ++want_cm1[i];

    std::vector<std::uint32_t> cm(tm), cm1(tm1);
    std::size_t pm = 0, pm1 = 0;
    detail::entropy_counts(x, m, r, cm, cm1, pm, pm1);
    const std::string what = "entropy_counts n=" + std::to_string(n);
    EXPECT_EQ(detail::count_matches(x, m, r), pm) << what;
    EXPECT_EQ(detail::count_matches(x, m + 1, r), pm1) << what;
    EXPECT_EQ(want_cm, cm) << what;
    EXPECT_EQ(want_cm1, cm1) << what;

    // apen_phi's log-mean over the same per-template counts.
    const auto phi = [](const std::vector<std::uint32_t>& counts) {
      double acc = 0.0;
      for (const std::uint32_t c : counts)
        acc += std::log(static_cast<double>(c) /
                        static_cast<double>(counts.size()));
      return acc / static_cast<double>(counts.size());
    };
    EXPECT_EQ(detail::apen_phi(x, m, r), phi(cm)) << what;
    EXPECT_EQ(detail::apen_phi(x, m + 1, r), phi(cm1)) << what;
  }
}

TEST(Measures, EntropyPairMatchesSeparateMeasuresBitExact) {
  common::ScratchArena arena;
  for (const std::size_t n : entropy_lengths()) {
    if (n < 4) continue;
    const std::vector<double> x = uniform_signal(n, 909 + n);
    const auto [sampen, apen] = entropy_pair(x, arena);
    const double want_sampen = sample_entropy(x);
    const double want_apen = approximate_entropy(x);
    EXPECT_EQ(0, std::memcmp(&sampen, &want_sampen, sizeof(double)))
        << "entropy_pair sampen n=" << n << ": " << sampen << " vs "
        << want_sampen;
    EXPECT_EQ(0, std::memcmp(&apen, &want_apen, sizeof(double)))
        << "entropy_pair apen n=" << n << ": " << apen << " vs "
        << want_apen;
  }
}

}  // namespace
}  // namespace airfinger::features
