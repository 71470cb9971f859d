// Detection-quality battery for the streaming artifact layer (DESIGN.md §17).
//
// Three tiers, mirroring how the detectors are deployed:
//
//   * unit tests of each streaming detector against synthetic signals with
//     known statistics — adaptive click-threshold convergence on stationary
//     noise, Levinson–Durbin against a direct dense Toeplitz solve,
//     excess kurtosis separating impulsive from Gaussian windows, spectral
//     flatness separating tones from broadband noise, baseline-velocity
//     drift tracking, and reset() equivalence to a fresh detector;
//   * seeded injector-vs-detector sweeps: every new FaultInjector class
//     (crackle, step, drift, flicker) plus glitch impulses is replayed
//     against a policy whose thresholds are derived from the clean corpus
//     (the same recipe bench/robustness.cpp documents), asserting per-class
//     detection at multiple rates/seeds and a zero-action false-positive
//     gate on clean traffic;
//   * repair-exactness: an impulse on a locally linear stretch is repaired
//     to the bit-identical clean value, so a gesture recorded *after* the
//     corruption decodes into byte-identical events — and a hold that
//     overflows without escalation is a pure delay.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "sensor/artifact.hpp"
#include "sensor/fault_injector.hpp"
#include "synth/dataset.hpp"

namespace airfinger {
namespace {

constexpr double kPi = 3.14159265358979323846;

// ------------------------------------------------------------- substrate

/// One small trained bundle shared by every session-level test here.
const std::shared_ptr<const core::ModelBundle>& trained_bundle() {
  static const std::shared_ptr<const core::ModelBundle> bundle = [] {
    core::TrainerConfig config;
    config.users = 2;
    config.sessions = 1;
    config.repetitions = 3;
    config.non_gesture_repetitions = 3;
    config.seed = 11;
    return core::build_bundle(config);
  }();
  return bundle;
}

/// Clean single-gesture recordings used as the substrate for corruption.
const synth::Dataset& probe_corpus() {
  static const synth::Dataset probes = [] {
    synth::CollectionConfig config;
    config.users = 1;
    config.sessions = 1;
    // 8 repetitions of 4 kinds: the appended substrate is ~5k samples —
    // long enough for drift ramps (400 samples) and flicker episodes
    // (600) to play out and for the sustain windows to fill.
    config.repetitions = 8;
    config.kinds = {synth::MotionKind::kCircle, synth::MotionKind::kClick,
                    synth::MotionKind::kScrollUp,
                    synth::MotionKind::kScrollDown};
    config.seed = 404;
    return synth::DatasetBuilder(config).collect();
  }();
  return probes;
}

/// All probes appended into one long recording (more room for storms).
const sensor::MultiChannelTrace& long_probe() {
  static const sensor::MultiChannelTrace trace = [] {
    sensor::MultiChannelTrace out = probe_corpus().samples.front().trace;
    for (std::size_t i = 1; i < probe_corpus().samples.size(); ++i)
      out.append(probe_corpus().samples[i].trace);
    return out;
  }();
  return trace;
}

double clean_ceiling() {
  static const double ceiling = [] {
    double max_abs = 0.0;
    const auto& trace = long_probe();
    for (std::size_t c = 0; c < trace.channel_count(); ++c)
      for (const double x : trace.channel(c))
        max_abs = std::max(max_abs, std::abs(x));
    return max_abs;
  }();
  return ceiling;
}

/// Clean-corpus measurements the graded thresholds are derived from —
/// the deployment recipe from health.hpp: measure the clean ceiling of
/// each detector quantity, then set the acting threshold above it.
struct CleanProfile {
  double max_dx = 0.0;        ///< max |x_t - x_{t-1}| over all channels.
  double max_velocity = 0.0;  ///< max |EWMA baseline velocity| (warmed up).
};

const CleanProfile& clean_profile() {
  static const CleanProfile profile = [] {
    CleanProfile out;
    const auto& trace = long_probe();
    for (std::size_t c = 0; c < trace.channel_count(); ++c) {
      sensor::ChannelArtifactDetector det;
      const auto ch = trace.channel(c);
      for (std::size_t i = 0; i < ch.size(); ++i) {
        if (i > 0)
          out.max_dx = std::max(out.max_dx, std::abs(ch[i] - ch[i - 1]));
        det.accept(ch[i]);
        if (det.warmed_up())
          out.max_velocity =
              std::max(out.max_velocity, std::abs(det.baseline_velocity()));
      }
    }
    return out;
  }();
  return profile;
}

/// Absolute repair floor: genuine movement must stay under it across a
/// full repair gap (repair_limit + resume frame), or a mid-gesture repair
/// could fail to resume and spuriously escalate. Derived, not guessed.
double repair_floor() {
  return 6.0 * clean_profile().max_dx + 32.0;
}

/// Impulse magnitude all sweeps inject: decisively above the repair floor,
/// decisively below the saturation rail the graded policy keeps.
double storm_magnitude() { return 4.0 * repair_floor(); }

/// The graded policy under test: burst heuristics pushed out of the way
/// (the artifact layer is what these tests exercise), repair and
/// escalation armed with thresholds derived from the clean profile.
core::FaultPolicy graded_policy() {
  core::FaultPolicy policy;
  policy.enabled = true;
  policy.saturation_level = clean_ceiling() + 8.0 * repair_floor();
  policy.saturation_run_limit = 8;
  policy.stuck_run_limit = 32;
  policy.recovery_frames = 32;
  policy.artifact.repair = true;
  policy.artifact.repair_z = 6.0;
  policy.artifact.repair_min_step = repair_floor();
  policy.artifact.escalate = true;
  policy.artifact.detector.drift_velocity =
      std::max(2.0 * clean_profile().max_velocity, 0.05);
  return policy;
}

void expect_events_identical(const std::vector<core::GestureEvent>& a,
                             const std::vector<core::GestureEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    SCOPED_TRACE("event " + std::to_string(e));
    EXPECT_EQ(a[e].type, b[e].type);
    EXPECT_EQ(a[e].time_s, b[e].time_s);
    EXPECT_EQ(a[e].gesture, b[e].gesture);
    EXPECT_EQ(a[e].segment_begin, b[e].segment_begin);
    EXPECT_EQ(a[e].segment_end, b[e].segment_end);
    EXPECT_EQ(a[e].scroll.has_value(), b[e].scroll.has_value());
    if (a[e].scroll && b[e].scroll) {
      EXPECT_EQ(a[e].scroll->direction, b[e].scroll->direction);
      EXPECT_EQ(a[e].scroll->velocity_mps, b[e].scroll->velocity_mps);
      EXPECT_EQ(a[e].scroll->duration_s, b[e].scroll->duration_s);
    }
  }
}

std::uint64_t counter(const core::Session& session,
                      obs::Registry::Handle handle) {
  return session.observability().registry().counter_value(handle);
}

// --------------------------------------------------- detector unit tests

TEST(ArtifactDetector, AdaptiveClickThresholdConvergesOnStationaryNoise) {
  // |x_t - x_{t-1}| of iid N(0, sigma) noise is folded normal with mean
  // sigma * sqrt(2) * sqrt(2/pi); the EWMA statistics must converge there.
  const double sigma = 4.0;
  sensor::ChannelArtifactDetector det;
  common::Rng rng(1234);
  for (int i = 0; i < 4000; ++i) det.accept(rng.normal(0.0, sigma));

  const double expected_mean = sigma * std::sqrt(2.0) * std::sqrt(2.0 / kPi);
  EXPECT_NEAR(det.deriv_mean(), expected_mean, 0.25 * expected_mean);
  EXPECT_GT(det.deriv_sigma(), 0.0);
  // The threshold sits mean + 5 sigma_d above: comfortably above the mean
  // derivative, comfortably below a genuine impulse.
  EXPECT_GT(det.click_threshold(), expected_mean);
  EXPECT_LT(det.click_threshold(), 30.0 * sigma);
}

TEST(ArtifactDetector, ClickScoreSeparatesImpulseFromNoise) {
  const double sigma = 4.0;
  sensor::ChannelArtifactDetector det;
  common::Rng rng(77);
  int clean_saturations = 0;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.normal(0.0, sigma);
    if (det.warmed_up() && det.click_z(x) >= det.config().click_sigma)
      ++clean_saturations;
    det.accept(x);
  }
  // Clean noise essentially never reaches the 5-sigma adaptive threshold.
  EXPECT_LE(clean_saturations, 2);

  // A 30-sigma impulse always does, both through the peek and the commit.
  const double impulse = det.last() + 30.0 * sigma;
  EXPECT_GE(det.click_z(impulse), det.config().click_sigma);
  const sensor::ArtifactScores s = det.accept(impulse);
  EXPECT_EQ(s.click, 1.0);
}

/// Direct dense solve of the order-p Yule–Walker system R a = r via
/// Gaussian elimination with partial pivoting — the reference
/// levinson_durbin() must match.
std::vector<double> direct_toeplitz_solve(const std::vector<double>& r,
                                          std::size_t p) {
  std::vector<double> m(p * (p + 1));
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j)
      m[i * (p + 1) + j] = r[i > j ? i - j : j - i];
    m[i * (p + 1) + p] = r[i + 1];
  }
  for (std::size_t col = 0; col < p; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < p; ++row)
      if (std::abs(m[row * (p + 1) + col]) >
          std::abs(m[pivot * (p + 1) + col]))
        pivot = row;
    for (std::size_t j = 0; j <= p; ++j)
      std::swap(m[col * (p + 1) + j], m[pivot * (p + 1) + j]);
    for (std::size_t row = col + 1; row < p; ++row) {
      const double f = m[row * (p + 1) + col] / m[col * (p + 1) + col];
      for (std::size_t j = col; j <= p; ++j)
        m[row * (p + 1) + j] -= f * m[col * (p + 1) + j];
    }
  }
  std::vector<double> a(p);
  for (std::size_t i = p; i-- > 0;) {
    double acc = m[i * (p + 1) + p];
    for (std::size_t j = i + 1; j < p; ++j) acc -= m[i * (p + 1) + j] * a[j];
    a[i] = acc / m[i * (p + 1) + i];
  }
  return a;
}

TEST(ArtifactDetector, LevinsonDurbinMatchesDirectToeplitzSolve) {
  // Sample autocorrelation of a random smooth signal gives a well-posed
  // positive-definite Toeplitz system at every tested order.
  common::Rng rng(4242);
  std::vector<double> x(2048);
  double s = 0.0;
  for (double& v : x) {
    s = 0.9 * s + rng.normal(0.0, 1.0);  // AR(1) colouring.
    v = s;
  }
  for (const std::size_t p : {2u, 4u, 8u}) {
    SCOPED_TRACE("order " + std::to_string(p));
    std::vector<double> r(p + 1, 0.0);
    for (std::size_t k = 0; k <= p; ++k)
      for (std::size_t i = 0; i + k < x.size(); ++i) r[k] += x[i] * x[i + k];
    std::vector<double> a(p, 0.0);
    const double err = sensor::levinson_durbin(r, a);
    EXPECT_GT(err, 0.0);
    const std::vector<double> ref = direct_toeplitz_solve(r, p);
    for (std::size_t k = 0; k < p; ++k)
      EXPECT_NEAR(a[k], ref[k], 1e-8 * std::max(1.0, std::abs(ref[k])));
  }
}

TEST(ArtifactDetector, LevinsonDurbinRecoversAnalyticArOneCoefficient) {
  // AR(1) with coefficient rho has autocorrelation r[k] = rho^k; the
  // order-4 solve must put (nearly) all weight on the first lag.
  const double rho = 0.8;
  std::vector<double> r(5);
  for (std::size_t k = 0; k < r.size(); ++k) r[k] = std::pow(rho, k);
  std::vector<double> a(4, 0.0);
  sensor::levinson_durbin(r, a);
  EXPECT_NEAR(a[0], rho, 1e-12);
  for (std::size_t k = 1; k < a.size(); ++k) EXPECT_NEAR(a[k], 0.0, 1e-12);

  // Degenerate input zeroes the coefficients and reports zero error power.
  std::vector<double> zero(5, 0.0);
  std::vector<double> az(4, 1.0);
  EXPECT_EQ(sensor::levinson_durbin(zero, az), 0.0);
  for (const double c : az) EXPECT_EQ(c, 0.0);
}

TEST(ArtifactDetector, LpcResidualFlagsImpulseOnPredictableSignal) {
  // A sinusoid is almost perfectly linearly predictable: the residual RMS
  // adapts to near zero, so an additive impulse scores a huge residual z.
  sensor::ChannelArtifactDetector det;
  for (int i = 0; i < 800; ++i)
    det.accept(100.0 * std::sin(2.0 * kPi * i / 16.0));
  const sensor::ArtifactScores s =
      det.accept(100.0 * std::sin(2.0 * kPi * 800 / 16.0) + 500.0);
  EXPECT_EQ(s.residual, 1.0);
}

TEST(ArtifactDetector, ExcessKurtosisSeparatesImpulsiveFromGaussian) {
  common::Rng rng(9);
  sensor::ChannelArtifactDetector gaussian;
  sensor::ArtifactScores gs{};
  for (int i = 0; i < 1000; ++i) gs = gaussian.accept(rng.normal(0.0, 3.0));
  EXPECT_LT(std::abs(gaussian.excess_kurtosis()), 1.5);
  EXPECT_LT(gs.kurtosis, 1.0);

  // One +-A impulse every 8 samples: occupancy 1/8 gives kurtosis ~8,
  // excess ~5 — decisively above the saturation limit of 3.
  sensor::ChannelArtifactDetector impulsive;
  sensor::ArtifactScores is{};
  for (int i = 0; i < 1000; ++i) {
    double x = rng.normal(0.0, 1.0);
    if (i % 8 == 0) x += (i % 16 == 0) ? 200.0 : -200.0;
    is = impulsive.accept(x);
  }
  EXPECT_GT(impulsive.excess_kurtosis(), 3.0);
  EXPECT_EQ(is.kurtosis, 1.0);
}

TEST(ArtifactDetector, SpectralFlatnessSeparatesToneFromBroadbandNoise) {
  common::Rng rng(31);
  sensor::ChannelArtifactDetector noise;
  for (int i = 0; i < 512; ++i) noise.accept(rng.normal(0.0, 5.0));
  EXPECT_GT(noise.flatness(), 0.3);

  sensor::ChannelArtifactDetector tone;
  sensor::ArtifactScores ts{};
  for (int i = 0; i < 512; ++i)
    ts = tone.accept(50.0 * std::sin(2.0 * kPi * i / 8.0) +
                     rng.normal(0.0, 1.0));
  // Period 8 at a 64-sample window concentrates power in bin 8 — an
  // eligible flicker line well above flicker_min_bin.
  EXPECT_LT(tone.flatness(), tone.config().flatness_floor / 2.0);
  EXPECT_EQ(tone.dominant_bin(), 8u);
  EXPECT_GT(tone.dominant_fraction(), tone.config().flicker_fraction);
  EXPECT_EQ(ts.tonal, 1.0);
  EXPECT_EQ(ts.flicker, 1.0);
}

TEST(ArtifactDetector, BaselineVelocityTracksSlowDrift) {
  sensor::ChannelArtifactDetector det;
  common::Rng rng(55);
  sensor::ArtifactScores s{};
  // A 1 count/sample ramp: the EWMA velocity converges to the slope.
  for (int i = 0; i < 1500; ++i)
    s = det.accept(300.0 + 1.0 * i + rng.normal(0.0, 0.5));
  EXPECT_NEAR(det.baseline_velocity(), 1.0, 0.2);
  EXPECT_EQ(s.drift, 1.0);  // Default drift_velocity threshold is 0.35.

  // Level streams hold the velocity near zero.
  sensor::ChannelArtifactDetector flat;
  sensor::ArtifactScores fs{};
  for (int i = 0; i < 1500; ++i) fs = flat.accept(rng.normal(300.0, 2.0));
  EXPECT_LT(std::abs(flat.baseline_velocity()), 0.05);
  EXPECT_LT(fs.drift, 1.0);
}

TEST(ArtifactDetector, ResetRestoresFreshlyConstructedState) {
  common::Rng rng(101);
  std::vector<double> sequence(700);
  for (double& v : sequence) v = rng.normal(320.0, 6.0);

  sensor::ChannelArtifactDetector fresh;
  sensor::ChannelArtifactDetector reused;
  for (int i = 0; i < 300; ++i) reused.accept(1e6 + 137.0 * i);
  reused.reset();
  EXPECT_EQ(reused.samples(), 0u);

  for (const double v : sequence) {
    const sensor::ArtifactScores a = fresh.accept(v);
    const sensor::ArtifactScores b = reused.accept(v);
    EXPECT_EQ(a.click, b.click);
    EXPECT_EQ(a.residual, b.residual);
    EXPECT_EQ(a.kurtosis, b.kurtosis);
    EXPECT_EQ(a.tonal, b.tonal);
    EXPECT_EQ(a.drift, b.drift);
    EXPECT_EQ(a.flicker, b.flicker);
  }
  EXPECT_EQ(fresh.deriv_mean(), reused.deriv_mean());
  EXPECT_EQ(fresh.click_threshold(), reused.click_threshold());
  EXPECT_EQ(fresh.excess_kurtosis(), reused.excess_kurtosis());
  EXPECT_EQ(fresh.flatness(), reused.flatness());
  EXPECT_EQ(fresh.baseline_velocity(), reused.baseline_velocity());
}

// ------------------------------------------------ injector determinism

TEST(FaultInjectorStreams, NewClassStormsAreIndependentOfOtherClasses) {
  // Each class draws from its own split stream: the storm class K produces
  // must be identical whether K runs alone or alongside every other class.
  using Kind = sensor::FaultEvent::Kind;
  struct ClassCase {
    Kind kind;
    void (*enable)(sensor::FaultInjectorConfig&);
  };
  const ClassCase cases[] = {
      {Kind::kCrackle,
       [](sensor::FaultInjectorConfig& c) { c.crackle_rate = 0.002; }},
      {Kind::kStep,
       [](sensor::FaultInjectorConfig& c) { c.step_rate = 0.002; }},
      {Kind::kDrift,
       [](sensor::FaultInjectorConfig& c) { c.drift_rate = 0.002; }},
      {Kind::kFlicker,
       [](sensor::FaultInjectorConfig& c) { c.flicker_rate = 0.002; }},
  };

  for (const ClassCase& cc : cases) {
    SCOPED_TRACE(static_cast<int>(cc.kind));
    sensor::FaultInjectorConfig solo;
    cc.enable(solo);

    sensor::FaultInjectorConfig all;
    all.dropout_rate = 0.002;
    all.glitch_rate = 0.002;
    for (const ClassCase& other : cases) other.enable(all);

    sensor::FaultInjector solo_injector(solo, 2024);
    sensor::FaultInjector all_injector(all, 2024);
    solo_injector.corrupt(long_probe());
    all_injector.corrupt(long_probe());

    auto filter = [&](const sensor::FaultInjector& inj) {
      std::vector<sensor::FaultEvent> out;
      for (const sensor::FaultEvent& e : inj.log())
        if (e.kind == cc.kind) out.push_back(e);
      return out;
    };
    const auto solo_events = filter(solo_injector);
    const auto all_events = filter(all_injector);
    ASSERT_FALSE(solo_events.empty());
    ASSERT_EQ(solo_events.size(), all_events.size());
    for (std::size_t i = 0; i < solo_events.size(); ++i) {
      EXPECT_EQ(solo_events[i].channel, all_events[i].channel);
      EXPECT_EQ(solo_events[i].begin, all_events[i].begin);
      EXPECT_EQ(solo_events[i].end, all_events[i].end);
    }
  }
}

// -------------------------------------------- injector-vs-detector sweeps

TEST(ArtifactSweep, CleanTrafficTakesNoActionAndStaysByteIdentical) {
  // The false-positive gate: the fully armed graded policy (repair +
  // escalation) must take zero actions on the clean corpus, leaving the
  // emissions bit-identical to strict mode.
  core::Session strict(trained_bundle());
  const auto strict_events = strict.process_trace(long_probe());

  core::Session graded(trained_bundle(), graded_policy());
  const auto graded_events = graded.process_trace(long_probe());

  expect_events_identical(strict_events, graded_events);
  const auto& obs = graded.observability();
  EXPECT_EQ(counter(graded, obs.artifact_impulse_detected), 0u);
  EXPECT_EQ(counter(graded, obs.artifact_impulse_repaired), 0u);
  EXPECT_EQ(counter(graded, obs.artifact_quarantines), 0u);
  EXPECT_TRUE(graded.health().clean());

  // Graded suspicion is allowed on clean traffic (it is the false-alarm
  // proxy the counters exist to measure) but must stay rare.
  const std::uint64_t frames = graded.health().frames;
  ASSERT_GT(frames, 0u);
  EXPECT_LE(counter(graded, obs.artifact_impulse_suspect), frames / 20);
}

TEST(ArtifactSweep, GlitchImpulsesAreDetectedAndRepairedAcrossRatesAndSeeds) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const double rate : {0.002, 0.01}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " rate " +
                   std::to_string(rate));
      sensor::FaultInjectorConfig config;
      config.glitch_rate = rate;
      config.glitch_magnitude = storm_magnitude();
      sensor::FaultInjector injector(config, seed);
      const auto corrupted = injector.corrupt(long_probe());

      std::size_t injected = 0;  // Glitches the detectors had a shot at.
      for (const sensor::FaultEvent& e : injector.log())
        if (e.kind == sensor::FaultEvent::Kind::kGlitch &&
            e.begin >= 100 && e.begin + 8 < corrupted.sample_count())
          ++injected;
      ASSERT_GT(injected, 0u);

      // Escalation off isolates the repair path: every detected impulse
      // must resolve by repair, never by quarantine.
      core::FaultPolicy policy = graded_policy();
      policy.artifact.escalate = false;
      core::Session session(trained_bundle(), policy);
      session.process_trace(corrupted);

      const auto& obs = session.observability();
      const std::uint64_t repaired =
          counter(session, obs.artifact_impulse_repaired);
      EXPECT_GE(counter(session, obs.artifact_impulse_detected), repaired);
      EXPECT_GE(repaired, (injected * 3) / 5)
          << "repaired " << repaired << " of " << injected;
      EXPECT_EQ(counter(session, obs.artifact_quarantines), 0u);
      EXPECT_EQ(session.health().quarantines, 0u);
      EXPECT_EQ(session.health().frames, corrupted.sample_count());
    }
  }
}

TEST(ArtifactSweep, CrackleTrainsEscalateToClassifiedQuarantine) {
  for (const std::uint64_t seed : {5ull, 6ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sensor::FaultInjectorConfig config;
    config.crackle_rate = 0.001;
    config.crackle_magnitude = storm_magnitude();
    sensor::FaultInjector injector(config, seed);
    const auto corrupted = injector.corrupt(long_probe());
    ASSERT_FALSE(injector.log().empty());

    core::Session session(trained_bundle(), graded_policy());
    session.process_trace(corrupted);

    const auto& obs = session.observability();
    EXPECT_GE(counter(session, obs.artifact_crackle_detected), 1u);
    EXPECT_GE(counter(session, obs.artifact_quarantines), 1u);
    EXPECT_GE(session.health().quarantines, 1u);
  }
}

TEST(ArtifactSweep, StepFaultsClassifyAsStepAndRecalibrate) {
  for (const std::uint64_t seed : {7ull, 8ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sensor::FaultInjectorConfig config;
    config.step_rate = 0.0006;
    config.step_magnitude = storm_magnitude();
    sensor::FaultInjector injector(config, seed);
    const auto corrupted = injector.corrupt(long_probe());
    ASSERT_FALSE(injector.log().empty());

    core::Session session(trained_bundle(), graded_policy());
    session.process_trace(corrupted);

    const auto& obs = session.observability();
    EXPECT_GE(counter(session, obs.artifact_step_detected), 1u);
    EXPECT_GE(session.health().quarantines, 1u);
    // The stream is healthy again on the shifted level: recovery must
    // have recalibrated at least once.
    EXPECT_GE(session.health().recalibrations, 1u);
  }
}

TEST(ArtifactSweep, SlowBaselineDriftEscalates) {
  for (const std::uint64_t seed : {9ull, 10ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::FaultPolicy policy = graded_policy();
    // The drift detector, not the saturation rail, is under test here.
    policy.saturation_level = std::numeric_limits<double>::infinity();
    const double slope = 8.0 * policy.artifact.detector.drift_velocity;

    sensor::FaultInjectorConfig config;
    config.drift_rate = 0.001;
    config.drift_run = 400;
    config.drift_magnitude = slope * static_cast<double>(config.drift_run);
    sensor::FaultInjector injector(config, seed);
    const auto corrupted = injector.corrupt(long_probe());
    ASSERT_FALSE(injector.log().empty());

    core::Session session(trained_bundle(), policy);
    session.process_trace(corrupted);

    const auto& obs = session.observability();
    EXPECT_GE(counter(session, obs.artifact_drift_detected), 1u);
    EXPECT_GE(counter(session, obs.artifact_quarantines), 1u);
  }
}

TEST(ArtifactSweep, PeriodicFlickerEscalates) {
  for (const std::uint64_t seed : {11ull, 12ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::FaultPolicy policy = graded_policy();

    sensor::FaultInjectorConfig config;
    config.flicker_rate = 0.001;
    config.flicker_run = 600;
    config.flicker_period = 8;
    config.flicker_magnitude = 4.0 * clean_profile().max_dx;
    sensor::FaultInjector injector(config, seed);
    const auto corrupted = injector.corrupt(long_probe());
    ASSERT_FALSE(injector.log().empty());

    core::Session session(trained_bundle(), policy);
    session.process_trace(corrupted);

    const auto& obs = session.observability();
    EXPECT_GE(counter(session, obs.artifact_flicker_detected), 1u);
    EXPECT_GE(counter(session, obs.artifact_quarantines), 1u);
  }
}

TEST(ArtifactSweep, DetectOnlySustainedImpulsivityClassifiesCrackle) {
  // With repair disabled the LPC-residual/kurtosis path is the backstop:
  // a long dense impulse train must still classify as crackle.
  core::FaultPolicy policy = graded_policy();
  policy.artifact.repair = false;
  policy.artifact.impulsive_sustain = 48;

  sensor::MultiChannelTrace corrupted = long_probe();
  auto& ch = corrupted.mutable_channel(0);
  ASSERT_GT(ch.size(), 1200u);
  for (std::size_t i = 300; i < 1100; i += 8)
    ch[i] += (i % 16 == 0) ? storm_magnitude() : -storm_magnitude();

  core::Session session(trained_bundle(), policy);
  session.process_trace(corrupted);

  const auto& obs = session.observability();
  EXPECT_EQ(counter(session, obs.artifact_impulse_repaired), 0u);
  EXPECT_GE(counter(session, obs.artifact_crackle_detected), 1u);
  EXPECT_GE(counter(session, obs.artifact_quarantines), 1u);
}

TEST(ArtifactSweep, StormRepliesAreDeterministic) {
  // Same seed, same storm, same counters and events on every replay.
  sensor::FaultInjectorConfig config;
  config.glitch_rate = 0.005;
  config.glitch_magnitude = storm_magnitude();
  config.crackle_rate = 0.0005;
  config.crackle_magnitude = storm_magnitude();
  config.step_rate = 0.0003;
  config.step_magnitude = storm_magnitude();

  auto run = [&] {
    sensor::FaultInjector injector(config, 303);
    const auto corrupted = injector.corrupt(long_probe());
    core::Session session(trained_bundle(), graded_policy());
    auto events = session.process_trace(corrupted);
    const auto& obs = session.observability();
    return std::pair{std::move(events),
                     std::vector<std::uint64_t>{
                         counter(session, obs.artifact_impulse_repaired),
                         counter(session, obs.artifact_crackle_detected),
                         counter(session, obs.artifact_step_detected),
                         counter(session, obs.artifact_quarantines),
                         session.health().quarantines}};
  };
  const auto a = run();
  const auto b = run();
  expect_events_identical(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// --------------------------------------------------- repair exactness

/// A synthetic on-grid prefix (values and slopes exactly representable)
/// followed by a real recorded gesture: exact repair of a corrupted prefix
/// must leave the gesture's decoded events byte-identical.
sensor::MultiChannelTrace grid_prefix_plus_gesture() {
  const auto& gesture = probe_corpus().samples.front().trace;
  sensor::MultiChannelTrace trace(gesture.channel_count(),
                                  gesture.sample_rate_hz());
  std::vector<double> frame(gesture.channel_count());
  for (std::size_t i = 0; i < 400; ++i) {
    for (std::size_t c = 0; c < frame.size(); ++c) {
      // Integer dither around each channel's own gesture baseline (so the
      // prefix-to-gesture junction stays far below the repair floor),
      // with a slope-2 integer ramp over [200, 212) so interpolation
      // across a repair gap is exact.
      const double base = std::floor(gesture.channel(c)[0]);
      if (i >= 200 && i < 212)
        frame[c] = base + static_cast<double>((199 + c) % 7) +
                   2.0 * static_cast<double>(i - 199);
      else if (i >= 212)
        frame[c] = base + 24.0 + static_cast<double>((i + c) % 7);
      else
        frame[c] = base + static_cast<double>((i + c) % 7);
    }
    trace.push_frame(frame);
  }
  trace.append(gesture);
  return trace;
}

/// Repair-armed policy scaled to the small on-grid prefix.
core::FaultPolicy grid_policy() {
  core::FaultPolicy policy = graded_policy();
  policy.artifact.repair_min_step = 64.0;
  return policy;
}

TEST(ArtifactRepair, ExactRepairIsByteIdenticalToCleanTrace) {
  const sensor::MultiChannelTrace clean = grid_prefix_plus_gesture();

  sensor::MultiChannelTrace corrupted = clean;
  corrupted.mutable_channel(0)[205] += 4096.0;

  core::Session clean_session(trained_bundle(), grid_policy());
  const auto clean_events = clean_session.process_trace(clean);
  EXPECT_EQ(counter(clean_session,
                    clean_session.observability().artifact_impulse_detected),
            0u);
  ASSERT_FALSE(clean_events.empty());

  core::Session repaired_session(trained_bundle(), grid_policy());
  const auto repaired_events = repaired_session.process_trace(corrupted);

  // The impulse sits mid-ramp: the interpolated value equals the clean
  // sample bit-for-bit, so the gesture recorded after the corruption
  // decodes into byte-identical events.
  expect_events_identical(clean_events, repaired_events);
  const auto& obs = repaired_session.observability();
  EXPECT_EQ(counter(repaired_session, obs.artifact_impulse_repaired), 1u);
  EXPECT_EQ(counter(repaired_session, obs.artifact_repaired_frames), 1u);
  EXPECT_EQ(counter(repaired_session, obs.artifact_quarantines), 0u);
  EXPECT_EQ(repaired_session.health().quarantines, 0u);
  EXPECT_EQ(repaired_session.health().frames, corrupted.sample_count());
}

TEST(ArtifactRepair, TwoFrameGapRepairsExactly) {
  const sensor::MultiChannelTrace clean = grid_prefix_plus_gesture();

  sensor::MultiChannelTrace corrupted = clean;
  corrupted.mutable_channel(0)[205] += 4096.0;
  corrupted.mutable_channel(0)[206] -= 3000.0;

  core::Session clean_session(trained_bundle(), grid_policy());
  const auto clean_events = clean_session.process_trace(clean);

  core::Session repaired_session(trained_bundle(), grid_policy());
  const auto repaired_events = repaired_session.process_trace(corrupted);

  expect_events_identical(clean_events, repaired_events);
  const auto& obs = repaired_session.observability();
  EXPECT_EQ(counter(repaired_session, obs.artifact_impulse_repaired), 1u);
  EXPECT_EQ(counter(repaired_session, obs.artifact_repaired_frames), 2u);
}

TEST(ArtifactRepair, HoldOverflowWithoutEscalationIsPureDelay) {
  // A sustained offset overflows the hold; with escalation off the raw
  // frames are released through the unchanged pipeline — downstream must
  // be identical to never having held at all (repair disabled).
  sensor::MultiChannelTrace corrupted = grid_prefix_plus_gesture();
  for (std::size_t i = 205; i < 215; ++i)
    corrupted.mutable_channel(0)[i] += 4096.0;

  core::FaultPolicy hold_policy = grid_policy();
  hold_policy.artifact.escalate = false;
  core::Session holding(trained_bundle(), hold_policy);
  const auto held_events = holding.process_trace(corrupted);

  core::FaultPolicy raw_policy = hold_policy;
  raw_policy.artifact.repair = false;
  core::Session raw(trained_bundle(), raw_policy);
  const auto raw_events = raw.process_trace(corrupted);

  expect_events_identical(held_events, raw_events);
  const auto& obs = holding.observability();
  EXPECT_GE(counter(holding, obs.artifact_impulse_detected), 1u);
  EXPECT_EQ(counter(holding, obs.artifact_impulse_repaired), 0u);
  EXPECT_EQ(counter(holding, obs.artifact_quarantines), 0u);
  EXPECT_EQ(holding.health().frames, corrupted.sample_count());
}

TEST(ArtifactRepair, SettledOverflowWithEscalationClassifiesStep) {
  // The same sustained offset with escalation on: the held values settled
  // on the new level, so the episode classifies as a zipper/step.
  sensor::MultiChannelTrace corrupted = grid_prefix_plus_gesture();
  for (std::size_t i = 205; i < 260; ++i)
    corrupted.mutable_channel(0)[i] += 4096.0;

  core::Session session(trained_bundle(), grid_policy());
  session.process_trace(corrupted);

  const auto& obs = session.observability();
  EXPECT_GE(counter(session, obs.artifact_step_detected), 1u);
  EXPECT_GE(counter(session, obs.artifact_quarantines), 1u);
  EXPECT_GE(session.health().quarantines, 1u);
}

}  // namespace
}  // namespace airfinger
