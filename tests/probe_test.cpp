// Locks the event-driven incremental probe (DESIGN.md §16): the
// OpenSegmentTiming cache must reproduce the batch segment_timing() bit
// for bit at every prefix length (the streaming cadence) and after runs
// of unqueried appends (the lazy advance), and ModelBundle::probe_direction
// over the cache — including its change-detection short-circuit — must
// return exactly what the cacheless overload returns at every prefix.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/ascending.hpp"
#include "core/data_processor.hpp"
#include "core/timing_cache.hpp"
#include "core/trainer.hpp"
#include "probe_parity.hpp"

namespace airfinger {
namespace {

using test::expect_bits;
using test::expect_estimates_equal;

void expect_timing_equal(const core::SegmentTiming& a,
                         const core::SegmentTiming& b, std::size_t n) {
  SCOPED_TRACE("window length " + std::to_string(n));
  ASSERT_EQ(a.active.size(), b.active.size());
  for (std::size_t c = 0; c < a.active.size(); ++c) {
    EXPECT_EQ(a.active[c], b.active[c]);
    expect_bits(a.tau_s[c], b.tau_s[c], "tau_s");
  }
  EXPECT_EQ(a.first_active, b.first_active);
  EXPECT_EQ(a.last_active, b.last_active);
  expect_bits(a.dt_outer_s, b.dt_outer_s, "dt_outer_s");
  EXPECT_EQ(a.envelope_peaks, b.envelope_peaks);
  expect_bits(a.asymmetry_start, b.asymmetry_start, "asymmetry_start");
  expect_bits(a.asymmetry_end, b.asymmetry_end, "asymmetry_end");
  expect_bits(a.asymmetry_delta, b.asymmetry_delta, "asymmetry_delta");
  expect_bits(a.transition_s, b.transition_s, "transition_s");
  expect_bits(a.asymmetry_range, b.asymmetry_range, "asymmetry_range");
  EXPECT_EQ(a.asymmetry_reversals, b.asymmetry_reversals);
}

/// Synthetic ΔRSS² windows: Gaussian humps per channel over noise. The
/// three shapes cover the router's verdict space — sequential humps route
/// track-aimed (a scroll), a common hump routes detect-aimed (a click),
/// and noise stays undecidable.
std::vector<std::vector<double>> make_windows(int shape, std::size_t channels,
                                              std::size_t total,
                                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(0.0, 0.35);
  std::vector<std::vector<double>> out(channels, std::vector<double>(total));
  for (std::size_t c = 0; c < channels; ++c) {
    const double centre =
        shape == 0 ? (0.25 + 0.22 * static_cast<double>(c)) *
                         static_cast<double>(total)
        : shape == 1 ? 0.5 * static_cast<double>(total)
                     : -100.0;
    for (std::size_t i = 0; i < total; ++i) {
      const double d = (static_cast<double>(i) - centre) / 9.0;
      out[c][i] = 40.0 * std::exp(-0.5 * d * d) + noise(rng);
    }
  }
  return out;
}

/// Per-sample energy of `channels`: the channel-order sum from 0.0 that a
/// session's open-segment view carries.
std::vector<double> channel_sum(const std::vector<std::vector<double>>& channels) {
  std::vector<double> energy(channels.front().size(), 0.0);
  for (const auto& ch : channels)
    for (std::size_t i = 0; i < energy.size(); ++i) energy[i] += ch[i];
  return energy;
}

// The incremental cache must agree with the batch analysis at *every*
// prefix length — the per-frame streaming cadence the probe actually
// runs at, with no lazy-advance gaps hiding a frontier bug — and when it
// is queried only every 7th frame, so timing() has to catch up over
// appends it never saw queried (the lazy advance).
TEST(IncrementalProbe, TimingMatchesBatchAtEveryPrefixLength) {
  constexpr std::size_t kChannels = 3;
  constexpr double kRate = 100.0;
  const core::TimingConfig config;

  for (const std::size_t stride : {1u, 7u}) {
    for (int shape = 0; shape < 3; ++shape) {
      SCOPED_TRACE("stride " + std::to_string(stride) + ", shape " +
                   std::to_string(shape));
      const std::size_t total = 150 + static_cast<std::size_t>(shape) * 31;
      const auto channels = make_windows(shape, kChannels, total, 911 + shape);

      core::OpenSegmentTiming cache;
      cache.configure(kChannels, kRate, config);
      cache.begin_segment();
      common::ScratchArena batch_arena;
      double frame[kChannels];
      std::vector<std::span<const double>> windows(kChannels);
      const std::vector<double> energy = channel_sum(channels);
      for (std::size_t n = 1; n <= total; ++n) {
        for (std::size_t c = 0; c < kChannels; ++c)
          frame[c] = channels[c][n - 1];
        cache.append({frame, kChannels});
        if (n % stride != 0 && n != total) continue;
        for (std::size_t c = 0; c < kChannels; ++c)
          windows[c] = std::span<const double>(channels[c].data(), n);
        const std::span<const std::span<const double>> w(windows);
        const auto incremental =
            cache.timing(w, std::span<const double>(energy).first(n));
        const auto batch = core::segment_timing(w, kRate, config, batch_arena);
        expect_timing_equal(incremental, batch, n);
      }
    }
  }
}

// refresh()'s change gate must be *sound*: whenever it reports "nothing
// decision-relevant changed", the statistics the router reads must be
// bit-identical to the previous frame's. (Completeness — reporting few
// changes — is what the bench measures; soundness is what correctness
// rests on.)
TEST(IncrementalProbe, UnchangedRefreshImpliesIdenticalRouterInputs) {
  constexpr std::size_t kChannels = 3;
  constexpr double kRate = 100.0;
  const core::TimingConfig config;
  const std::size_t total = 180;
  const auto channels = make_windows(0, kChannels, total, 77);

  core::OpenSegmentTiming cache;
  cache.configure(kChannels, kRate, config);
  cache.begin_segment();
  double frame[kChannels];
  std::vector<std::span<const double>> windows(kChannels);
  const std::vector<double> energy = channel_sum(channels);
  core::SegmentTiming prev;
  bool have_prev = false;
  std::size_t unchanged_frames = 0;
  for (std::size_t n = 1; n <= total; ++n) {
    for (std::size_t c = 0; c < kChannels; ++c) frame[c] = channels[c][n - 1];
    cache.append({frame, kChannels});
    for (std::size_t c = 0; c < kChannels; ++c)
      windows[c] = std::span<const double>(channels[c].data(), n);
    const std::span<const std::span<const double>> w(windows);
    const bool changed = cache.refresh(w);
    // Idempotent re-entry: a second refresh over the same window reports
    // the same verdict (the probe may be re-run without a new append).
    EXPECT_EQ(cache.refresh(w), changed);
    const auto timing =
        cache.timing(w, std::span<const double>(energy).first(n));
    if (!changed) {
      ASSERT_TRUE(have_prev);
      ++unchanged_frames;
      SCOPED_TRACE("window length " + std::to_string(n));
      EXPECT_EQ(timing.first_active, prev.first_active);
      expect_bits(timing.asymmetry_delta, prev.asymmetry_delta,
                  "asymmetry_delta");
      expect_bits(timing.transition_s, prev.transition_s, "transition_s");
      expect_bits(timing.asymmetry_range, prev.asymmetry_range,
                  "asymmetry_range");
      EXPECT_EQ(timing.asymmetry_reversals, prev.asymmetry_reversals);
    }
    prev = timing;
    have_prev = true;
  }
  // The decay tail of the humps must actually exercise the gate — a gate
  // that never fires would vacuously pass the soundness check above.
  EXPECT_GT(unchanged_frames, 0u);
}

/// One small trained bundle shared by the probe-identity and host tests
/// (training dominates the suite's cost; the bundle is immutable).
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

// probe_direction over the incremental cache — change-detection
// short-circuit included — must return exactly what the cacheless batch
// overload returns, probed at every prefix length like the streaming
// path does. Consecutive same-length probes (the short-circuit's
// hottest case) must also agree.
TEST(IncrementalProbe, ProbeDirectionMatchesCachelessAtEveryPrefix) {
  const auto& bundle = trained_bundle();
  const std::size_t channels = bundle->config().channels;
  const double rate = bundle->config().sample_rate_hz;

  for (int shape = 0; shape < 3; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    const std::size_t total = 160 + static_cast<std::size_t>(shape) * 19;
    const auto windows = make_windows(shape, channels, total, 4242 + shape);

    core::OpenSegmentTiming cache;
    cache.configure(channels, rate, bundle->probe_timing_config());
    cache.begin_segment();
    features::Workspace cached_ws;
    features::Workspace batch_ws;

    // Grow the open-segment view one frame at a time, exactly like the
    // session's streaming maintenance.
    core::ProcessedTrace view;
    view.delta_rss2.assign(channels, {});
    view.sample_rate_hz = rate;
    std::vector<double> frame(channels);
    for (std::size_t n = 1; n <= total; ++n) {
      double energy = 0.0;
      for (std::size_t c = 0; c < channels; ++c) {
        const double d = windows[c][n - 1];
        view.delta_rss2[c].push_back(d);
        frame[c] = d;
        energy += d;
      }
      view.energy.push_back(energy);
      cache.append({frame.data(), channels});

      const dsp::Segment local{0, n};
      const auto cached =
          bundle->probe_direction(view, local, cached_ws, cache);
      const auto batch = bundle->probe_direction(view, local, batch_ws);
      expect_estimates_equal(cached, batch, n);
      // Re-probe without an append: the short-circuit path must hold the
      // same verdict.
      expect_estimates_equal(
          bundle->probe_direction(view, local, cached_ws, cache), batch, n);
    }
  }
}

}  // namespace
}  // namespace airfinger
