#include "core/ascending.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/reduce.hpp"
#include "common/stats.hpp"
#include "dsp/filters.hpp"
#include "dsp/xcorr.hpp"

namespace airfinger::core {

AscendingPoints find_ascending_points(
    std::span<const std::span<const double>> windows,
    const AscendingConfig& config, common::ScratchArena& arena) {
  AF_EXPECT(!windows.empty(), "ascending detection requires channels");
  AF_EXPECT(windows.size() <= kMaxTimingChannels,
            "ascending detection supports at most kMaxTimingChannels");
  AF_EXPECT(config.rise_fraction > 0.0 && config.rise_fraction < 1.0,
            "rise fraction must lie in (0,1)");
  AF_EXPECT(config.floor_quantile >= 0.0 && config.floor_quantile < 1.0,
            "floor quantile must lie in [0,1)");
  AF_EXPECT(config.confirm_samples >= 1, "confirm_samples must be >= 1");
  AF_EXPECT(config.silence_fraction >= 0.0 && config.silence_fraction < 1.0,
            "silence fraction must lie in [0,1)");

  AscendingPoints out;
  out.ascending.resize(windows.size());
  out.peaks.resize(windows.size(), 0.0);

  double strongest = 0.0;
  for (std::size_t c = 0; c < windows.size(); ++c) {
    out.peaks[c] = common::reduce::max_with(windows[c], 0.0);
    strongest = std::max(strongest, out.peaks[c]);
  }
  const double silence_level = strongest * config.silence_fraction;

  std::size_t longest = 0;
  for (const auto& w : windows) longest = std::max(longest, w.size());
  const auto scratch_frame = arena.frame();
  const std::span<double> sort_scratch = arena.alloc<double>(longest);

  for (std::size_t c = 0; c < windows.size(); ++c) {
    const auto& w = windows[c];
    if (w.empty() || out.peaks[c] <= silence_level || out.peaks[c] <= 0.0)
      continue;
    const double floor =
        common::quantile_with(w, config.floor_quantile, sort_scratch);
    out.ascending[c] = detail::ascending_onset(w, out.peaks[c], floor, config);
  }
  return out;
}

std::optional<std::size_t> detail::ascending_onset(
    std::span<const double> w, double peak, double floor,
    const AscendingConfig& config) {
  const double rise_level = floor + config.rise_fraction * (peak - floor);
  std::size_t run = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    run = (w[i] >= rise_level) ? run + 1 : 0;
    if (run >= config.confirm_samples)
      return i + 1 - run;  // onset = first sample of the run
  }
  return std::nullopt;
}

AscendingPoints find_ascending_points(
    std::span<const std::span<const double>> windows,
    const AscendingConfig& config) {
  common::ScratchArena arena;
  return find_ascending_points(windows, config, arena);
}

dsp::Segment pad_segment(const dsp::Segment& segment, std::size_t limit,
                         double pad_s, double sample_rate_hz) {
  AF_EXPECT(sample_rate_hz > 0.0, "sample rate must be positive");
  const auto pad = static_cast<std::size_t>(
      std::lround(std::max(pad_s, 0.0) * sample_rate_hz));
  dsp::Segment out;
  out.begin = segment.begin >= pad ? segment.begin - pad : 0;
  out.end = std::min(segment.end + pad, limit);
  return out;
}

SegmentTiming segment_timing(std::span<const std::span<const double>> windows,
                             double sample_rate_hz,
                             const TimingConfig& config,
                             common::ScratchArena& arena) {
  AF_EXPECT(windows.size() >= 2, "segment_timing requires >= 2 channels");
  AF_EXPECT(windows.size() <= kMaxTimingChannels,
            "segment_timing supports at most kMaxTimingChannels");
  AF_EXPECT(sample_rate_hz > 0.0, "sample rate must be positive");

  const auto timing_frame = arena.frame();
  const AscendingPoints pts =
      find_ascending_points(windows, config.ascending, arena);
  SegmentTiming out;
  out.active.resize(windows.size(), false);
  out.tau_s.resize(windows.size(), 0.0);

  for (std::size_t c = 0; c < windows.size(); ++c) {
    out.active[c] = pts.ascending[c].has_value();
    if (!out.active[c]) continue;
    if (out.first_active < 0) out.first_active = static_cast<int>(c);
    out.last_active = static_cast<int>(c);
    const double energy = common::reduce::sum(windows[c]);
    const double weighted = common::reduce::weighted_index_sum(windows[c]);
    out.tau_s[c] =
        energy > 0.0 ? (weighted / energy) / sample_rate_hz : 0.0;
  }

  if (out.first_active >= 0 && out.last_active > out.first_active) {
    out.dt_outer_s =
        out.tau_s[static_cast<std::size_t>(out.last_active)] -
        out.tau_s[static_cast<std::size_t>(out.first_active)];
  }

  // Envelope hump count on the smoothed summed energy.
  const std::size_t n = windows.front().size();
  if (n > 0) {
    const std::span<double> envelope_raw = arena.alloc<double>(n);
    for (const auto& w : windows)
      common::reduce::accumulate(envelope_raw, w.first(std::min(n, w.size())));
    const auto smooth = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(config.envelope_smooth_s * sample_rate_hz)));
    const std::span<double> envelope = arena.alloc<double>(n);
    dsp::moving_average_into(envelope_raw, smooth, envelope);
    detail::envelope_stats(envelope, sample_rate_hz, config, out);
  }

  // Spatial asymmetry A(t) between the outer channels.
  if (n >= 8) {
    const auto a_smooth = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(config.asymmetry_smooth_s * sample_rate_hz)));
    const std::span<double> e1 = arena.alloc<double>(n);
    dsp::moving_average_into(windows.front(), a_smooth, e1);
    const std::span<double> e3 = arena.alloc<double>(n);
    dsp::moving_average_into(windows.back(), a_smooth, e3);
    const std::span<double> esum = arena.alloc<double>(n);
    // The sum's outer-channel terms are exactly e1/e3 (same window, same
    // smoothing); reusing them drops two of the five moving averages.
    // Accumulation stays in channel order, so esum keeps its bits.
    for (std::size_t c = 0; c < windows.size(); ++c) {
      if (c == 0) {
        common::reduce::accumulate(esum, e1);
      } else if (c + 1 == windows.size()) {
        common::reduce::accumulate(esum, e3);
      } else {
        const auto channel_frame = arena.frame();
        const std::span<double> es = arena.alloc<double>(n);
        dsp::moving_average_into(windows[c], a_smooth, es);
        common::reduce::accumulate(esum, es);
      }
    }
    detail::asymmetry_stats(e1, e3, esum, sample_rate_hz, config, arena, out);
  }
  return out;
}

void detail::envelope_stats(std::span<const double> envelope,
                            double sample_rate_hz, const TimingConfig& config,
                            SegmentTiming& out) {
  const double peak = common::reduce::max_with(envelope, 0.0);
  const double level = peak * config.peak_level;
  const auto support = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config.peak_support_s * sample_rate_hz)));
  const std::size_t count =
      dsp::count_peaks_at_least(envelope, support, level);
  // A monotone-edged single hump can have its maximum at the window edge
  // where find_peaks cannot see it; count at least one hump when any
  // energy is present.
  out.envelope_peaks = std::max<std::size_t>(count, peak > 0.0 ? 1 : 0);
}

void detail::asymmetry_stats(std::span<const double> e1,
                             std::span<const double> e3,
                             std::span<const double> esum,
                             double sample_rate_hz, const TimingConfig& config,
                             common::ScratchArena& arena, SegmentTiming& out) {
  const std::size_t n = esum.size();
  const auto asymmetry_frame = arena.frame();
  {
    const double esum_peak = common::reduce::max_with(esum, 0.0);
    const double eps =
        std::max(esum_peak * config.epsilon_fraction, 1e-12);

    const std::span<double> a = arena.alloc<double>(n);
    for (std::size_t i = 0; i < n; ++i)
      a[i] = (e3[i] - e1[i]) / (esum[i] + eps);

    // Asymmetry in *differential-energy* terciles. The weight of a sample
    // is |E_P3 − E_P1|: a scroll concentrates its differential energy at
    // the two zone crossings (first tercile on P1's side, last on P3's),
    // while common-mode events — clicks, lifts, and the centre crossings
    // of cyclic micro gestures — carry almost no differential weight.
    const std::span<double> w = arena.alloc<double>(n);
    double total_w = 0.0;
    {
      // Energy gate: low-energy onset/offset transients show deceptive
      // asymmetry (one zone lights up marginally earlier); exclude them.
      const double energy_gate = esum_peak * config.energy_gate_fraction;
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = esum[i] > energy_gate ? std::fabs(e3[i] - e1[i]) : 0.0;
        total_w += w[i];
      }
    }
    const double max_w = common::reduce::max_with(w, 0.0);
    detail::asymmetry_folds(a, w, total_w, max_w, sample_rate_hz, config, out);
  }
}

void detail::asymmetry_folds(std::span<const double> a,
                             std::span<const double> w, double total_w,
                             double max_w, double sample_rate_hz,
                             const TimingConfig& config, SegmentTiming& out) {
  const std::size_t n = a.size();
  if (total_w <= 0.0) return;

  double cum = 0.0;
  double bin_a[3] = {0, 0, 0}, bin_w[3] = {0, 0, 0}, bin_t[3] = {0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    // Zero-weight samples are exact no-ops on every accumulator here
    // (x += ±0.0 keeps the bits of the non-negative sums this loop
    // builds), so skipping them keeps the fold bit-identical while
    // making the pass O(gated samples).
    if (w[i] == 0.0) continue;
    const double frac = cum / total_w;
    const std::size_t bin = frac < (1.0 / 3.0) ? 0
                            : frac < (2.0 / 3.0) ? 1
                                                 : 2;
    bin_a[bin] += a[i] * w[i];
    bin_t[bin] += static_cast<double>(i) * w[i];
    bin_w[bin] += w[i];
    cum += w[i];
  }
  if (bin_w[0] > 0.0 && bin_w[2] > 0.0) {
    out.asymmetry_start = bin_a[0] / bin_w[0];
    out.asymmetry_end = bin_a[2] / bin_w[2];
    out.asymmetry_delta = out.asymmetry_end - out.asymmetry_start;
    // Transit time: between the weight-centroid times of the first and
    // last terciles, scaled to the full traversal (the terciles span
    // the middle ~2/3 of the differential mass).
    const double t0 = bin_t[0] / bin_w[0];
    const double t2 = bin_t[2] / bin_w[2];
    out.transition_s = 1.5 * std::max(0.0, t2 - t0) / sample_rate_hz;
  }

  // Reversal count over the differential-gated A path: only samples
  // carrying real differential weight contribute; direction changes
  // must retrace more than the hysteresis to count. A monotone sweep
  // (scroll) has 0 reversals; cyclic gestures (rub, circle) whose A
  // returns towards its start have >= 1.
  const double gate = max_w * config.gate_fraction;
  double lo = 0.0, hi = 0.0;
  bool started = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (w[i] <= gate) continue;
    if (!started) {
      started = true;
      lo = hi = a[i];
    } else {
      lo = std::min(lo, a[i]);
      hi = std::max(hi, a[i]);
    }
  }
  out.asymmetry_range = started ? hi - lo : 0.0;
  const double hysteresis = std::max(
      config.reversal_abs, config.reversal_rel * out.asymmetry_range);
  // Zigzag scan with hysteresis.
  int direction = 0;  // +1 rising, -1 falling, 0 undecided
  double path_min = 0.0, path_max = 0.0, extremum = 0.0;
  bool have_first = false;
  std::size_t reversals = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (w[i] <= gate) continue;
    const double v = a[i];
    if (!have_first) {
      have_first = true;
      path_min = path_max = v;
      continue;
    }
    if (direction == 0) {
      path_min = std::min(path_min, v);
      path_max = std::max(path_max, v);
      if (v >= path_min + hysteresis) {
        direction = +1;
        extremum = v;
      } else if (v <= path_max - hysteresis) {
        direction = -1;
        extremum = v;
      }
    } else if (direction > 0) {
      extremum = std::max(extremum, v);
      if (v <= extremum - hysteresis) {
        ++reversals;
        direction = -1;
        extremum = v;
      }
    } else {
      extremum = std::min(extremum, v);
      if (v >= extremum + hysteresis) {
        ++reversals;
        direction = +1;
        extremum = v;
      }
    }
  }
  out.asymmetry_reversals = reversals;
}

SegmentTiming segment_timing(std::span<const std::span<const double>> windows,
                             double sample_rate_hz,
                             const TimingConfig& config) {
  common::ScratchArena arena;
  return segment_timing(windows, sample_rate_hz, config, arena);
}

}  // namespace airfinger::core
