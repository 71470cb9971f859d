#include "core/timing_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/prefetch.hpp"
#include "common/reduce.hpp"
#include "common/stats.hpp"
#include "dsp/filters.hpp"

namespace airfinger::core {

namespace {

/// Bitwise equality — the change detector's notion of "same value". Value
/// equality would identify -0.0 with 0.0 and never identify NaN with
/// itself; bit equality is exactly "every downstream fold reproduces its
/// bits".
inline bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

}  // namespace

void OpenSegmentTiming::configure(std::size_t channels,
                                  double sample_rate_hz,
                                  const TimingConfig& config) {
  AF_EXPECT(channels >= 2, "timing cache requires >= 2 channels");
  AF_EXPECT(channels <= kMaxTimingChannels,
            "timing cache supports at most kMaxTimingChannels");
  AF_EXPECT(sample_rate_hz > 0.0, "sample rate must be positive");
  const AscendingConfig& asc = config.ascending;
  AF_EXPECT(asc.rise_fraction > 0.0 && asc.rise_fraction < 1.0,
            "rise fraction must lie in (0,1)");
  AF_EXPECT(asc.floor_quantile >= 0.0 && asc.floor_quantile < 1.0,
            "floor quantile must lie in [0,1)");
  AF_EXPECT(asc.confirm_samples >= 1, "confirm_samples must be >= 1");
  AF_EXPECT(asc.silence_fraction >= 0.0 && asc.silence_fraction < 1.0,
            "silence fraction must lie in [0,1)");

  channel_count_ = channels;
  sample_rate_hz_ = sample_rate_hz;
  config_ = config;
  env_smooth_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config.envelope_smooth_s * sample_rate_hz)));
  a_smooth_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config.asymmetry_smooth_s * sample_rate_hz)));
  peak_support_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config.peak_support_s * sample_rate_hz)));
  channels_.resize(channel_count_);
  begin_segment();
}

void OpenSegmentTiming::begin_segment() {
  n_ = 0;
  for (auto& ch : channels_) {
    ch.peak = 0.0;
    ch.energy = 0.0;
    ch.weighted = 0.0;
    ch.sorted.clear();
    ch.smooth.clear();
    ch.rise_level = 0.0;
    ch.rise_valid = false;
    ch.onset_found = false;
    ch.scanned = 0;
    ch.run = 0;
    ch.active = false;
  }
  envelope_.clear();
  esum_.clear();
  a_.clear();
  w_.clear();
  aw_frontier_ = 0;
  esum_peak_ckpt_ = 0.0;
  total_w_ckpt_ = 0.0;
  max_w_ckpt_ = 0.0;
  last_esum_peak_ = 0.0;
  have_esum_peak_ = false;
  asym_start_ = asym_end_ = asym_delta_ = 0.0;
  asym_transition_s_ = asym_range_ = 0.0;
  asym_reversals_ = 0;
  have_refresh_ = false;
  last_refresh_n_ = 0;
  last_changed_ = true;
  probe_no_emit_ = false;
  env_frontier_ = 0;
  env_peak_ckpt_ = 0.0;
  last_env_level_ = 0.0;
  have_env_level_ = false;
  env_icut_ = peak_support_;
  env_count_prefix_ = 0;
  env_stats_n_ = 0;
  env_peaks_memo_ = 0;
  have_env_stats_ = false;
}

void OpenSegmentTiming::append(std::span<const double> deltas) {
  AF_EXPECT(configured(), "timing cache must be configured before use");
  AF_EXPECT(deltas.size() == channel_count_,
            "frame arity must match the configured channel count");
  for (std::size_t c = 0; c < channel_count_; ++c) {
    const double v = deltas[c];
    Channel& ch = channels_[c];
    ch.peak = std::max(ch.peak, v);
    ch.energy += v;
    ch.weighted += static_cast<double>(n_) * v;
    ch.sorted.insert(
        std::upper_bound(ch.sorted.begin(), ch.sorted.end(), v), v);
  }
  ++n_;
}

void OpenSegmentTiming::prefetch_append() const {
  common::prefetch_range(channels_.data(),
                         channels_.size() * sizeof(Channel));
  // The insert shifts the sorted tail; its last line is the one written
  // whatever the rank.
  for (const Channel& ch : channels_)
    if (!ch.sorted.empty()) common::prefetch(&ch.sorted.back());
}

void OpenSegmentTiming::advance_moving_average(std::span<const double> x,
                                               std::size_t w,
                                               std::vector<double>& out) {
  // An entry i of moving_average(x, w) reads x[max(0, i-half) .. i+half];
  // at a previous length m it was final iff i + half + 1 <= m. Recompute
  // only the trailing entries the grow invalidated, through the same
  // loop moving_average_into runs, so each revised entry is bit-identical
  // to a full pass.
  const std::size_t half = w / 2;
  const std::size_t m = out.size();
  const std::size_t revise = m > half ? m - half : 0;
  out.resize(x.size());
  dsp::moving_average_range_into(x, w, revise, out);
}

bool OpenSegmentTiming::refresh(
    std::span<const std::span<const double>> windows) {
  AF_EXPECT(configured(), "timing cache must be configured before use");
  AF_EXPECT(windows.size() == channel_count_,
            "window arity must match the configured channel count");
  for (const auto& w : windows)
    AF_EXPECT(w.size() == n_,
              "windows must cover exactly the appended samples");
  // Grow-only window: at an unchanged length the whole pass below is
  // idempotent, so re-entry (the probe refreshes, then timing() refreshes
  // again on the same frame) returns the memoized verdict.
  if (have_refresh_ && last_refresh_n_ == n_) return last_changed_;

  // Entering (or leaving, which cannot happen under grow-only) the n >= 8
  // regime switches the asymmetry analysis on — decision-relevant.
  bool changed = !have_refresh_ || (n_ >= 8) != (last_refresh_n_ >= 8);

  // Advance the lazy moving-average caches channel by channel, then
  // rebuild the invalidated tail of the summed smoothed energy (same
  // channel-order additions as the batch path's esum build).
  const std::size_t prev = channels_.front().smooth.size();
  for (std::size_t c = 0; c < channel_count_; ++c)
    advance_moving_average(windows[c], a_smooth_, channels_[c].smooth);
  const std::size_t half_a = a_smooth_ / 2;
  const std::size_t revise = prev > half_a ? prev - half_a : 0;
  esum_.resize(n_);
  std::fill(esum_.begin() + static_cast<std::ptrdiff_t>(revise), esum_.end(),
            0.0);
  for (std::size_t c = 0; c < channel_count_; ++c)
    common::reduce::accumulate(
        std::span<double>(esum_).subspan(revise),
        std::span<const double>(channels_[c].smooth).subspan(revise));

  // ---- active-channel set via memoized ascending-point scans ----------
  double strongest = 0.0;
  for (const auto& ch : channels_)
    strongest = std::max(strongest, ch.peak);
  const double silence_level = strongest * config_.ascending.silence_fraction;

  for (std::size_t c = 0; c < channel_count_; ++c) {
    Channel& ch = channels_[c];
    bool active = false;
    if (!(windows[c].empty() || ch.peak <= silence_level ||
          ch.peak <= 0.0)) {
      const double floor = common::quantile_sorted(
          ch.sorted, config_.ascending.floor_quantile);
      const double rise =
          floor + config_.ascending.rise_fraction * (ch.peak - floor);
      if (!(ch.rise_valid && same_bits(rise, ch.rise_level))) {
        ch.rise_valid = true;
        ch.rise_level = rise;
        ch.onset_found = false;
        ch.scanned = 0;
        ch.run = 0;
      }
      // detail::ascending_onset()'s scan, resumable: the raw window is
      // grow-only and the scan stops at the *first* confirmed run, so
      // while the rise level keeps its bits a found onset is final and
      // an unfinished scan continues from where it stopped.
      if (!ch.onset_found) {
        const auto& w = windows[c];
        std::size_t run = ch.run;
        std::size_t i = ch.scanned;
        for (; i < w.size(); ++i) {
          run = (w[i] >= ch.rise_level) ? run + 1 : 0;
          if (run >= config_.ascending.confirm_samples) {
            ch.onset_found = true;
            ++i;
            break;
          }
        }
        ch.scanned = i;
        ch.run = run;
      }
      active = ch.onset_found;
    }
    if (active != ch.active) changed = true;
    ch.active = active;
  }

  // ---- asymmetry path tail + change detection -------------------------
  // Summed-energy peak: resume the max fold from the finalized-frontier
  // checkpoint (entries left of the frontier can never be revised again).
  const std::size_t frontier = n_ > half_a ? n_ - half_a : 0;
  double m = esum_peak_ckpt_;
  for (std::size_t i = aw_frontier_; i < frontier; ++i)
    if (esum_[i] > m) m = esum_[i];
  const double peak_ckpt = m;
  for (std::size_t i = frontier; i < n_; ++i)
    if (esum_[i] > m) m = esum_[i];
  const double esum_peak = m;

  // ε and the energy gate derive from esum_peak: if its bits moved, every
  // stored a/w entry was computed against stale globals — rebuild all.
  const bool rebuild =
      !have_esum_peak_ || !same_bits(esum_peak, last_esum_peak_);
  const double eps =
      std::max(esum_peak * config_.epsilon_fraction, 1e-12);
  const double energy_gate = esum_peak * config_.energy_gate_fraction;
  const std::size_t old_size = a_.size();
  const std::size_t from = rebuild ? 0 : revise;
  if (rebuild) changed = true;
  a_.resize(n_);
  w_.resize(n_);
  const std::span<const double> e1{channels_.front().smooth};
  const std::span<const double> e3{channels_.back().smooth};
  const std::span<const double> esum{esum_};
  for (std::size_t i = from; i < n_; ++i) {
    const double na = (e3[i] - e1[i]) / (esum[i] + eps);
    const double nw = esum[i] > energy_gate ? std::fabs(e3[i] - e1[i]) : 0.0;
    if (!changed) {
      // A revised or appended sample moves the router's asymmetry
      // statistics only if it carries weight the folds can see: a
      // zero-weight sample is an exact no-op on every fold, whatever its
      // a value.
      if (i >= old_size) {
        if (nw != 0.0) changed = true;
      } else if (!same_bits(nw, w_[i]) ||
                 (nw != 0.0 && !same_bits(na, a_[i]))) {
        changed = true;
      }
    }
    a_[i] = na;
    w_[i] = nw;
  }

  // Advance the weight-fold checkpoints to the new frontier. The entries
  // folded in are final, and the two-step fold (prefix state, then live
  // tail) performs the same ascending additions/comparisons as a full
  // left-to-right pass — bit-identical by construction.
  double total_w = 0.0, max_w = 0.0;
  if (rebuild) {
    double tw = 0.0, mw = 0.0;
    for (std::size_t i = 0; i < frontier; ++i) {
      tw += w_[i];
      if (w_[i] > mw) mw = w_[i];
    }
    total_w_ckpt_ = tw;
    max_w_ckpt_ = mw;
  } else {
    for (std::size_t i = aw_frontier_; i < frontier; ++i) {
      total_w_ckpt_ += w_[i];
      if (w_[i] > max_w_ckpt_) max_w_ckpt_ = w_[i];
    }
  }
  total_w = total_w_ckpt_;
  max_w = max_w_ckpt_;
  for (std::size_t i = frontier; i < n_; ++i) {
    total_w += w_[i];
    if (w_[i] > max_w) max_w = w_[i];
  }
  aw_frontier_ = frontier;
  esum_peak_ckpt_ = peak_ckpt;
  last_esum_peak_ = esum_peak;
  have_esum_peak_ = true;

  // Re-derive the asymmetry outputs only when an input bit moved; on
  // quiescent frames (the decay tail of every gesture, where appended
  // samples fall below the energy gate) the cached figures are provably
  // the ones a full recomputation would produce.
  if (changed) {
    asym_start_ = asym_end_ = asym_delta_ = 0.0;
    asym_transition_s_ = asym_range_ = 0.0;
    asym_reversals_ = 0;
    if (n_ >= 8) {
      SegmentTiming folds;
      detail::asymmetry_folds(a_, w_, total_w, max_w, sample_rate_hz_,
                              config_, folds);
      asym_start_ = folds.asymmetry_start;
      asym_end_ = folds.asymmetry_end;
      asym_delta_ = folds.asymmetry_delta;
      asym_transition_s_ = folds.transition_s;
      asym_range_ = folds.asymmetry_range;
      asym_reversals_ = folds.asymmetry_reversals;
    }
  }

  have_refresh_ = true;
  last_refresh_n_ = n_;
  last_changed_ = changed;
  return changed;
}

void OpenSegmentTiming::envelope_stats_incremental(
    std::span<const double> energy, SegmentTiming& out) {
  if (have_env_stats_ && env_stats_n_ == n_) {
    out.envelope_peaks = env_peaks_memo_;
    return;
  }
  AF_EXPECT(energy.size() == n_,
            "energy must cover exactly the appended samples");
  advance_moving_average(energy, env_smooth_, envelope_);
  const std::size_t half_env = env_smooth_ / 2;
  const std::size_t frontier = n_ > half_env ? n_ - half_env : 0;

  // Envelope peak: resume the max fold from the finalized frontier.
  double m = env_peak_ckpt_;
  for (std::size_t i = env_frontier_; i < frontier; ++i)
    if (envelope_[i] > m) m = envelope_[i];
  env_peak_ckpt_ = m;
  double peak = m;
  for (std::size_t i = frontier; i < n_; ++i)
    if (envelope_[i] > peak) peak = envelope_[i];
  env_frontier_ = frontier;

  const double level = peak * config_.peak_level;
  const std::size_t support = peak_support_;
  const std::span<const double> envelope{envelope_};

  // A peak decision at index i reads envelope[i ± support]; it is frozen
  // once that whole neighbourhood lies left of the frontier. `icut` is
  // the exclusive end of the frozen-decision region.
  const std::size_t icut =
      frontier > 2 * support ? frontier - support : support;
  if (!(have_env_level_ && same_bits(level, last_env_level_))) {
    // The comparison level moved: every frozen decision is stale. Recount
    // the frozen prefix in one pass (slice counts are exact — each
    // per-index decision reads only its own ±support neighbourhood).
    env_count_prefix_ = dsp::count_peaks_at_least(
        envelope.first(std::min(n_, icut + support)), support, level);
    env_icut_ = icut;
    have_env_level_ = true;
    last_env_level_ = level;
  } else if (icut > env_icut_) {
    // Freeze the decisions that became final since the last count.
    env_count_prefix_ += dsp::count_peaks_at_least(
        envelope.subspan(env_icut_ - support,
                         (icut + support) - (env_icut_ - support)),
        support, level);
    env_icut_ = icut;
  }
  // Live tail: decisions in [env_icut_, n - support) may still change.
  std::size_t count = env_count_prefix_;
  count += dsp::count_peaks_at_least(envelope.subspan(env_icut_ - support),
                                     support, level);
  // A monotone-edged single hump can have its maximum at the window edge
  // where find_peaks cannot see it; count at least one hump when any
  // energy is present (mirrors detail::envelope_stats).
  out.envelope_peaks = std::max<std::size_t>(count, peak > 0.0 ? 1 : 0);
  env_peaks_memo_ = out.envelope_peaks;
  env_stats_n_ = n_;
  have_env_stats_ = true;
}

SegmentTiming OpenSegmentTiming::timing(
    std::span<const std::span<const double>> windows,
    std::span<const double> energy) {
  refresh(windows);

  SegmentTiming out;
  out.active.resize(channel_count_, false);
  out.tau_s.resize(channel_count_, 0.0);
  for (std::size_t c = 0; c < channel_count_; ++c) {
    const Channel& ch = channels_[c];
    out.active[c] = ch.active;
    if (!ch.active) continue;
    if (out.first_active < 0) out.first_active = static_cast<int>(c);
    out.last_active = static_cast<int>(c);
    out.tau_s[c] = ch.energy > 0.0
                       ? (ch.weighted / ch.energy) / sample_rate_hz_
                       : 0.0;
  }
  if (out.first_active >= 0 && out.last_active > out.first_active) {
    out.dt_outer_s =
        out.tau_s[static_cast<std::size_t>(out.last_active)] -
        out.tau_s[static_cast<std::size_t>(out.first_active)];
  }

  if (n_ > 0) envelope_stats_incremental(energy, out);
  if (n_ >= 8) {
    out.asymmetry_start = asym_start_;
    out.asymmetry_end = asym_end_;
    out.asymmetry_delta = asym_delta_;
    out.transition_s = asym_transition_s_;
    out.asymmetry_range = asym_range_;
    out.asymmetry_reversals = asym_reversals_;
  }
  return out;
}

}  // namespace airfinger::core
