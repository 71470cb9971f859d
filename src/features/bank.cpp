#include "features/bank.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "common/reduce.hpp"
#include "common/stats.hpp"
#include "dsp/autocorr.hpp"
#include "dsp/fft.hpp"
#include "dsp/filters.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/xcorr.hpp"
#include "features/measures.hpp"

namespace airfinger::features {

namespace {

/// Marks the Table I families reused by the interference filter.
const char* kInterferenceFamilies[] = {
    "std",        "variance",        "sample_entropy",
    "kurtosis",   "num_peaks_s3",    "mean_abs_change",
    "log_energy", "log_length",      "trend_slope",
};

bool is_interference_family(const std::string& name) {
  for (const char* f : kInterferenceFamilies)
    if (name == f) return true;
  return false;
}

}  // namespace

FeatureBank::FeatureBank(FeatureBankOptions options)
    : options_(std::move(options)) {
  AF_EXPECT(options_.canonical_length >= 16,
            "canonical length too short for the configured lags");
  AF_EXPECT(options_.acf_lags >= 1 && options_.pacf_lags >= 1 &&
                options_.ar_order >= 1,
            "lag orders must be >= 1");
  AF_EXPECT(options_.envelope_smooth >= 1,
            "envelope smoothing must be >= 1");

  // Sample each CWT wavelet once; ±5 widths of support matches
  // dsp::cwt_row_into, so the precomputed taps are the exact values the
  // per-frame path would have produced.
  cwt_wavelets_.reserve(options_.cwt_widths.size());
  for (const double a : options_.cwt_widths) {
    const auto half = static_cast<std::size_t>(std::ceil(5.0 * a));
    cwt_wavelets_.push_back(dsp::ricker_wavelet(2 * half + 1, a));
  }

  // Assemble the name list in the exact order extract() fills values.
  auto add = [this](const std::string& n) { names_.push_back(n); };

  // -- Shape features on the canonical (log1p + resampled + z-normalized)
  //    summed-energy form.
  add("std");
  add("variance");
  add("skewness");
  add("kurtosis");
  add("count_above_mean");
  add("count_below_mean");
  add("first_loc_max");
  add("first_loc_min");
  add("last_loc_max");
  add("last_loc_min");
  add("longest_strike_above_mean");
  add("longest_strike_below_mean");
  add("mean_abs_change");
  add("cid");
  add("sample_entropy");
  add("approx_entropy");
  add("adf_stat");
  add("trend_slope");
  add("trend_intercept");
  for (std::size_t k = 1; k <= options_.acf_lags; ++k)
    add("acf_l" + std::to_string(k));
  // Fractional-lag autocorrelation: a double gesture repeats its waveform
  // at half the segment, a single one does not — acf at n/2 (and n/4, n/3
  // for faster repetition rates) fingerprints the repetition count
  // independent of absolute duration.
  add("acf_frac_q4");
  add("acf_frac_q3");
  add("acf_frac_q2");
  for (std::size_t k = 1; k <= options_.pacf_lags; ++k)
    add("pacf_l" + std::to_string(k));
  for (std::size_t k = 1; k <= options_.ar_order; ++k)
    add("ar_c" + std::to_string(k));
  for (std::size_t lag : options_.c3_lags)
    add("c3_l" + std::to_string(lag));
  for (std::size_t lag : options_.tra_lags)
    add("tra_l" + std::to_string(lag));
  for (std::size_t s : options_.peak_supports)
    add("num_peaks_s" + std::to_string(s));
  for (double q : options_.quantiles)
    add("quantile_" + std::to_string(static_cast<int>(q * 100)));
  for (std::size_t c = 0; c < options_.energy_chunks; ++c)
    add("energy_chunk_" + std::to_string(c));

  // -- Envelope burst structure.
  add("env_burst_count");
  add("env_null_fraction");
  add("env_max_burst_len");
  add("env_burst_len_cv");
  add("env_first_burst_pos");
  add("env_last_burst_end");
  add("env_peak_count");
  add("env_period_lag");
  add("env_period_strength");

  // -- Frequency domain.
  for (std::size_t k = 0; k < options_.fft_coefficients; ++k)
    add("fft_mag_" + std::to_string(k));
  add("spectral_centroid");
  add("low_band_ratio");
  for (std::size_t w = 0; w < options_.cwt_widths.size(); ++w)
    add("cwt_energy_w" + std::to_string(w));
  for (std::size_t w = 0; w < options_.cwt_widths.size(); ++w)
    add("cwt_max_w" + std::to_string(w));

  // -- Cross-channel (spatial) features.
  if (options_.cross_channel) {
    add("xc_energy_frac_first");
    add("xc_energy_frac_mid");
    add("xc_energy_frac_last");
    add("xc_corr_outer");
    add("xc_corr_first_mid");
    add("xc_corr_mid_last");
    add("xc_asym_delta");
    add("xc_asym_range");
    add("xc_asym_mean");
    add("xc_tau_spread");
  }

  // -- Scale features on the raw summed segment (log-compressed).
  add("log_length");
  add("log_energy");
  add("log_peak");
  add("log_mean");
  add("coeff_variation");

  for (std::size_t i = 0; i < names_.size(); ++i)
    if (is_interference_family(names_[i])) interference_indices_.push_back(i);
  AF_ASSERT(interference_indices_.size() == 9,
            "interference feature subset must have 9 entries");
}

std::vector<double> FeatureBank::extract(
    std::span<const double> segment) const {
  const std::span<const double> one[] = {segment};
  return extract(std::span<const std::span<const double>>(one));
}

std::vector<double> FeatureBank::extract(
    std::span<const std::span<const double>> channels) const {
  Workspace workspace;
  std::vector<double> out(names_.size(), 0.0);
  extract_into(channels, workspace, out);
  return out;
}

void FeatureBank::extract_into(
    std::span<const std::span<const double>> channels, Workspace& workspace,
    std::span<double> out) const {
  AF_EXPECT(!channels.empty(), "extract requires at least one channel");
  AF_EXPECT(out.size() == names_.size(),
            "extract output size must match feature_count()");
  const std::size_t n = channels.front().size();
  AF_EXPECT(n >= 4, "segment too short for feature extraction");
  for (const auto& ch : channels)
    AF_EXPECT(ch.size() == n, "channels must be equal length");

  common::ScratchArena& arena = workspace.arena;
  const auto extraction_frame = arena.frame();

  // Summed energy across channels, one contiguous accumulate per channel.
  const std::span<double> energy = arena.alloc<double>(n);
  for (const auto& ch : channels)
    common::reduce::accumulate(energy, ch);

  // Canonical form: log compression, fixed length, zero mean, unit var.
  // The linear resampler reads only the two samples bracketing each
  // output position, so the log compression is applied lazily to exactly
  // those — the same resample_linear_into interpolation arithmetic, hence
  // bit-identical to compressing all n samples first, at ~2×canonical
  // log1p calls instead of n.
  const std::span<double> resampled =
      arena.alloc<double>(options_.canonical_length);
  const auto logc = [&energy](std::size_t i) {
    return std::log1p(std::max(energy[i], 0.0));
  };
  if (resampled.size() == 1) {
    resampled[0] = logc(0);
  } else {
    for (std::size_t i = 0; i < resampled.size(); ++i) {
      const double pos = static_cast<double>(i) * static_cast<double>(n - 1) /
                         static_cast<double>(resampled.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const double frac = pos - static_cast<double>(lo);
      resampled[i] = (lo + 1 < n)
                         ? logc(lo) * (1.0 - frac) + logc(lo + 1) * frac
                         : logc(lo);
    }
  }
  const std::span<double> canon =
      arena.alloc<double>(options_.canonical_length);
  common::znormalize_into(resampled, canon);
  const double n_canon = static_cast<double>(canon.size());

  std::size_t filled = 0;
  auto push = [&out, &filled](double v) {
    out[filled++] = std::isfinite(v) ? v : 0.0;
  };

  // Shape features. Note: std/variance of the canonical form are trivially
  // 1 unless the raw segment was constant (then 0) — they act as a
  // degeneracy flag; the interference filter's variance signal comes from
  // the scale block below combined with this flag.
  push(common::stddev(canon));
  push(common::variance(canon));
  push(common::skewness(canon));
  push(common::kurtosis(canon));
  push(static_cast<double>(common::count_above_mean(canon)) / n_canon);
  push(static_cast<double>(common::count_below_mean(canon)) / n_canon);
  push(static_cast<double>(common::argmax(canon)) / n_canon);
  push(static_cast<double>(common::argmin(canon)) / n_canon);
  push(static_cast<double>(common::last_argmax(canon)) / n_canon);
  push(static_cast<double>(common::last_argmin(canon)) / n_canon);
  push(static_cast<double>(common::longest_strike_above_mean(canon)) /
       n_canon);
  push(static_cast<double>(common::longest_strike_below_mean(canon)) /
       n_canon);
  push(common::mean_abs_change(canon));
  push(cid_ce(canon, /*normalize=*/false));  // canon is already normalized
  {
    // SampEn and ApEn share every template comparison; the fused sweep
    // is bit-identical to the two separate calls.
    const auto [sampen, apen] = entropy_pair(canon, arena);
    push(sampen);
    push(apen);
  }
  push(adf_statistic(canon));
  {
    const auto [slope, intercept] = common::linear_trend(canon);
    push(slope * n_canon);  // slope per full segment, scale-free
    push(intercept);
  }
  {
    const auto frame = arena.frame();
    const std::span<double> a = arena.alloc<double>(options_.acf_lags + 1);
    dsp::acf_into(canon, arena, a);
    for (std::size_t k = 1; k <= options_.acf_lags; ++k) push(a[k]);
    push(dsp::autocorrelation(canon, canon.size() / 4));
    push(dsp::autocorrelation(canon, canon.size() / 3));
    push(dsp::autocorrelation(canon, canon.size() / 2));
  }
  {
    const auto frame = arena.frame();
    const std::span<double> p = arena.alloc<double>(options_.pacf_lags);
    dsp::pacf_into(canon, arena, p);
    for (double v : p) push(v);
  }
  {
    const auto frame = arena.frame();
    const std::span<double> ar = arena.alloc<double>(options_.ar_order);
    dsp::ar_coefficients_into(canon, arena, ar);
    for (double v : ar) push(v);
  }
  for (std::size_t lag : options_.c3_lags) push(c3(canon, lag));
  for (std::size_t lag : options_.tra_lags)
    push(time_reversal_asymmetry(canon, lag));
  for (std::size_t s : options_.peak_supports)
    push(static_cast<double>(dsp::count_peaks(canon, s)));
  {
    // One sort serves every quantile: quantile_sorted over the sorted copy
    // is bit-identical to quantile_with's per-q copy+sort of the same
    // multiset.
    const auto frame = arena.frame();
    const std::span<double> sorted = arena.alloc<double>(canon.size());
    std::copy(canon.begin(), canon.end(), sorted.begin());
    std::sort(sorted.begin(), sorted.end());
    for (double q : options_.quantiles)
      push(common::quantile_sorted(sorted, q));
  }
  for (std::size_t c = 0; c < options_.energy_chunks; ++c)
    push(energy_ratio_by_chunks(canon, options_.energy_chunks, c));

  // Envelope burst structure (on the smoothed canonical energy, linear
  // scale so nulls are real nulls).
  {
    const auto frame = arena.frame();
    const std::span<double> env_raw =
        arena.alloc<double>(options_.canonical_length);
    dsp::resample_linear_into(energy, env_raw);
    const std::span<double> env =
        arena.alloc<double>(options_.canonical_length);
    dsp::moving_average_into(env_raw, options_.envelope_smooth, env);
    double peak = common::reduce::max_with(env, 0.0);
    if (peak <= 0.0) peak = 1.0;
    const double burst_level = 0.30 * peak;
    const double null_level = 0.08 * peak;

    // Bursts are disjoint above-level runs, so at most len/2 + 1 fit.
    const std::span<std::size_t> burst_begin =
        arena.alloc<std::size_t>(env.size() / 2 + 1);
    const std::span<std::size_t> burst_end =
        arena.alloc<std::size_t>(env.size() / 2 + 1);
    std::size_t burst_count = 0;
    std::size_t nulls = 0;
    bool inside = false;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < env.size(); ++i) {
      if (env[i] < null_level) ++nulls;
      const bool above = env[i] >= burst_level;
      if (above && !inside) {
        inside = true;
        begin = i;
      } else if (!above && inside) {
        inside = false;
        burst_begin[burst_count] = begin;
        burst_end[burst_count] = i;
        ++burst_count;
      }
    }
    if (inside) {
      burst_begin[burst_count] = begin;
      burst_end[burst_count] = env.size();
      ++burst_count;
    }

    push(static_cast<double>(burst_count));
    push(static_cast<double>(nulls) / n_canon);
    double max_len = 0.0, mean_len = 0.0, var_len = 0.0;
    for (std::size_t b = 0; b < burst_count; ++b) {
      const double len = static_cast<double>(burst_end[b] - burst_begin[b]);
      max_len = std::max(max_len, len);
      mean_len += len;
    }
    if (burst_count > 0) mean_len /= static_cast<double>(burst_count);
    for (std::size_t b = 0; b < burst_count; ++b) {
      const double len = static_cast<double>(burst_end[b] - burst_begin[b]);
      var_len += (len - mean_len) * (len - mean_len);
    }
    if (burst_count > 0) var_len /= static_cast<double>(burst_count);
    push(max_len / n_canon);
    push(mean_len > 0.0 ? std::sqrt(var_len) / mean_len : 0.0);
    push(burst_count == 0
             ? 0.0
             : static_cast<double>(burst_begin[0]) / n_canon);
    push(burst_count == 0
             ? 0.0
             : static_cast<double>(burst_end[burst_count - 1]) / n_canon);
    push(static_cast<double>(dsp::count_peaks(env, 4)));

    // Dominant periodicity of the envelope: strongest ACF peak beyond a
    // short dead zone. Double gestures repeat; singles do not.
    const std::size_t max_lag = env.size() / 2;
    double best_acf = 0.0;
    std::size_t best_lag = 0;
    if (max_lag >= 6) {
      const std::span<double> acf = arena.alloc<double>(max_lag + 1);
      dsp::acf_into(env, arena, acf);
      for (std::size_t lag = 5; lag <= max_lag; ++lag) {
        if (acf[lag] > best_acf) {
          best_acf = acf[lag];
          best_lag = lag;
        }
      }
    }
    push(static_cast<double>(best_lag) / n_canon);
    push(best_acf);
  }

  // Frequency domain: power-normalized magnitudes so amplitude cancels.
  // One spectrum of the canonical form feeds all three spectral features —
  // the FFT is deterministic, so the shared values match the reference
  // path's three independent transforms bit for bit.
  {
    const auto frame = arena.frame();
    const std::span<const std::complex<double>> spec =
        dsp::fft_real_scratch(canon, arena);
    const std::span<double> mags =
        arena.alloc<double>(options_.fft_coefficients);
    dsp::fft_magnitudes_from(spec, mags);
    const double total = common::reduce::sum(mags);
    for (double m : mags) push(total > 0.0 ? m / total : 0.0);
    push(canon.size() < 2 ? 0.0 : dsp::spectral_centroid_from(spec));
    push(canon.size() < 2 ? 0.0
                          : dsp::spectral_energy_ratio_from(spec, 0.2));
  }
  {
    const auto frame = arena.frame();
    const std::span<double> energies =
        arena.alloc<double>(options_.cwt_widths.size());
    const std::span<double> maxima =
        arena.alloc<double>(options_.cwt_widths.size());
    const std::span<double> row = arena.alloc<double>(canon.size());
    double total = 0.0;
    for (std::size_t w = 0; w < options_.cwt_widths.size(); ++w) {
      dsp::cwt_row_with_wavelet_into(canon, cwt_wavelets_[w], row);
      const double e = common::energy(row);
      energies[w] = e;
      total += e;
      double peak = 0.0;
      for (double v : row) peak = std::max(peak, std::fabs(v));
      maxima[w] = peak;
    }
    for (double e : energies) push(total > 0.0 ? e / total : 0.0);
    for (double m : maxima) push(m);
  }

  // Cross-channel spatial features.
  if (options_.cross_channel) {
    if (channels.size() >= 2) {
      const auto frame = arena.frame();
      // Bounded cost: the smoothing window below grows with the segment
      // (nb/16), making this block O(n²/16) — fine for gestures, quadratic
      // blow-up for multi-second scrolls. Above the cap every channel is
      // decimated with the deterministic linear resampler first; the ten
      // features here are scale-free shape ratios, so they survive the
      // decimation, and every segment at or under the cap (all training
      // and test gestures) keeps its exact historical bits.
      std::span<const std::span<const double>> xch = channels;
      std::size_t nb = n;
      const std::size_t cap = options_.cross_channel_cap;
      if (cap > 0 && n > cap) {
        nb = std::max<std::size_t>(cap, 4);
        const std::span<std::span<const double>> views =
            arena.alloc<std::span<const double>>(channels.size());
        for (std::size_t c = 0; c < channels.size(); ++c) {
          const std::span<double> buf = arena.alloc<double>(nb);
          dsp::resample_linear_into(channels[c], buf);
          views[c] = buf;
        }
        xch = views;
      }
      const auto& first = xch.front();
      const auto& last = xch.back();
      const std::size_t mid_idx = xch.size() / 2;
      const auto& mid = xch[mid_idx];

      // Three independent serial accumulators (the former interleaved loop
      // kept them separate too, so splitting is bit-identical).
      const double e_first = common::reduce::sum(first);
      const double e_mid = common::reduce::sum(mid);
      const double e_last = common::reduce::sum(last);
      // e_total accumulates continuously across channels in channel order —
      // summing per-channel subtotals would reassociate it.
      double e_total = 0.0;
      for (const auto& ch : xch)
        for (double v : ch) e_total += v;
      if (e_total <= 0.0) e_total = 1.0;
      push(e_first / e_total);
      push(e_mid / e_total);
      push(e_last / e_total);

      const std::size_t smooth = std::max<std::size_t>(3, nb / 16);
      // One contiguous SoA block for the three smoothed channels, so the
      // kernels below see adjacent spans.
      const std::span<double> smoothed = arena.alloc<double>(3 * nb);
      const std::span<double> s_first = smoothed.subspan(0, nb);
      const std::span<double> s_mid = smoothed.subspan(nb, nb);
      const std::span<double> s_last = smoothed.subspan(2 * nb, nb);
      dsp::moving_average_into(first, smooth, s_first);
      dsp::moving_average_into(mid, smooth, s_mid);
      dsp::moving_average_into(last, smooth, s_last);
      push(nb >= 2 ? common::pearson(s_first, s_last) : 0.0);
      push(nb >= 2 ? common::pearson(s_first, s_mid) : 0.0);
      push(nb >= 2 ? common::pearson(s_mid, s_last) : 0.0);

      // Asymmetry sweep statistics (same construction as the router's).
      const std::span<double> esum = arena.alloc<double>(nb);
      for (std::size_t i = 0; i < nb; ++i)
        esum[i] = s_first[i] + s_mid[i] + s_last[i];
      const double esum_peak = common::reduce::max_with(esum, 0.0);
      const double eps = std::max(esum_peak * 0.05, 1e-12);
      double w_total = 0.0, a_mean = 0.0;
      double a_min = 0.0, a_max = 0.0, a_w_early = 0.0, a_w_late = 0.0;
      double w_early = 0.0, w_late = 0.0, t_centroid_num = 0.0;
      bool have = false;
      const double energy_gate = esum_peak * 0.08;
      for (std::size_t i = 0; i < nb; ++i) {
        const double a = (s_last[i] - s_first[i]) / (esum[i] + eps);
        const double w =
            esum[i] > energy_gate ? std::fabs(s_last[i] - s_first[i]) : 0.0;
        if (w <= 0.0) continue;
        if (!have) {
          a_min = a_max = a;
          have = true;
        }
        a_min = std::min(a_min, a);
        a_max = std::max(a_max, a);
        a_mean += a * w;
        w_total += w;
        t_centroid_num += static_cast<double>(i) * w;
        if (i < nb / 2) {
          a_w_early += a * w;
          w_early += w;
        } else {
          a_w_late += a * w;
          w_late += w;
        }
      }
      const double delta =
          (w_early > 0.0 && w_late > 0.0)
              ? a_w_late / w_late - a_w_early / w_early
              : 0.0;
      push(delta);
      push(have ? a_max - a_min : 0.0);
      push(w_total > 0.0 ? a_mean / w_total : 0.0);

      // τ spread: energy-centroid time difference of the outer channels,
      // normalized by the window length. Four independent accumulators,
      // each still in ascending-i order.
      const double tau_first = common::reduce::weighted_index_sum(s_first);
      const double ef = common::reduce::sum(s_first);
      const double tau_last = common::reduce::weighted_index_sum(s_last);
      const double el = common::reduce::sum(s_last);
      const double spread =
          (ef > 0.0 && el > 0.0)
              ? (tau_last / el - tau_first / ef) / static_cast<double>(nb)
              : 0.0;
      push(spread);
    } else {
      for (int i = 0; i < 10; ++i) push(0.0);
    }
  }

  // Scale features on the raw summed segment. The mean used to be
  // recomputed three times (mean, then twice inside stddev); one mean +
  // one centred pass runs the identical arithmetic in the identical
  // order, so the bits are unchanged.
  push(std::log(static_cast<double>(n)));
  push(std::log1p(common::energy(energy)));
  push(std::log1p(common::max(energy)));
  {
    const double m = common::mean(energy);
    push(std::log1p(std::fabs(m)));
    double s = 0.0;
    for (double v : energy) s += (v - m) * (v - m);
    const double sd = std::sqrt(s / static_cast<double>(n));
    push(m != 0.0 ? sd / std::fabs(m) : 0.0);
  }

  AF_ASSERT(filled == names_.size(),
            "feature vector arity diverged from the name list");
}

}  // namespace airfinger::features
