// Incremental timing analysis of the currently open segment.
//
// While a gesture is open, the early-direction probe recomputes
// segment_timing() over the whole open window on every frame — an O(n·w)
// cost (dominated by the brute moving averages and the quantile sorts)
// that grows with the window and is paid ~100×/s. OpenSegmentTiming turns
// that into an amortized O(1)–O(n) per frame by exploiting that the window
// only ever *grows at the right edge*:
//
//  - per-channel peaks and the energy / weighted-energy sums are running
//    left-to-right folds — appending one sample extends the identical fold;
//  - the noise-floor quantile reads a maintained sorted array (same value
//    multiset as quantile()'s sort of the window);
//  - a length-w moving average only changes for outputs whose window
//    touches the new sample — the trailing half-window — so the caches
//    recompute just those entries, with the same brute per-output loop
//    moving_average_into() uses. Everything *left* of that half-window is
//    final forever, which makes every left-to-right fold over a smoothed
//    array resumable: the fold state is checkpointed at the finalized
//    frontier and only the live tail is re-folded per frame;
//  - the asymmetry path a(t) and differential weights w(t) are stored and
//    only their live tail recomputed (full rebuild when the global
//    esum-peak — and with it ε and the energy gate — changes bits);
//  - ascending-point scans early-exit at the first confirmed run and are
//    resumed from the last scanned sample while the rise level's bits are
//    unchanged (raw windows are grow-only, so a found onset never moves);
//  - the envelope hump count freezes per-index peak decisions whose
//    ±support neighbourhood is final and recounts only the live tail
//    (full recount when the peak level changes bits).
//
// refresh() additionally *detects change*: it reports whether any
// decision-relevant statistic (the active-channel set and the asymmetry
// figures the detect/track router reads) changed bits since the previous
// frame. Appends that fall below the energy gate — the long decay tail of
// every gesture — leave all of them bit-identical, so the probe can prove
// "same verdict as last frame" without re-deriving it (DESIGN.md §16).
//
// Every derived scalar runs through the same detail:: helpers as
// segment_timing(), so the result is bit-identical to the batch analysis
// of the same window — locked in by timing_cache and probe tests.
#pragma once

#include <vector>

#include "core/ascending.hpp"

namespace airfinger::core {

/// Incrementally maintained segment_timing() over a grow-only window.
/// Not thread-safe; owned by one Session (or test) at a time. Buffers keep
/// their capacity across segments, so steady-state operation performs no
/// heap allocation once sized by the longest gesture seen.
class OpenSegmentTiming {
 public:
  OpenSegmentTiming() = default;

  /// Binds the cache to a channel count / sample rate / timing config.
  /// Must be called before the first append; restarts any open segment.
  void configure(std::size_t channels, double sample_rate_hz,
                 const TimingConfig& config);

  bool configured() const { return channel_count_ > 0; }
  const TimingConfig& config() const { return config_; }

  /// Starts a new open segment: drops all cached state, keeps capacity.
  void begin_segment();

  /// Appends one ΔRSS² sample per channel (the frame just pushed).
  void append(std::span<const double> deltas);

  /// Samples appended since begin_segment().
  std::size_t size() const { return n_; }

  /// Advances the decision-relevant state — the active-channel set and the
  /// asymmetry statistics the detect/track router reads — to the current
  /// window and reports whether any of it changed bits since the previous
  /// refresh of this segment. `windows` as for timing(). A `false` return
  /// proves the router would route this window exactly as it routed the
  /// previous one.
  bool refresh(std::span<const std::span<const double>> windows);

  /// Timing analysis of the full appended window; `windows[c]` must be
  /// channel c's ΔRSS² over exactly the appended samples (the open-segment
  /// view the deltas came from) and `energy` their per-sample channel sum,
  /// added in channel order from 0.0 (the view's energy). Bit-identical to
  /// segment_timing(windows, sample_rate_hz, config, arena).
  SegmentTiming timing(std::span<const std::span<const double>> windows,
                       std::span<const double> energy);

  /// Hints the cache lines the next append() writes (MultiSessionHost
  /// prefetches them a frame ahead).
  void prefetch_append() const;

  /// Verdict memo for the early-direction probe: true iff the last probe
  /// over this segment concluded "no emission" (detect-aimed). Combined
  /// with refresh() == false this lets the probe return its cached nullopt
  /// without routing. Reset by begin_segment()/configure().
  bool probe_verdict_no_emit() const { return probe_no_emit_; }
  void record_probe_verdict_no_emit(bool no_emit) { probe_no_emit_ = no_emit; }

 private:
  /// Recomputes the entries of `out` (a moving average of `x` with width
  /// `w`) that a grow from out.size() to x.size() invalidated.
  static void advance_moving_average(std::span<const double> x, std::size_t w,
                                     std::vector<double>& out);

  /// Envelope hump count (detail::envelope_stats) with frozen-prefix peak
  /// decisions over the summed channel energy; writes out.envelope_peaks.
  void envelope_stats_incremental(std::span<const double> energy,
                                  SegmentTiming& out);

  struct Channel {
    double peak = 0.0;      ///< Running max of the window.
    double energy = 0.0;    ///< Σ x[i], appended left to right.
    double weighted = 0.0;  ///< Σ i·x[i], appended left to right.
    std::vector<double> sorted;  ///< Window values, ascending (floor quantile).
    std::vector<double> smooth;  ///< MA(window, a_smooth), lazily advanced.
    // Ascending-point scan memo. Raw windows are grow-only, so while the
    // rise level keeps its bits a scan can resume where the last one
    // stopped (and a found onset is final — the *first* confirmed run
    // can never move under appends).
    double rise_level = 0.0;    ///< Level the memo was scanned at.
    bool rise_valid = false;    ///< rise_level holds a scanned-at value.
    bool onset_found = false;   ///< A confirmed run exists in [0, scanned).
    std::size_t scanned = 0;    ///< Samples consumed by the scan so far.
    std::size_t run = 0;        ///< Trailing ≥-level run length at scanned.
    bool active = false;        ///< Last refresh()'s activity verdict.
  };

  std::size_t channel_count_ = 0;
  double sample_rate_hz_ = 0.0;
  TimingConfig config_{};
  std::size_t env_smooth_ = 1;  ///< Envelope moving-average width, samples.
  std::size_t a_smooth_ = 1;    ///< Asymmetry moving-average width, samples.
  std::size_t peak_support_ = 1;  ///< Envelope hump support, samples.
  std::size_t n_ = 0;
  std::vector<Channel> channels_;
  std::vector<double> envelope_;      ///< MA(energy, env_smooth_).
  std::vector<double> esum_;          ///< Σ_c channels_[c].smooth.

  // ---- asymmetry-path state (a_smooth_ finalized frontier) -------------
  std::vector<double> a_;  ///< (e3−e1)/(esum+ε) over the window.
  std::vector<double> w_;  ///< Energy-gated |e3−e1| over the window.
  std::size_t aw_frontier_ = 0;   ///< Entries < frontier are final.
  double esum_peak_ckpt_ = 0.0;   ///< max fold of esum_[0, frontier) from 0.
  double total_w_ckpt_ = 0.0;     ///< sum fold of w_[0, frontier) from 0.
  double max_w_ckpt_ = 0.0;       ///< max fold of w_[0, frontier) from 0.
  double last_esum_peak_ = 0.0;   ///< ε / energy gate derive from this.
  bool have_esum_peak_ = false;
  // Cached asymmetry outputs (detail::asymmetry_folds of the last refresh
  // that saw a change).
  double asym_start_ = 0.0, asym_end_ = 0.0, asym_delta_ = 0.0;
  double asym_transition_s_ = 0.0, asym_range_ = 0.0;
  std::size_t asym_reversals_ = 0;

  // ---- refresh bookkeeping --------------------------------------------
  bool have_refresh_ = false;       ///< A refresh ran this segment.
  std::size_t last_refresh_n_ = 0;  ///< Window length of the last refresh.
  bool last_changed_ = true;        ///< Its change verdict (memoized).
  bool probe_no_emit_ = false;      ///< Last probe verdict was nullopt.

  // ---- envelope state (env_smooth_ finalized frontier) -----------------
  std::size_t env_frontier_ = 0;   ///< envelope_ entries < this are final.
  double env_peak_ckpt_ = 0.0;     ///< max fold of envelope_[0, frontier).
  double last_env_level_ = 0.0;    ///< Peak level the counts were taken at.
  bool have_env_level_ = false;
  std::size_t env_icut_ = 0;       ///< Peak decisions in [support, icut) frozen.
  std::size_t env_count_prefix_ = 0;  ///< Their accumulated count.
  std::size_t env_stats_n_ = 0;    ///< Window length of the last count.
  std::size_t env_peaks_memo_ = 0; ///< envelope_peaks at env_stats_n_.
  bool have_env_stats_ = false;
};

}  // namespace airfinger::core
