// Ground-truth scoring of a stream's emissions against the synthesizer's
// motion labels.
//
// An emission is a gesture event a user would act on: a recognized detect
// gesture, a completed scroll, or an early scroll-direction verdict
// (rejections of unintentional motion are not emissions). It matches a
// label when its segment overlaps the label's interval and its class is
// right: the same detect gesture, or a scroll whose direction agrees with
// the labelled scroll kind. Only the scoring window counts: labels must
// lie wholly inside [window_begin, window_end), and emissions that overlap
// a label outside it (or whose segment starts outside it) are ignored.
#pragma once

#include <cstdint>
#include <vector>

#include "core/model_bundle.hpp"
#include "workload.hpp"

namespace airfinger::perfbench {

/// Tallies over one or more scored streams.
struct QualityTally {
  std::uint64_t gestures = 0;        ///< Labelled designed gestures scored.
  std::uint64_t gestures_found = 0;  ///< ... matched by a right emission.
  std::uint64_t emissions = 0;       ///< Gesture emissions scored.
  std::uint64_t emissions_right = 0; ///< ... matching a labelled gesture.
  /// Emissions overlapping no designed gesture: fired during idle
  /// stretches or unintentional motions.
  std::uint64_t false_triggers = 0;
  /// Scored frames outside every designed-gesture label.
  std::uint64_t idle_frames = 0;
  /// Per matched gesture: frames from labelled onset to the end of the
  /// frame that produced its first matching emission.
  std::vector<std::uint32_t> onset_to_emit;

  void merge(const QualityTally& other);
  double recall() const;
  double precision() const;
  double false_triggers_per_idle_min(double rate_hz) const;
  /// Median onset-to-emit frames (nearest rank). A median rather than a
  /// mean: the delays have a long tail (segments held open across idle
  /// noise), which moved the mean by 14% between seeds.
  double onset_to_emit_p50() const;
};

/// Scores one stream. `labels` are in the stream's frame indices;
/// `events` are its emissions in order; the window is
/// [window_begin, window_end).
QualityTally score_stream(const std::vector<Label>& labels,
                          const std::vector<core::GestureEvent>& events,
                          std::size_t window_begin, std::size_t window_end,
                          double rate_hz);

}  // namespace airfinger::perfbench
