// Output checks and per-layer measurements that replay sampled lanes
// outside the host: standalone core::Sessions for the byte-identity check
// and per-call session costs, and direct calls into the dsp, decision
// core, features, forest, and sensor layers on the workload's own frames
// and labelled windows.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/model_bundle.hpp"
#include "harness.hpp"
#include "workload.hpp"

namespace airfinger::perfbench {

/// True when both events are identical field by field (doubles compared
/// bitwise).
bool same_event(const core::GestureEvent& a, const core::GestureEvent& b);

/// True when both event streams are identical event by event. On
/// mismatch, `why` describes the first difference.
bool events_identical(const std::vector<core::GestureEvent>& a,
                      const std::vector<core::GestureEvent>& b,
                      std::string* why);

/// push_frame costs of a replay, split by what each call did.
struct SessionTimings {
  std::vector<double> idle_ns;    ///< No segment open, nothing emitted.
  std::vector<double> motion_ns;  ///< Segment open, no final event.
  std::vector<double> emit_ns;    ///< Returned a final (segment) event.
  std::vector<double> storm_ns;   ///< Any call on a storm-carrying lane.
};

struct ReplayCheck {
  bool ok = true;
  std::string error;
  double allocs_per_frame = 0.0;
  std::uint64_t frames = 0;       ///< Frames replayed (once per lane).
  /// Of those, frames a call found or left a segment open in, or that
  /// emitted a final event: the frames the decision core works on.
  std::uint64_t open_frames = 0;
};

/// The output check: replays each of `lanes` through a fresh standalone
/// Session (the workload's fault policy, the same frames) and requires
/// its events to equal `(*host_events)[lane]` (skipped when `host_events`
/// is null); then replays it again after reset() and requires zero heap
/// allocations over the frames and the same events. With `timings`, the
/// second replay also times and classifies every push_frame call.
ReplayCheck check_lanes(const std::shared_ptr<const core::ModelBundle>& bundle,
                        const Inputs& in, const std::vector<std::size_t>& lanes,
                        const std::vector<std::vector<core::GestureEvent>>*
                            host_events,
                        SessionTimings* timings);

/// Inputs of the layer share table, all in-path nanoseconds per frame on
/// standalone sessions replaying the sampled lanes. The stage figures are
/// the sums of the sessions' own stage-span histograms in the pass that
/// samples every frame (gesture tracing off); decide includes features and
/// forest, and ZEBRA is inside probe and decide.
struct LayerCosts {
  double session_on = 0.0;    ///< Whole push_frame, spans as the host runs them.
  double session_off = 0.0;   ///< Whole push_frame, spans runtime-disabled.
  double session_sampled = 0.0;  ///< Whole push_frame, every frame sampled.
  double ingest = 0.0;        ///< SBC + history push + segmenter.
  double timing_cache = 0.0;
  double probe = 0.0;
  double decide = 0.0;
  double features = 0.0;
  double forest = 0.0;
};

/// Times direct calls into each layer on the sampled lanes' frames and on
/// labelled windows of the pool (DataProcessor-processed), recording a
/// span per call, and reads the in-path stage times of sessions replaying
/// the lanes. Fills the dsp.*, decide.*, zebra.*, features.*, forest.*,
/// sensor.* and obs.* metrics and the share-table costs.
void measure_layers(const std::shared_ptr<const core::ModelBundle>& bundle,
                    const Inputs& in, const std::vector<std::size_t>& lanes,
                    bool artifact_detectors, SpanLog& spans,
                    std::map<std::string, double>& metrics, LayerCosts& costs);

}  // namespace airfinger::perfbench
