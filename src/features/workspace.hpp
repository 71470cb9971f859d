// Per-thread scratch state for allocation-free feature extraction.
//
// FeatureBank::extract_into() evaluates ~90 features, most of which need
// short-lived working arrays (canonical forms, envelopes, spectra, CWT
// rows). A Workspace bundles the ScratchArena those arrays come from; after
// the first extraction sizes its blocks, every further call is free of heap
// traffic. Ownership rule (DESIGN.md §11): one Workspace per thread, reached
// through thread_workspace() — every Session served on a thread and every
// training task it runs share it, and it is never shared across threads.
// Sharing is exact: each call opens its own arena frame and rewinds it on
// return, and every arena allocation is value-initialised, so no call can
// see what an earlier one left behind.
#pragma once

#include "common/arena.hpp"

namespace airfinger::obs {
class PipelineObservability;
}

namespace airfinger::features {

struct Workspace {
  common::ScratchArena arena;
  /// Optional stage tracing sink: a Session points it at its own
  /// observability for the length of one probe or decide call and
  /// restores it afterwards; nullptr for training workers and plain batch
  /// callers. The bundle's decision core records ZEBRA/feature/forest
  /// spans into it — record-only, never consulted for any decision.
  obs::PipelineObservability* obs = nullptr;
};

/// The calling thread's workspace, created on first use and freed when the
/// thread exits.
inline Workspace& thread_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

}  // namespace airfinger::features
