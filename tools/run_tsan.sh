#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under ThreadSanitizer and runs
# the thread-pool + core suites with a multi-thread pool. CI-runnable:
# exits non-zero on any data race or test failure.
#
# Usage: tools/run_tsan.sh [build-dir]   (default: build/aux/tsan — see
# the canonical build-dir layout in README.md)
# AF_THREADS controls the pool width under test (default 4).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-${ROOT}/build/aux/tsan}"

cmake -B "${BUILD}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAF_SANITIZE=thread
cmake --build "${BUILD}" -j --target parallel_test spsc_ring_test host_shard_test probe_test determinism_test core_test bundle_test compiled_forest_test fault_injection_test artifact_test obs_test obs_pipeline_test trace_test

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export AF_THREADS="${AF_THREADS:-4}"

"${BUILD}/tests/parallel_test"
# SPSC ring + sharded host: the release/acquire publish contract, the
# park/unpark fence handshake, and one feeder thread per shard hitting
# disjoint lanes concurrently are exactly what TSan exists to check.
"${BUILD}/tests/spsc_ring_test"
"${BUILD}/tests/host_shard_test"
"${BUILD}/tests/probe_test"
"${BUILD}/tests/determinism_test"
"${BUILD}/tests/core_test"
"${BUILD}/tests/bundle_test"
"${BUILD}/tests/compiled_forest_test"
"${BUILD}/tests/fault_injection_test"
# Artifact detectors + graded repair/escalation: per-session state only,
# but the storm sweeps replay through full Sessions so the held-frame
# resume path runs under the same instrumentation as the rest of core.
"${BUILD}/tests/artifact_test"
# Observability: per-session registry writes + host-side aggregation must
# be race-free at a multi-thread pool (the single-writer contract).
"${BUILD}/tests/obs_test"
"${BUILD}/tests/obs_pipeline_test"
# Gesture traces + per-shard telemetry: lane-fault post-mortems are
# captured on the worker thread and read after quiesce(); the shard stat
# registries are single-writer with the same handoff. TSan checks both.
"${BUILD}/tests/trace_test"

echo "tsan: all suites clean (AF_THREADS=${AF_THREADS})"
