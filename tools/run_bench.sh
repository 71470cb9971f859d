#!/usr/bin/env bash
# Builds the Release benchmark targets and refreshes the tracked inference
# baseline: runs bench_inference (frames/sec, p50/p99 latency, allocations
# per frame via the counting allocator hook, per-stage latency breakdown
# from the observability spans) and bench_host_scaling, and writes
# BENCH_inference.json at the repository root with the schema
#   {frames_per_sec, p50_us, p99_us, allocs_per_frame, stages, ...}
# The full run also refreshes BENCH_robustness.json (bench_robustness:
# per-class artifact detection rates, clean-trace false-positive gate,
# repaired-vs-unrepaired event recall) whose quality gates are enforced by
# the bench itself.
#
# Usage: tools/run_bench.sh [--smoke] [build-dir]   (default:
# build/aux/bench — see the canonical build-dir layout in README.md;
# auxiliary trees live under build/aux/ so they can never collide with the
# CTestTestfile.cmake the tier-1 tree writes for same-named source dirs)
#   --smoke   tiny configuration for CI gating (run_checks.sh): verifies the
#             benches build and run and that the hot path stays at
#             0 allocs/frame with spans enabled; writes the report to a temp
#             file so the tracked baseline is not overwritten by an
#             unrepresentative run.
#
# The full (non-smoke) run additionally enforces the observability overhead
# budget: a second tree is built with both -DAF_OBS_SPANS=OFF and
# -DAF_OBS_TRACE=OFF (all hot-path instrumentation compiled out) and the
# instrumented build must reach at least (1 - AF_OBS_OVERHEAD_TOL) of its
# frames/sec (default tolerance 0.03 = 3%). Each build is benchmarked
# AF_BENCH_REPEATS times (default 3) and the best run represents it: a
# single run's frames/sec swings by double-digit percentages when the
# machine hiccups (one preempted probe inflates the tail), while the best
# of a few runs converges on the build's true capability — a real
# instrumentation tax shows up in every run, so the guard still catches it.
#
# BASELINE_FPS embeds the single-thread frames/sec of the path being
# compared against (default: the pre-compiled-forest hot path measured on
# the reference machine) so speedup_vs_baseline lands in the report.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  shift
fi
BUILD="${1:-${ROOT}/build/aux/bench}"
BASELINE_FPS="${BASELINE_FPS:-34467.7}"
OVERHEAD_TOL="${AF_OBS_OVERHEAD_TOL:-0.03}"
REPEATS="${AF_BENCH_REPEATS:-3}"

# Pulls a scalar field out of the bench's flat JSON report.
json_field() {
  sed -n "s/^  \"$2\": \([0-9eE.+-]*\),*$/\1/p" "$1" | head -n 1
}

# Fails unless the report says the measured window allocated nothing.
check_zero_allocs() {
  local allocs
  allocs="$(json_field "$1" allocs_per_frame)"
  if [[ -z "${allocs}" ]] || ! awk -v a="${allocs}" 'BEGIN{exit !(a == 0)}'; then
    echo "run_bench: FAIL — allocs_per_frame=${allocs:-missing} (expected 0)" >&2
    exit 1
  fi
  echo "run_bench: allocs_per_frame=0 confirmed (spans enabled)"
}

cmake -B "${BUILD}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=Release -DAF_OBS_SPANS=ON
cmake --build "${BUILD}" -j --target bench_inference bench_host_scaling bench_robustness

if [[ "${SMOKE}" == 1 ]]; then
  OUT="$(mktemp /tmp/BENCH_inference.smoke.XXXXXX.json)"
  HOST_OUT="$(mktemp /tmp/bench_host_scaling.smoke.XXXXXX.json)"
  ROBUST_OUT="$(mktemp /tmp/BENCH_robustness.smoke.XXXXXX.json)"
  "${BUILD}/bench/bench_inference" --passes 1 --streams 2 \
    --baseline-fps "${BASELINE_FPS}" --out "${OUT}"
  # Artifact-detection quality gates (per-class detection rate, clean-trace
  # false positives, 0 allocs/frame under storms): the bench enforces them
  # itself and exits non-zero on a miss.
  "${BUILD}/bench/bench_robustness" --smoke 1 --users 2 --sessions 1 \
    --reps 3 --out "${ROBUST_OUT}"
  echo "run_bench: smoke robustness gates: $(sed -n 's/^  \"gates\": \"\(.*\)\"$/\1/p' "${ROBUST_OUT}")"
  # 2000-session big workload with --min-speedup 1.0: the seeded
  # false-sharing/contention regression gate — on a >=4-hw-thread machine
  # a 4-shard host that is *slower* than 1 shard fails the smoke run
  # (the bench also enforces monotone scaling with 5% tolerance; on
  # narrower machines it records the gate as skipped).
  "${BUILD}/bench/bench_host_scaling" --streams 2 --rounds 1 \
    --big-streams 2000 --big-frames 128 --min-speedup 1.0 \
    --out "${HOST_OUT}"
  echo "run_bench: smoke contention gate: $(sed -n 's/^  \"scaling_gate\": \"\(.*\)\",$/\1/p' "${HOST_OUT}")"
  check_zero_allocs "${OUT}"
  echo "run_bench: smoke OK (report at ${OUT}, tracked baseline untouched)"
  exit 0
fi

# Runs the given bench binary REPEATS times and leaves the fastest run's
# report at $2 (its frames/sec in BEST_FPS). Extra arguments after $2 are
# passed through to the bench.
BEST_FPS=""
best_of() {
  local bin="$1" keep="$2" out fps
  shift 2
  BEST_FPS=""
  for ((i = 1; i <= REPEATS; ++i)); do
    out="$(mktemp /tmp/BENCH_inference.run.XXXXXX.json)"
    "${bin}" --passes 4 --streams 16 \
      --baseline-fps "${BASELINE_FPS}" --out "${out}" "$@"
    fps="$(json_field "${out}" frames_per_sec)"
    if [[ -z "${BEST_FPS}" ]] ||
        awk -v f="${fps}" -v b="${BEST_FPS}" 'BEGIN{exit !(f > b)}'; then
      BEST_FPS="${fps}"
      cp "${out}" "${keep}"
    fi
    rm -f "${out}"
  done
}

# Incremental-probe reference: the SAME build run with the batch probe
# (AF_PROBE_INCREMENTAL=0) gives the O(n·w)-per-probe per-stage p50s; the
# main run records probe_speedup_vs_ref against them so the event-driven
# probe's win stays visible in the tracked baseline.
PROBE_REF="$(mktemp /tmp/BENCH_inference.batchprobe.XXXXXX.json)"
AF_PROBE_INCREMENTAL=0 "${BUILD}/bench/bench_inference" --passes 2 \
  --streams 2 --baseline-fps "${BASELINE_FPS}" --out "${PROBE_REF}"

# The tracked baseline carries the 10k-stream sharded-host sweep
# (host_scaling_10k) alongside the single-session numbers.
best_of "${BUILD}/bench/bench_inference" "${ROOT}/BENCH_inference.json" \
  --big-streams 10000 --probe-ref-report "${PROBE_REF}"
FPS_ON="${BEST_FPS}"
echo "run_bench: probe speedup vs batch probe: $(sed -n 's/^  \"probe_speedup_vs_ref\": \(.*\),$/\1/p' "${ROOT}/BENCH_inference.json")"
# bench_host_scaling enforces its own scaling gates (bit identity across
# shard counts always; the >=1.6x 4-shard speedup and monotonicity floors
# whenever the hardware actually has >=4 threads) and exits non-zero on a
# regression, which fails this script via `set -e`.
HOST_REPORT="${BUILD}/bench_host_scaling.json"
"${BUILD}/bench/bench_host_scaling" --out "${HOST_REPORT}"
echo "run_bench: host scaling gate: $(sed -n 's/^  "scaling_gate": "\(.*\)",$/\1/p' "${HOST_REPORT}")"
check_zero_allocs "${ROOT}/BENCH_inference.json"

# The tracked artifact-detection quality baseline rides the same refresh:
# bench_robustness enforces its own gates (per-class detection rates,
# clean-trace false positives, 0 allocs/frame under storms) and exits
# non-zero on a miss, which fails this script via `set -e`.
"${BUILD}/bench/bench_robustness" --out "${ROOT}/BENCH_robustness.json"
echo "run_bench: robustness gates: $(sed -n 's/^  \"gates\": \"\(.*\)\"$/\1/p' "${ROOT}/BENCH_robustness.json")"

echo "== observability overhead guard (tolerance ${OVERHEAD_TOL}, best of ${REPEATS}) =="
NOSPANS_BUILD="${BUILD}-nospans"
NOSPANS_OUT="$(mktemp /tmp/BENCH_inference.nospans.XXXXXX.json)"
cmake -B "${NOSPANS_BUILD}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=Release \
  -DAF_OBS_SPANS=OFF -DAF_OBS_TRACE=OFF
cmake --build "${NOSPANS_BUILD}" -j --target bench_inference
best_of "${NOSPANS_BUILD}/bench/bench_inference" "${NOSPANS_OUT}"
FPS_OFF="${BEST_FPS}"
if [[ -z "${FPS_ON}" || -z "${FPS_OFF}" ]]; then
  echo "run_bench: FAIL — could not read frames_per_sec from the reports" >&2
  exit 1
fi
if ! awk -v on="${FPS_ON}" -v off="${FPS_OFF}" -v tol="${OVERHEAD_TOL}" \
    'BEGIN{exit !(on >= off * (1 - tol))}'; then
  echo "run_bench: FAIL — instrumented ${FPS_ON} fps vs compiled-out ${FPS_OFF} fps exceeds the ${OVERHEAD_TOL} overhead budget" >&2
  exit 1
fi
awk -v on="${FPS_ON}" -v off="${FPS_OFF}" \
  'BEGIN{printf "run_bench: span+trace overhead %.2f%% (instrumented %s fps, compiled-out %s fps) within budget\n", (1 - on / off) * 100, on, off}'
echo "run_bench: wrote ${ROOT}/BENCH_inference.json"
