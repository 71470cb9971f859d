#!/usr/bin/env bash
# Builds the Release benchmark targets and refreshes the tracked inference
# baseline: runs bench_inference (frames/sec, p50/p99 latency, allocations
# per frame via the counting allocator hook, per-stage latency breakdown
# from the observability spans) and bench_host_scaling, and writes
# BENCH_inference.json at the repository root with the schema
#   {frames_per_sec, best_pass_fps_obs_on, best_pass_fps_obs_off, p50_us,
#    p99_us, allocs_per_frame, stages, ...}
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
#             0 allocs/frame with observability on and off; writes the
#             report to a temp file so the tracked baseline is not
#             overwritten by an unrepresentative run.
#
# The full (non-smoke) run additionally enforces the observability overhead
# budget: bench_inference times its session both with observability on and
# with spans and tracing switched off (interleaved passes, one process),
# and the fastest instrumented pass must reach at least
# (1 - AF_OBS_OVERHEAD_TOL) of the fastest uninstrumented pass's frames/sec
# (default tolerance 0.03 = 3%). The bench runs AF_BENCH_REPEATS times
# (default 3) and the run with the best on/off ratio represents it: the
# machine's speed swings by tens of percent from run to run and a preempted
# pass inflates its side, while both sides of one run share the machine
# state — a real instrumentation tax shows up in every run's ratio, so the
# guard still catches it.
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
  echo "run_bench: allocs_per_frame=0 confirmed (observability on and off)"
}

cmake -B "${BUILD}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=Release
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

# True when $1 beats the best so far, $2 (or $2 is empty).
beats() {
  [[ -z "$2" ]] || awk -v f="$1" -v b="$2" 'BEGIN{exit !(f > b)}'
}

# Runs bench_inference REPEATS times and keeps the fastest instrumented
# run's report as the tracked baseline, which carries the 10k-stream
# sharded-host sweep (host_scaling_10k) alongside the single-session
# numbers. RATIO is the best per-run on/off ratio of the fastest passes,
# FPS_ON / FPS_OFF that run's two pass rates.
BEST_FPS=""
RATIO=""
for ((i = 1; i <= REPEATS; ++i)); do
  RUN_OUT="$(mktemp /tmp/BENCH_inference.run.XXXXXX.json)"
  "${BUILD}/bench/bench_inference" --passes 16 --streams 16 \
    --baseline-fps "${BASELINE_FPS}" --big-streams 10000 --out "${RUN_OUT}"
  fps="$(json_field "${RUN_OUT}" frames_per_sec)"
  if beats "${fps}" "${BEST_FPS}"; then
    BEST_FPS="${fps}"
    cp "${RUN_OUT}" "${ROOT}/BENCH_inference.json"
  fi
  on="$(json_field "${RUN_OUT}" best_pass_fps_obs_on)"
  off="$(json_field "${RUN_OUT}" best_pass_fps_obs_off)"
  ratio="$(awk -v on="${on}" -v off="${off}" 'BEGIN{if (on > 0 && off > 0) print on / off}')"
  if [[ -n "${ratio}" ]] && beats "${ratio}" "${RATIO}"; then
    RATIO="${ratio}"
    FPS_ON="${on}"
    FPS_OFF="${off}"
  fi
  rm -f "${RUN_OUT}"
done
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
if [[ -z "${RATIO}" ]]; then
  echo "run_bench: FAIL — could not read the pass rates from the reports" >&2
  exit 1
fi
if ! awk -v on="${FPS_ON}" -v off="${FPS_OFF}" -v tol="${OVERHEAD_TOL}" \
    'BEGIN{exit !(on >= off * (1 - tol))}'; then
  echo "run_bench: FAIL — instrumented ${FPS_ON} fps vs observability-off ${FPS_OFF} fps exceeds the ${OVERHEAD_TOL} overhead budget" >&2
  exit 1
fi
awk -v on="${FPS_ON}" -v off="${FPS_OFF}" \
  'BEGIN{printf "run_bench: span+trace overhead %.2f%% (instrumented %s fps, observability-off %s fps) within budget\n", (1 - on / off) * 100, on, off}'
echo "run_bench: wrote ${ROOT}/BENCH_inference.json"
