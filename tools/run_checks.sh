#!/usr/bin/env bash
# Full verification gauntlet, CI-runnable: exits non-zero on any failure.
#
#   1. tier-1: warning-free (-DAIRFINGER_WERROR=ON) build + full ctest
#      suite, then the host, ring and dataset-IO tests repeated under
#      ctest -j to catch flakes
#   2. robustness: fault-injection, fuzz, golden-replay and golden
#      probe-parity suites
#   3. observability: the instrumentation determinism/aggregation suites,
#      and the af_trace export replayed twice (byte-identical, valid JSON)
#   4. asan:   ASan/UBSan build of the model/session/concurrency suites
#   5. native: -DAF_NATIVE=ON tree replays the goldens
#   6. bench:  bench_robustness smoke from the tier-1 tree (artifact
#      detection gates, 0 allocs/frame on clean and storm traffic)
#   7. tsan:   tools/run_tsan.sh (ThreadSanitizer, multi-thread pool)
#
# Usage: tools/run_checks.sh [--soak] [build-dir]   (default build-dir: build)
# --soak additionally runs the 10k-session host soak (ctest label `soak`,
# AF_SOAK=1) under the TSan tree — minutes of wall-clock, off by default.
# Canonical build-dir layout (README.md): the tier-1 tree lives at
# <build-dir> and every auxiliary tree nests under <build-dir>/aux
# (<build-dir>/aux/asan, /aux/tsan, /aux/native), so one ignored root
# holds all generated trees. The aux/ level is load-bearing:
# the tier-1 tree writes a CTestTestfile.cmake for every source subdir
# (bench/, tests/, ...), so a nested full configure at e.g.
# <build-dir>/bench would overwrite it and leak the auxiliary tree's tests
# into tier-1 ctest.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SOAK=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --soak) SOAK=1 ;;
    *) echo "run_checks: unknown flag $1" >&2; exit 2 ;;
  esac
  shift
done
BUILD="${1:-${ROOT}/build}"

echo "== tier-1: warning-free build + ctest =="
cmake -B "${BUILD}" -S "${ROOT}" -DAIRFINGER_WERROR=ON
cmake --build "${BUILD}" -j
ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)"

echo "== flake hunt: host/ring/telemetry/io tests, 5 parallel rounds =="
# The tests most exposed to scheduling and shared-filesystem races run as
# concurrent processes again, each until it fails or has passed 5 times,
# so an order- or timing-dependent flake surfaces here first.
ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)" \
  --repeat until-fail:5 -R 'HostSharding|SpscRing|ShardTelemetry|DatasetIo'

echo "== robustness: fault-injection + fuzz + golden-replay suites =="
# golden_replay_test also carries the golden probe-parity check: every open
# segment of the committed traces is probed with the session's cached
# probe and with the cacheless batch probe, which must agree bit for bit.
ctest --test-dir "${BUILD}" --output-on-failure -L robustness -j "$(nproc)"

echo "== observability: metrics/tracing determinism suites =="
ctest --test-dir "${BUILD}" --output-on-failure -L observability -j "$(nproc)"

echo "== trace export: af_trace replay is byte-identical and valid JSON =="
# Replay one golden gesture through af_trace twice: the exported Chrome
# trace JSON must parse and be byte-identical across runs (TickClock pins
# every span timestamp).
TRACE_A="$(mktemp /tmp/af_trace.a.XXXXXX.json)"
TRACE_B="$(mktemp /tmp/af_trace.b.XXXXXX.json)"
"${BUILD}/tools/af_trace" \
  --input "${ROOT}/tests/golden/circle.aftrace" --out "${TRACE_A}"
"${BUILD}/tools/af_trace" \
  --input "${ROOT}/tests/golden/circle.aftrace" --out "${TRACE_B}"
cmp "${TRACE_A}" "${TRACE_B}"
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "${TRACE_A}"
else
  grep -q '"traceEvents"' "${TRACE_A}"
fi
rm -f "${TRACE_A}" "${TRACE_B}"

echo "== asan/ubsan: model + session + concurrency + robustness suites =="
ASAN_BUILD="${BUILD}/aux/asan"
cmake -B "${ASAN_BUILD}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DAF_SANITIZE=address,undefined
cmake --build "${ASAN_BUILD}" -j \
  --target bundle_test serialize_test core_test parallel_test spsc_ring_test host_shard_test probe_test compiled_forest_test fault_injection_test artifact_test obs_test obs_pipeline_test trace_test
"${ASAN_BUILD}/tests/bundle_test"
"${ASAN_BUILD}/tests/serialize_test"
"${ASAN_BUILD}/tests/core_test"
"${ASAN_BUILD}/tests/parallel_test"
"${ASAN_BUILD}/tests/spsc_ring_test"
"${ASAN_BUILD}/tests/host_shard_test"
"${ASAN_BUILD}/tests/probe_test"
"${ASAN_BUILD}/tests/compiled_forest_test"
"${ASAN_BUILD}/tests/fault_injection_test"
"${ASAN_BUILD}/tests/artifact_test"
"${ASAN_BUILD}/tests/obs_test"
"${ASAN_BUILD}/tests/obs_pipeline_test"
"${ASAN_BUILD}/tests/trace_test"

echo "== native cross-check: -DAF_NATIVE=ON tree must replay the goldens =="
# -march=native lets the compiler use whatever the build machine offers,
# FMA included. af_common pins -ffp-contract=off, so no a*b + c may fuse
# and the native tree must replay the goldens byte-identically; the
# dsp/features/forest suites pin the kernels' bit-identity contracts in
# the same tree.
NATIVE_BUILD="${BUILD}/aux/native"
cmake -B "${NATIVE_BUILD}" -S "${ROOT}" -DAF_NATIVE=ON
cmake --build "${NATIVE_BUILD}" -j \
  --target golden_replay_test dsp_test features_test compiled_forest_test
"${NATIVE_BUILD}/tests/golden_replay_test"
"${NATIVE_BUILD}/tests/dsp_test"
"${NATIVE_BUILD}/tests/features_test"
"${NATIVE_BUILD}/tests/compiled_forest_test"

echo "== bench smoke: bench_robustness quality and allocation gates =="
# The bench enforces its own gates (per-class artifact detection rate,
# clean-trace false positives, 0 allocs/frame on clean and storm traffic)
# and exits non-zero on a miss. The tier-1 tree is Release unless told
# otherwise, so the smoke needs no tree of its own.
ROBUST_OUT="$(mktemp /tmp/BENCH_robustness.smoke.XXXXXX.json)"
"${BUILD}/bench/bench_robustness" --smoke 1 --users 2 --sessions 1 \
  --reps 3 --out "${ROBUST_OUT}"
rm -f "${ROBUST_OUT}"

echo "== tsan: race-check the concurrency contract =="
"${ROOT}/tools/run_tsan.sh" "${BUILD}/aux/tsan"

if [[ "${SOAK}" == "1" ]]; then
  echo "== soak: 10k-session sharded host under TSan (AF_SOAK=1) =="
  TSAN_BUILD="${BUILD}/aux/tsan"
  cmake --build "${TSAN_BUILD}" -j --target host_soak_test
  AF_SOAK=1 ctest --test-dir "${TSAN_BUILD}" --output-on-failure -L soak
fi

echo "run_checks: all gates clean"
