#!/usr/bin/env python3
"""Build and run the airFinger serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paced_idle --seed 1 --seconds 25 --trace 0

Configures and builds perfbench/ (which compiles the libraries from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, runs the scorer's self-test, then runs the benchmark binary with the
given arguments. The benchmark's stdout passes through unchanged; its last
line is the JSON result. Build output goes to stderr. Exits non-zero, without
printing a result, when the build, the self-test or the benchmark fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JOBS = "3"


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", build_dir, "-j", JOBS],
                     BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not run_quiet([os.path.join(build_dir, "perfbench_scorer_test")], 60):
        print("perfbench: scorer self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
