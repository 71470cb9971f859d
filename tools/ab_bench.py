#!/usr/bin/env python3
"""Paired serving-benchmark comparison of a parent revision and the working tree.

Usage (from anywhere inside the repository):

    python3 tools/ab_bench.py <parent-rev> --workload paced_idle --pairs 10 --first-seed 101

Checks <parent-rev> out into a temporary git worktree and runs the
benchmark command of BENCHMARK.json (perfbench/run.py) on seeds
S .. S+N-1 for both sides: the parent and the working tree (the change).
Each pair alternates which side runs first, and each side builds into its
own fresh CARGO_TARGET_DIR. The run length and each end-to-end metric's
direction and bound come from the working tree's BENCHMARK.json.
--workload may be repeated; without it every workload of BENCHMARK.json
runs, each side building once.

Prints markdown on stdout, per workload:
  * one row per seed: both sides' streams/core and their ratio
    (change / parent), the five sub-window p99 latencies, `failed`,
    whether the four quality metrics are equal, rss per stream and setup_s;
  * one row per end-to-end metric: each side's median [Q1, Q3], pairs won
    and tied by the change, the change of the medians against the bound,
    and a verdict. "gain" needs at least 10 pairs, >= 9/10 of them won,
    and medians further apart than the parent's interquartile range;
    "unresolved" means the parent's own spread is wider than the bound,
    so staying inside it shows nothing, unless every change run beats
    every parent run.
Quartiles interpolate linearly between the sorted runs.

Build logs and progress go to stderr. The worktree and both build trees
live in one temporary directory (under $TMPDIR) that is removed on exit;
nothing is written under perfbench/ or to BENCHMARK.json. Exits 1 when a
run fails its output checks or produces no result, when `failed` is not
0, or when an end-to-end metric is worse than its bound.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUALITY = ("event_recall", "event_precision", "onset_to_emit_frames_p50",
           "false_triggers_per_idle_min")
# "[<streams/core> <p50>/<p90>/<p99>]" per sub-window on perfbench's
# "sub-windows" line.
SUB_WINDOW = re.compile(r"\[(\S+) (\S+)/(\S+)/(\S+)\]")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(command, side_root, target_dir, workload, seed, seconds):
    """One untraced run; returns (result dict, None) or (None, error)."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # The compiler's temporary files land in the build tree too, so an
    # interrupted build leaves nothing behind once the tree is removed.
    os.makedirs(target_dir, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir, TMPDIR=target_dir)
    # A session of its own, so an interrupt also stops the build or the
    # benchmark binary that run.py started.
    proc = subprocess.Popen(cmd, cwd=side_root, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = "\n".join(err.strip().splitlines()[-20:])
        return None, f"exit {proc.returncode}, no result\n{tail}"
    result["p99_ms"] = []
    for line in lines:
        if line.startswith("sub-windows"):
            result["p99_ms"] = [float(m[3]) for m in SUB_WINDOW.findall(line)]
    return result, None


def metric(result, name):
    return result["metrics"][name]["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(value):
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def seed_table(rows):
    out = ["| seed | first | streams/core parent | streams/core change | "
           "ratio | sub-window p99 ms parent | sub-window p99 ms change | "
           "failed p/c | quality equal | rss KiB p/c | setup_s p/c |",
           "|---|---|---|---|---|---|---|---|---|---|---|"]
    for seed, first, p, c in rows:
        spc_p = metric(p, "streams_per_core")
        spc_c = metric(c, "streams_per_core")
        ratio = spc_c / spc_p if spc_p else float("nan")
        equal = all(metric(p, q) == metric(c, q) for q in QUALITY)
        failed = f"{p['failed']}/{c['failed']}"
        for side in (p, c):
            if not side["correct"]:
                failed += " (incorrect)"
        out.append(
            f"| {seed} | {first} | {fmt(spc_p)} | {fmt(spc_c)} | "
            f"{ratio:.3f} | {' '.join(f'{v:.2f}' for v in p['p99_ms'])} | "
            f"{' '.join(f'{v:.2f}' for v in c['p99_ms'])} | {failed} | "
            f"{'yes' if equal else 'NO'} | "
            f"{fmt(metric(p, 'rss_per_stream_kb'))} / "
            f"{fmt(metric(c, 'rss_per_stream_kb'))} | "
            f"{metric(p, 'setup_s'):.3f} / {metric(c, 'setup_s'):.3f} |")
    return out


def metric_table(rows, end_to_end):
    """Returns (markdown lines, True when every metric is inside its bound)."""
    out = ["| metric | better | parent median [Q1, Q3] | "
           "change median [Q1, Q3] | change won / tied | median change | "
           "bound | verdict |",
           "|---|---|---|---|---|---|---|---|"]
    all_within = True
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent = [metric(p, name) for _, _, p, _ in rows]
        change = [metric(c, name) for _, _, _, c in rows]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        tied = sum(c == p for p, c in zip(parent, change))
        if pmed:
            delta = (cmed - pmed) / abs(pmed)
        else:
            delta = 0.0 if cmed == pmed else sign * float("inf")
        spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
        every_run_better = (min(change) > max(parent) if sign > 0
                            else max(change) < min(parent))
        if -sign * delta > bound:
            verdict = "WORSE than bound"
            all_within = False
        elif (len(rows) >= 10 and won >= 0.9 * len(rows)
              and sign * (cmed - pmed) > pq3 - pq1):
            verdict = "gain"
        elif spread > bound and not every_run_better:
            verdict = "unresolved (parent IQR wider than bound)"
        else:
            verdict = "within bound"
        out.append(
            f"| {name} | {spec['better']} | {fmt(pmed)} [{fmt(pq1)}, "
            f"{fmt(pq3)}] | {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] | "
            f"{won} / {tied} of {len(rows)} | {delta * 100:+.1f}% | "
            f"{bound * 100:.0f}% | {verdict} |")
    return out, all_within


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent revision (any git rev)")
    parser.add_argument("--workload", action="append",
                        help="workload name; repeatable (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    for w in workloads:
        if w not in known:
            parser.error(f"unknown workload {w!r} (known: {', '.join(known)})")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    try:
        parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}")
    except subprocess.CalledProcessError:
        parser.error(f"not a commit: {args.parent}")
    head = git("rev-parse", "--short", "HEAD")
    dirty = " + uncommitted changes" if git("status", "--porcelain") else ""
    seeds = range(args.first_seed, args.first_seed + args.pairs)

    # SIGTERM unwinds like Ctrl-C, so the cleanup below always runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = tempfile.mkdtemp(prefix="ab_bench.")
    worktree = os.path.join(scratch, "parent")
    ok = True
    try:
        git("worktree", "add", "--detach", worktree, parent_sha)
        sides = {"parent": (worktree, os.path.join(scratch, "build-parent")),
                 "change": (ROOT, os.path.join(scratch, "build-change"))}
        print(f"perfbench pairs: parent {parent_sha[:7]} vs change "
              f"{head}{dirty}; {args.pairs} pairs on seeds "
              f"{seeds[0]}..{seeds[-1]}, {bench['run_seconds']} s runs "
              f"(`--trace 0`); the first side alternates per pair; "
              f"ratio = change / parent.")
        for workload in workloads:
            rows = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else \
                        ("change", "parent")
                results = {}
                for side in order:
                    print(f"ab_bench: {workload} seed {seed} {side}",
                          file=sys.stderr, flush=True)
                    result, error = run_once(
                        bench["command"], *sides[side], workload, seed,
                        bench["run_seconds"])
                    if result is None:
                        print(f"ab_bench: {side} run failed: {error}",
                              file=sys.stderr)
                        return 1
                    if not result["correct"] or result["failed"]:
                        ok = False
                    results[side] = result
                rows.append((seed, order[0], results["parent"],
                             results["change"]))
            table, within = metric_table(rows, bench["end_to_end"])
            ok = ok and within
            print(f"\n**{workload}**\n")
            print("\n".join(seed_table(rows)))
            print()
            print("\n".join(table))
            sys.stdout.flush()
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        worktree], capture_output=True, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True, check=False)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
