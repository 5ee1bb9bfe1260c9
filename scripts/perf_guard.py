#!/usr/bin/env python3
"""Serving perf guard: this tree against a parent checkout, same runner.

Usage (from anywhere):

  python3 scripts/perf_guard.py PARENT_CHECKOUT

Runs PAIRS alternating-order pairs of `bench/e2e/run.py --workload W
--seed S --seconds SECONDS` on each guarded workload. Each side runs its
own tree's run.py (which builds into that tree's build/e2e); both runs of
a pair use the same seed. Comparing against the parent on the same
runner cancels host speed, so no baseline artifact is kept.

Exits nonzero when any run exits nonzero (a mismatched or failed
response, or a build failure), or when this tree's median rows_per_s is
below FLOOR times the parent's on any guarded workload. The report also
prints each side's latency_p50_us and peak_rss_mb (median, q1, q3) per
workload; those are shown, not gated.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SECONDS = 2
WORKLOADS = ["resnet18-bulk", "bert-encoder", "multitenant-swap"]
FLOOR = 0.85
SEED = 1
GATED = "rows_per_s"
# Shown beside the gate, not gated: metric -> decimals printed.
REPORTED = {"latency_p50_us": 0, "peak_rss_mb": 1}


def run_metrics(tree, workload, seed):
    """One run of `tree`'s run.py; returns {metric: value} for GATED and
    REPORTED, or None if it failed."""
    cmd = [sys.executable, str(tree / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"FAIL: {tree} {workload} seed {seed} exited "
              f"{proc.returncode}\n{proc.stdout}", flush=True)
        return None
    metrics = json.loads(lines[-1])["metrics"]
    return {name: metrics[name]["value"] for name in [GATED, *REPORTED]}


def quartiles(values, digits=0):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (f"median {med:.{digits}f} (q1 {q1:.{digits}f}, "
            f"q3 {q3:.{digits}f})")


def report(name, parent, change):
    """One side-by-side line for a metric that is shown, not gated."""
    if len(parent) < 2 or len(change) < 2:
        return f"  {name}: too few runs"
    digits = REPORTED[name]
    ratio = statistics.median(change) / statistics.median(parent)
    return (f"  {name}: parent {quartiles(parent, digits)}, change "
            f"{quartiles(change, digits)}, ratio {ratio:.3f} (report only)")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sides = {"parent": Path(sys.argv[1]).resolve(),
             "change": Path(__file__).resolve().parents[1]}
    samples = {(side, w): [] for side in sides for w in WORKLOADS}
    ok = True
    for pair in range(PAIRS):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in WORKLOADS:
            seed = SEED + pair
            for side in order:
                run = run_metrics(sides[side], workload, seed)
                ok &= run is not None
                if run is not None:
                    samples[(side, workload)].append(run)
                    print(f"pair {pair + 1}/{PAIRS} {workload} seed {seed} "
                          f"{side}: {run[GATED]:.0f} rows/s, p50 "
                          f"{run['latency_p50_us']:.0f} us, RSS "
                          f"{run['peak_rss_mb']:.1f} MB", flush=True)
    for workload in WORKLOADS:
        runs = {side: samples[(side, workload)] for side in sides}
        parent, change = ([run[GATED] for run in runs["parent"]],
                          [run[GATED] for run in runs["change"]])
        if len(parent) < 2 or len(change) < 2:
            ok = False
            continue
        ratio = statistics.median(change) / statistics.median(parent)
        passed = ratio >= FLOOR
        ok &= passed
        print(f"{workload}: parent {quartiles(parent)}, change "
              f"{quartiles(change)}, ratio {ratio:.3f} "
              f"(floor {FLOOR}) {'ok' if passed else 'FAIL'}")
        for name in REPORTED:
            print(report(name, [run[name] for run in runs["parent"]],
                         [run[name] for run in runs["change"]]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
