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
below FLOOR times the parent's on any guarded workload.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SECONDS = 2
WORKLOADS = ["resnet18-bulk", "bert-encoder"]
FLOOR = 0.85
SEED = 1


def rows_per_s(tree, workload, seed):
    """One run of `tree`'s run.py; returns rows/s, or None if it failed."""
    cmd = [sys.executable, str(tree / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"FAIL: {tree} {workload} seed {seed} exited "
              f"{proc.returncode}\n{proc.stdout}", flush=True)
        return None
    return json.loads(lines[-1])["metrics"]["rows_per_s"]["value"]


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.0f} (q1 {q1:.0f}, q3 {q3:.0f})"


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
                rate = rows_per_s(sides[side], workload, seed)
                ok &= rate is not None
                if rate is not None:
                    samples[(side, workload)].append(rate)
                    print(f"pair {pair + 1}/{PAIRS} {workload} seed {seed} "
                          f"{side}: {rate:.0f} rows/s", flush=True)
    for workload in WORKLOADS:
        parent, change = (samples[("parent", workload)],
                          samples[("change", workload)])
        if len(parent) < 2 or len(change) < 2:
            ok = False
            continue
        ratio = statistics.median(change) / statistics.median(parent)
        passed = ratio >= FLOOR
        ok &= passed
        print(f"{workload}: parent {quartiles(parent)}, change "
              f"{quartiles(change)}, ratio {ratio:.3f} "
              f"(floor {FLOOR}) {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
