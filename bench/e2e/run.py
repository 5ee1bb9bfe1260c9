#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

Usage (from the repository root):

  python3 bench/e2e/run.py                  # all workloads, one run each
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench/e2e/run.py --trace          # untraced + traced run each,
                                            # per-stage tables, trace checks
  python3 bench/e2e/run.py --repeat 5       # spread study, alternating order
  python3 bench/e2e/run.py --smoke          # 2 s per workload, same checks

The benchmark is built into build/e2e (CMake, Release) on every call;
rebuilds are incremental. Each workload runs in a fresh process. With
--workload, the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1) that
BENCHMARK.json lists. The exit status is nonzero when any response
failed its correctness check, or when the benchmark could not be built
or run.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build" / "e2e"
OUT = BUILD / "out"
BINARY = BUILD / "e2e_bench"
WORKLOADS = ["resnet18-bulk", "resnet18-online", "bert-encoder",
             "multitenant-swap"]
# A run measures --seconds plus set-up, warm-up and (traced) the layer
# sweep; nothing legitimate takes this long.
RUN_TIMEOUT_S = 170
WARMUP_S = 2.0
SMOKE_SECONDS, SMOKE_WARMUP = 2.0, 0.5
# Printed after the gated metrics by the untraced runs of the default and
# --trace modes (a traced run prints everything it measured).
EXTRA = {
    "resnet18-bulk": [],
    "resnet18-online": ["light_latency_p50_us", "slo_rate_rps"],
    "bert-encoder": [],
    "multitenant-swap": ["deadline_met_ratio", "top1_agreement",
                         "publish_ms", "registry.build_ms",
                         "registry.publish_us", "setup.autotune_s",
                         "frontdoor.bulk.service_p50_us", "frontdoor.shed"],
}
ALWAYS = ["latency_p90_us", "latency_p99_us", "latency_samples",
          "error_ratio"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")
    return spec


def build():
    """Configure (first time) and build the benchmark binary."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no lutdla sources under {ROOT}; run from a full checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                     str(BUILD), "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", str(BUILD), "--target", "e2e_bench",
            "-j", "4"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, warmup, trace, echo=True):
    """Run one workload in a fresh process; returns its parsed result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--warmup", str(warmup),
           "--trace", "1" if trace else "0", "--out-dir", str(OUT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("E2E_RESULT "):
            result = json.loads(line[len("E2E_RESULT "):])
        elif echo:
            print(line)
    if result is None:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} exited with {proc.returncode} and no result")
    if echo and proc.stderr:
        sys.stderr.write(proc.stderr)
    return result


def value(result, name):
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def fmt(v):
    if v is None:
        return "-"
    if v == 0 or abs(v) >= 100:
        return f"{v:.0f}"
    return f"{v:.4g}"


def print_metrics(result, names):
    print(f"\n{result['workload']} (seed {result['seed']}): "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"mismatched {result['mismatched']}, correct {result['correct']}")
    for name in names:
        metric = result["metrics"].get(name)
        if metric is not None:
            print(f"  {name:34s} {fmt(metric['value']):>14s} {metric['unit']}")


def single_run(args, spec):
    """One workload, one run, ending with the one-line JSON summary."""
    result = run_once(args.workload, args.seed, args.seconds, args.warmup,
                      args.trace)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        metric = result["metrics"].get(entry["name"])
        if metric is None:
            fail(f"{args.workload} did not report {entry['name']}")
        if metric["unit"] != entry["unit"]:
            fail(f"{entry['name']} is in {metric['unit']}, BENCHMARK.json "
                 f"says {entry['unit']}")
        metrics[entry["name"]] = metric
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def check_trace(result):
    """Validate a traced run's trace file; returns a list of problems."""
    problems = []
    path = Path(result["trace_path"])
    if not path.is_absolute():
        path = ROOT / path
    check = subprocess.run([sys.executable, "-m", "json.tool", str(path)],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True)
    if check.returncode != 0:
        return [f"{path} is not valid JSON: {check.stderr.strip()}"]
    events = json.loads(path.read_text())["traceEvents"]
    requests = sum(1 for e in events
                   if e.get("cat") == "request" and e["ph"] == "b")
    if requests != result["attempted"]:
        problems.append(f"{requests} request spans vs {result['attempted']} "
                        "attempted requests")
    ratio = value(result, "stage.sum_vs_untiled")
    if ratio is None or not 0.9 <= ratio <= 1.1:
        problems.append(f"stage.sum_vs_untiled {ratio} outside 0.9-1.1")
    return problems


def run_all(args, spec):
    """Every workload once (and traced once with --trace)."""
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    ok = True
    for workload in args.workloads:
        plain = run_once(workload, args.seed, args.seconds, args.warmup,
                         False)
        print_metrics(plain, e2e + EXTRA[workload] + ALWAYS)
        ok &= plain["correct"]
        if not args.trace:
            continue
        traced = run_once(workload, args.seed, args.seconds, args.warmup,
                          True)
        # Per-layer metrics first, then everything else the run measured.
        print_metrics(traced, layers + [n for n in traced["metrics"]
                                        if n not in layers])
        ok &= traced["correct"]
        problems = check_trace(traced)
        base, with_trace = (value(plain, "rows_per_s"),
                            value(traced, "rows_per_s"))
        print(f"  trace file {traced['trace_path']}: "
              f"{'OK' if not problems else '; '.join(problems)}")
        print(f"  traced vs untraced rows/s: 1 - {fmt(with_trace)} / "
              f"{fmt(base)} = {fmt(1 - with_trace / base)} (run-to-run "
              f"noise included; trace.overhead_frac is the recorder's "
              f"own cost)")
        ok &= not problems
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_study(args, spec):
    """--repeat N: alternating-order repeats, median and quartiles."""
    # The gated metrics, plus the tails, to show why they are not gated.
    names = [m["name"] for m in spec["end_to_end"]] + ["latency_p90_us",
                                                      "latency_p99_us"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples = {(w, n): [] for w in args.workloads for n in names}
    ok = True
    start = time.time()
    for rep in range(args.repeat):
        order = args.workloads if rep % 2 == 0 else args.workloads[::-1]
        for workload in order:
            seed = args.seed + rep
            result = run_once(workload, seed, args.seconds, args.warmup,
                              False, echo=False)
            ok &= result["correct"]
            for name in names:
                v = value(result, name)
                if v is not None:
                    samples[(workload, name)].append(v)
            print(f"rep {rep + 1}/{args.repeat} {workload} seed {seed}: "
                  + ", ".join(f"{n} {fmt(value(result, n))}" for n in names),
                  flush=True)
    print(f"\nspread study: {args.repeat} runs per workload, "
          f"{time.time() - start:.0f} s")
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads:
        for name in names:
            vals = samples[(workload, name)]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {workload} | {name} | {fmt(med)} | {fmt(q1)} | "
                  f"{fmt(q3)} | {spread:.3f} | {bounds.get(name, '-')} |")
    print("\nraw: " + json.dumps({f"{w}/{n}": v
                                  for (w, n), v in samples.items()}))
    return 0 if ok else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    args.warmup = WARMUP_S
    if args.smoke:
        args.seconds, args.warmup = SMOKE_SECONDS, SMOKE_WARMUP
    args.workloads = [args.workload] if args.workload else WORKLOADS

    build()
    if args.repeat > 0:
        return spread_study(args, spec)
    if args.workload and not args.smoke:
        return single_run(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
