#!/usr/bin/env python3
"""CI perf guard: diff a fresh bench_serve_throughput --json run against
the checked-in BENCH_serve_throughput.json artifact and fail on rows/s
regressions.

Usage:
    compare_bench.py BASELINE.json FRESH.json [--tolerance 0.15]
                     [--normalize] [--per-config]

Gate semantics:
  - The gate runs on the `best` section (best float32 / int8 rows/s) and
    on the per-section best of the config list — the headline numbers a
    PR must not regress. Per-config deltas are PRINTED for diagnosis but
    gate only with --per-config (they are noisy on shared runners; the
    serving docs measured +/-20% run-to-run on virtualized hosts).
  - --normalize divides every rows/s by the run's own
    baselines.arena_1row_rows_per_sec before comparing, cancelling raw
    host-speed differences (CI runners are not the machine that produced
    the artifact). CI uses this; local same-machine runs can omit it.
  - Fresh runs may add configs (new sweep points); only configs present
    in BOTH files are compared. A missing `best` key fails loudly.
  - Coverage is gated unconditionally (even across ISA levels): every
    per-(section, backend) best present in the baseline must exist in
    the fresh run. A bench build that silently drops a section (mlp /
    cnn / transformer) fails the guard rather than passing vacuously.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def config_key(c):
    return (c.get("section"), c.get("backend"), c.get("threads"),
            c.get("max_batch"))


def section_best(doc, scale):
    best = {}
    for c in doc.get("configs", []):
        key = (c.get("section"), c.get("backend"))
        rate = c.get("rows_per_sec", 0.0) * scale
        best[key] = max(best.get(key, 0.0), rate)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max allowed fractional regression (0.15)")
    parser.add_argument("--normalize", action="store_true",
                        help="normalize by arena_1row baseline (use in CI "
                             "where hosts differ)")
    parser.add_argument("--per-config", action="store_true",
                        help="also gate on every matched config, not just "
                             "the bests")
    args = parser.parse_args()

    old = load(args.baseline)
    new = load(args.fresh)

    def scale_of(doc):
        if not args.normalize:
            return 1.0
        base = doc.get("baselines", {}).get("arena_1row_rows_per_sec", 0.0)
        if base <= 0.0:
            sys.exit("error: --normalize needs "
                     "baselines.arena_1row_rows_per_sec > 0")
        return 1.0 / base

    old_scale, new_scale = scale_of(old), scale_of(new)
    failures = []

    # Kernel variants are cpuid-dispatched, so rows/s is a function of
    # the ISA level, and normalizing by the float arena baseline cannot
    # cancel a different int8-kernel tier (e.g. the artifact's
    # shuffle-vnni vs an AVX2-only runner's scalar sweep). Across ISA
    # levels the comparison is informational only — gating it would fail
    # CI on every non-matching runner with zero code regression.
    gating = old.get("isa") == new.get("isa")
    if not gating:
        print("note: baseline isa ({}) != fresh isa ({}); kernel tiers "
              "differ, reporting WITHOUT gating".format(
                  old.get("isa"), new.get("isa")))

    def check(label, old_val, new_val, gate):
        gate = gate and gating
        if old_val <= 0.0:
            return
        delta = new_val / old_val - 1.0
        marker = " "
        if delta < -args.tolerance:
            marker = "!" if gate else "~"
            if gate:
                failures.append(
                    f"{label}: {new_val:.3f} vs baseline {old_val:.3f} "
                    f"({delta * 100:+.1f}%, tolerance "
                    f"-{args.tolerance * 100:.0f}%)")
        print(f"  [{marker}] {label:46s} {old_val:10.3f} -> "
              f"{new_val:10.3f}  ({delta * 100:+6.1f}%)")

    unit = "x arena-1row" if args.normalize else "rows/s"
    print(f"perf guard: tolerance {args.tolerance * 100:.0f}%, "
          f"unit: {unit}")
    print(f"  baseline isa={old.get('isa', '?')} "
          f"hw_threads={old.get('hardware_threads', '?')}, "
          f"fresh isa={new.get('isa', '?')} "
          f"hw_threads={new.get('hardware_threads', '?')}")

    print("headline bests (gated):")
    old_best, new_best = old.get("best"), new.get("best")
    if not old_best or not new_best:
        sys.exit("error: missing `best` section in one of the inputs")
    # int4/auto headline keys appeared with the mixed-precision PR,
    # int4_untiled with the row-tiled executor, and int8enc/tableonly
    # with the quantized encode plane; gate them only when the baseline
    # artifact already records them so old artifacts keep working, but
    # fail if a baseline HAS them and the fresh bench dropped them
    # (coverage, like the section gate).
    headline = ["float32_rows_per_sec", "int8_rows_per_sec"]
    for key in ("int4_rows_per_sec", "auto_rows_per_sec",
                "int4_untiled_rows_per_sec", "int8enc_rows_per_sec",
                "tableonly_rows_per_sec"):
        if key in old_best:
            if key not in new_best:
                failures.append(
                    f"coverage: baseline best.{key} is missing from the "
                    f"fresh run (plan sweep dropped from the bench)")
                print(f"  [!] best.{key} missing from fresh run")
                continue
            headline.append(key)
    for key in headline:
        check(f"best.{key}", old_best.get(key, 0.0) * old_scale,
              new_best.get(key, 0.0) * new_scale, gate=True)

    # The tiled-vs-untiled speedup is a RATIO of two independently noisy
    # sweeps (each side wanders +/-5% on shared runners), so its run-to-
    # run spread is ~2x a single rate's and gating it would flake; the
    # absolute int4 rates above are gated instead. Dropping the field
    # after a baseline records it is still a coverage failure: it means
    # the A/B section fell out of the bench.
    if "tiled_speedup_int4" in old_best:
        if "tiled_speedup_int4" not in new_best:
            failures.append(
                "coverage: baseline best.tiled_speedup_int4 is missing "
                "from the fresh run (tiled A/B section dropped from the "
                "bench)")
            print("  [!] best.tiled_speedup_int4 missing from fresh run")
        else:
            print("tiled-vs-untiled speedup (informational):")
            print(f"  [ ] {'best.tiled_speedup_int4':46s} "
                  f"{old_best['tiled_speedup_int4']:10.3f} -> "
                  f"{new_best['tiled_speedup_int4']:10.3f}")

    # Encode-plane digest (informational, never gated): agreements are
    # accuracy numbers, not rates, and joint_vs_tableonly is a ratio of
    # two independently noisy sweeps — the absolute int8enc/tableonly
    # rates above carry the gate.
    enc_keys = ("int8enc_vs_int4", "int8enc_agreement",
                "joint_vs_tableonly", "tableonly_agreement")
    if any(k in old_best or k in new_best for k in enc_keys):
        print("quantized encode plane (informational):")
        for key in enc_keys:
            if key not in old_best and key not in new_best:
                continue
            o = old_best.get(key)
            n = new_best.get(key)
            print(f"  [ ] best.{key:34s} "
                  f"{o if o is not None else '(absent)'} -> "
                  f"{n if n is not None else '(absent)'}")

    print("per-(section, backend) bests (gated):")
    old_sb = section_best(old, old_scale)
    new_sb = section_best(new, new_scale)
    for key in sorted(set(old_sb) & set(new_sb)):
        check(f"best[{key[0]}/{key[1]}]", old_sb[key], new_sb[key],
              gate=True)
    # Coverage regression: a section the baseline measures must still be
    # measured. This gates regardless of ISA — dropping a section is a
    # bench-coverage bug, not a kernel-tier difference.
    for key in sorted(set(old_sb) - set(new_sb)):
        print(f"  [!] best[{key[0]}/{key[1]}] missing from fresh run")
        failures.append(
            f"coverage: baseline section best [{key[0]}/{key[1]}] is "
            f"missing from the fresh run (section dropped from the bench)")

    print("matched configs (%s):" %
          ("gated" if args.per_config else "informational"))
    new_by_key = {config_key(c): c for c in new.get("configs", [])}
    for c in old.get("configs", []):
        other = new_by_key.get(config_key(c))
        if other is None:
            continue
        label = "{}/{} t={} mb={}".format(*config_key(c))
        check(label, c.get("rows_per_sec", 0.0) * old_scale,
              other.get("rows_per_sec", 0.0) * new_scale,
              gate=args.per_config)

    # Resident-bytes digest (informational, never gated): arena bytes
    # actually resident per plan, printed next to the rows/s movement so
    # byte savings are visible in the same report. Older artifacts
    # predate the fields, so every lookup tolerates their absence;
    # resident bytes are deterministic per (model, plan, ISA), not a
    # timing, hence never normalized.
    res_keys = ("float32_resident_bytes", "int8_resident_bytes",
                "int4_resident_bytes", "int8enc_resident_bytes",
                "auto_resident_bytes", "auto_int8_resident_bytes")
    if any(k in old_best or k in new_best for k in res_keys):
        print("arena resident bytes per plan (informational):")
        for key in res_keys:
            if key not in old_best and key not in new_best:
                continue
            o = old_best.get(key)
            n = new_best.get(key)
            if o and n:
                delta = n / o - 1.0
                print(f"  [ ] best.{key:34s} {o:12d} -> {n:12d}  "
                      f"({delta * 100:+6.1f}%)")
            else:
                print(f"  [ ] best.{key:34s} "
                      f"{o if o is not None else '(absent)'} -> "
                      f"{n if n is not None else '(absent)'}")

    # Latency-split digest (informational, never gated): queue wait vs
    # service time p99 for the fresh run's matched configs. Older
    # artifacts predate the split, so the fields are optional; latency is
    # wall time, which --normalize's rows/s scale does not apply to.
    split = [(config_key(c), c) for c in new.get("configs", [])
             if "p99_queue_us" in c and "p99_service_us" in c]
    if split:
        print("latency split, fresh run (informational): "
              "p99 queue-wait / p99 service us")
        for key, c in split:
            label = "{}/{} t={} mb={}".format(*key)
            print(f"  [ ] {label:46s} {c['p99_queue_us']:10.1f} / "
                  f"{c['p99_service_us']:10.1f}")

    if failures:
        print("\nPERF GUARD FAILED (>{:.0f}% rows/s regression):".format(
            args.tolerance * 100))
        for failure in failures:
            print("  " + failure)
        return 1
    print("\nperf guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
