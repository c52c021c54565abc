#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares the KB-lookup benchmarks in a fresh google-benchmark JSON run
(BENCH_ci.json from scripts/bench_smoke.sh) against the committed baseline
(bench/BENCH_baseline.json) and fails when a gated benchmark regressed
beyond tolerance.

CI runners are shared and noisy, so the gate is deliberately generous and
scale-free where it can be:

* Ratio gates (primary): the k-d tree speedup over the linear scan at the
  same record count is a within-run ratio — machine speed cancels out. The
  tree must stay >= MIN_KD_SPEEDUP x faster at 100k records (acceptance
  floor for the sublinear lookup) and must never be slower than the scan at
  the smaller sizes.
* Absolute gates (secondary): each gated benchmark may be at most
  MAX_SLOWDOWN x its baseline time. This only trips on order-of-magnitude
  regressions (an accidental O(N) in the tree path, a lost index), not on
  runner jitter.

Usage: bench_gate.py CURRENT_JSON [BASELINE_JSON] [--diff OUT_JSON]

Exit codes: 0 pass, 1 regression, 2 usage/IO error.
"""

import json
import sys

# A gated benchmark may take up to this multiple of its baseline time
# before the gate trips. Generous on purpose: shared CI runners easily
# jitter 2-3x; a broken index regresses 10-100x.
MAX_SLOWDOWN = 4.0
# The tentpole acceptance floor: k-d tree vs linear scan at 100k records.
MIN_KD_SPEEDUP = 5.0
# Tree growth on the shared quantile view (Dataset::Binned(), at most 255
# bins per column: BM_TreeGrowHistogram) vs exact split search (a Fit with
# no view, which bins the matrix losslessly inside the timed fit, one bin
# per distinct value: BM_TreeGrowExact) at 50k rows x 50 features. Both
# run the same builder, so the ratio is what coarse bins and a prebuilt
# view buy. Like the k-d tree gate this is a within-run ratio, so machine
# speed cancels out. At 5k rows the floor is only break-even, though the
# quantile view runs ~15-20x faster there too.
MIN_HIST_SPEEDUP = 3.0

# Benchmarks under the absolute slowdown gate.
GATED = [
    "BM_KbLookupCached/1000",
    "BM_KbLookupCached/10000",
    "BM_KbLookupCached/100000",
    "BM_KbLookupKdTree/1000",
    "BM_KbLookupKdTree/10000",
    "BM_KbLookupKdTree/100000",
    "BM_TreeGrowHistogram/5000",
    "BM_TreeGrowHistogram/50000",
    # Default random forest, 400 x 64, 12 classes, one thread: the
    # small-node regime BM_TreeGrow* (min_leaf 20, no mtry) never reaches.
    "BM_ForestFit",
    "BM_MetaFeatureDistanceScan/10000",
    # SMAC's own work: one presorted surrogate fit at 800 configs, and a
    # whole 500-evaluation search on a free objective (surrogate refits,
    # flat EI candidates, bookkeeping).
    "BM_SurrogateFit/800",
    "BM_SmacIteration/500",
]


def load_times(path):
    with open(path) as f:
        data = json.load(f)
    return {
        b["name"]: float(b["real_time"])
        for b in data.get("benchmarks", [])
        if "real_time" in b
    }


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    diff_path = None
    if "--diff" in argv:
        i = argv.index("--diff")
        if i + 1 >= len(argv):
            print("bench_gate: --diff needs a path", file=sys.stderr)
            return 2
        diff_path = argv[i + 1]
        args = [a for a in args if a != diff_path]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    current_path = args[0]
    baseline_path = args[1] if len(args) > 1 else "bench/BENCH_baseline.json"

    try:
        current = load_times(current_path)
    except (OSError, ValueError) as e:
        print("bench_gate: cannot read %s: %s" % (current_path, e),
              file=sys.stderr)
        return 2
    try:
        baseline = load_times(baseline_path)
    except (OSError, ValueError) as e:
        print("bench_gate: cannot read %s: %s" % (baseline_path, e),
              file=sys.stderr)
        return 2

    failures = []
    rows = []

    # Ratio gates (noise-immune).
    for size, floor in ((1000, 1.0), (10000, 1.0), (100000, MIN_KD_SPEEDUP)):
        linear = current.get("BM_KbLookupCached/%d" % size)
        tree = current.get("BM_KbLookupKdTree/%d" % size)
        if linear is None or tree is None:
            failures.append(
                "missing KB-lookup benchmarks at %d records in %s"
                % (size, current_path))
            continue
        speedup = linear / tree if tree > 0 else float("inf")
        ok = speedup >= floor
        rows.append({
            "check": "kd_speedup/%d" % size,
            "speedup": round(speedup, 2),
            "floor": floor,
            "ok": ok,
        })
        if not ok:
            failures.append(
                "k-d tree speedup at %d records is %.2fx (floor %.1fx)"
                % (size, speedup, floor))

    # Histogram tree-growth ratio gates (same within-run structure as the
    # k-d tree gates above).
    for size, floor in ((5000, 1.0), (50000, MIN_HIST_SPEEDUP)):
        exact = current.get("BM_TreeGrowExact/%d" % size)
        hist = current.get("BM_TreeGrowHistogram/%d" % size)
        if exact is None or hist is None:
            failures.append(
                "missing tree-growth benchmarks at %d rows in %s"
                % (size, current_path))
            continue
        speedup = exact / hist if hist > 0 else float("inf")
        ok = speedup >= floor
        rows.append({
            "check": "hist_speedup/%d" % size,
            "speedup": round(speedup, 2),
            "floor": floor,
            "ok": ok,
        })
        if not ok:
            failures.append(
                "histogram tree-growth speedup at %d rows is %.2fx "
                "(floor %.1fx)" % (size, speedup, floor))

    # Absolute gates against the committed baseline.
    for name in GATED:
        cur = current.get(name)
        base = baseline.get(name)
        if cur is None:
            failures.append("benchmark %s missing from %s" % (name, current_path))
            continue
        if base is None or base <= 0:
            # New benchmark or empty baseline entry: report, don't gate.
            rows.append({"check": name, "current_ns": cur, "baseline_ns": base,
                         "ok": True, "note": "no baseline"})
            continue
        ratio = cur / base
        ok = ratio <= MAX_SLOWDOWN
        rows.append({
            "check": name,
            "current_ns": round(cur, 1),
            "baseline_ns": round(base, 1),
            "ratio": round(ratio, 2),
            "limit": MAX_SLOWDOWN,
            "ok": ok,
        })
        if not ok:
            failures.append(
                "%s regressed %.2fx over baseline (%.0fns -> %.0fns, "
                "limit %.1fx)" % (name, ratio, base, cur, MAX_SLOWDOWN))

    for row in rows:
        status = "ok  " if row["ok"] else "FAIL"
        detail = ", ".join(
            "%s=%s" % (k, v) for k, v in row.items() if k not in ("check", "ok"))
        print("bench_gate: [%s] %-28s %s" % (status, row["check"], detail))

    if diff_path:
        with open(diff_path, "w") as f:
            json.dump({
                "current": current_path,
                "baseline": baseline_path,
                "max_slowdown": MAX_SLOWDOWN,
                "min_kd_speedup": MIN_KD_SPEEDUP,
                "checks": rows,
                "failures": failures,
            }, f, indent=2)
            f.write("\n")
        print("bench_gate: wrote diff to %s" % diff_path)

    if failures:
        for failure in failures:
            print("bench_gate: FAIL %s" % failure, file=sys.stderr)
        return 1
    print("bench_gate: all %d checks passed" % len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
