#!/usr/bin/env python3
"""Regression gate for the micro_ops benchmark suite.

Compares a fresh google-benchmark JSON dump against the committed baseline
(BENCH_micro_ops_baseline.json) and fails when any benchmark's per-iteration
CPU time regressed beyond the threshold. The threshold is deliberately
generous (default 2x): the gate exists to catch order-of-magnitude
regressions on the operator/BDD hot paths, not to flag scheduler noise on
shared CI runners.

A dump made with --benchmark_repetitions=N (N >= 2) carries a median
aggregate per benchmark; the gate then compares that median, so a single
slow repetition cannot fail it. A dump without aggregates (the committed
baseline, a single-repetition run) is compared run by run.

Usage: check_micro_ops.py CURRENT.json BASELINE.json [--threshold 2.0]
Exit codes: 0 ok, 1 regression, 2 bad input.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    runs, medians = {}, {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench.get("run_name", bench["name"])] = float(
                    bench["cpu_time"])
            continue
        runs[bench.get("run_name", bench["name"])] = float(bench["cpu_time"])
    out = medians or runs
    if not out:
        print(f"error: {path} contains no benchmarks", file=sys.stderr)
        sys.exit(2)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail when current > threshold * baseline")
    args = parser.parse_args()

    current = load_benchmarks(args.current)
    baseline = load_benchmarks(args.baseline)

    regressions = []
    width = max(len(n) for n in sorted(set(current) | set(baseline)))
    for name in sorted(baseline):
        if name not in current:
            # A baseline benchmark that vanished counts as a failure —
            # otherwise deleting (or crashing out of) a regressed benchmark
            # would silently bypass the gate.
            regressions.append((name, float("inf")))
            print(f"{name:<{width}}  MISSING from current run", file=sys.stderr)
            continue
        ratio = current[name] / baseline[name] if baseline[name] > 0 else 1.0
        flag = ""
        if ratio > args.threshold:
            regressions.append((name, ratio))
            flag = f"  REGRESSION (> {args.threshold:.1f}x)"
        print(f"{name:<{width}}  baseline {baseline[name]:>12.1f}ns"
              f"  current {current[name]:>12.1f}ns  ratio {ratio:5.2f}x{flag}")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}}  (new benchmark, no baseline)")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{args.threshold:.1f}x:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        sys.exit(1)
    print("\nmicro_ops within threshold")


if __name__ == "__main__":
    main()
