#!/usr/bin/env python3
"""Runs one workload of the recnet session benchmark.

    python3 perfbench/run.py --workload churn_absorption --seed 1 \
        --seconds 10 --trace 0

Run from the root of a recnet checkout. Builds perfbench/ (the library from
src/ plus session_bench.cc, Release) under .bench_build/perfbench, runs the
workload, prints every metric with its unit and sample count, and ends with
one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the bounded end-to-end metrics of an untraced run;
--trace 1 reports the per-layer metrics (and the unbounded end-to-end
timings) of a traced run and writes its Chrome trace-event file next to the
build. The printed table shows every metric either way. Exits non-zero, without the JSON line,
when the build or the run fails, and with it when any operation failed or
disagreed with the reference oracle.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("churn_absorption", "churn_dred", "multiview_ttl")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A run must end within 180 s once the benchmark is built (the first run in
# a checkout may also spend minutes building).
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "engine", "session.h")):
        die("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                 "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, configure)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "session_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    work_dir = os.path.join(BUILD_DIR, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--work-dir", work_dir]
    trace_path = os.path.join(
        BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
    if args.trace:
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        die("benchmark printed no result (exit code %d)" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("unreadable benchmark result: " + lines[-1][:200])

    end_to_end = not args.trace
    metrics = {name: m for name, m in result["metrics"].items()
               if m["end_to_end"] == end_to_end}
    print("%s seed=%d %s run: %d trials, %d updates, %d applies" % (
        result["workload"], args.seed, "traced" if args.trace else
        "untraced", result["trials"], result["updates"], result["applies"]))
    # The table lists every metric of the run, bounded ones first; the JSON
    # line carries only the section that --trace asks for.
    for name, m in sorted(result["metrics"].items(),
                          key=lambda item: not item[1]["end_to_end"]):
        print("  %-34s %16.6g %-6s (%d samples)%s" % (
            name, m["value"], m["unit"], m["samples"],
            "" if name in metrics else "  [not in result]"))
    if args.trace:
        print("  trace written to " + trace_path)
    print("  counters: " + json.dumps(result["counters"]))
    print(json.dumps({
        "correct": result["correct"] and done.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
