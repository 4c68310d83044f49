#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--seconds 10] [--first-seed 1]
        [--trace 0] [--workload NAME ...]

Runs `python3 perfbench/run.py` once per seed (first-seed, first-seed+1,
...) for each workload, one run at a time, and prints for every metric
its median, first and third quartile (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the largest deviation from
the median as a share of it, plus the failed share of operations. The
bounds in BENCHMARK.json are set from this output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("run failed: %s" % " ".join(cmd))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: all in BENCHMARK.json")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")
    workloads = args.workload
    if not workloads:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]

    for workload in workloads:
        results = [run_once(workload, args.first_seed + i, args.seconds, args.trace)
                   for i in range(args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, %d s each, failed share %s, all correct: %s" % (
            workload, args.runs, args.seconds, shares, all(r["correct"] for r in results)))
        print("  %-36s %14s %14s %14s %9s %9s" % (
            "metric", "median", "q1", "q3", "iqr/med", "maxdev"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            maxdev = max(abs(v - med) for v in values) / med if med else 0.0
            print("  %-36s %14.6g %14.6g %14.6g %8.2f%% %8.2f%%" % (
                name, med, q1, q3, 100 * spread, 100 * maxdev))


if __name__ == "__main__":
    main()
