#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload {wordcount,kv_sharded,fabric} \
        --seed N --seconds S --trace {0,1}

Builds the daiet library and the benchmark binary from source into
.bench_build/perfbench (Release), then runs the workload in a fresh
process. Build output goes to stderr; the benchmark's report goes to
stdout, and its last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exits non-zero, without printing a
result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("wordcount", "kv_sharded", "fabric")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args()


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter must not reach stdout: the report's last line
        # has to be the JSON result.
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    args = parse_args()
    if args.seconds < 1:
        sys.exit("--seconds must be at least 1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        sys.exit("perfbench: build failed")
    binary = os.path.join(build_dir, "perfbench")
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", build_dir],
        cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: run failed with exit code %d" % proc.returncode)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    # The binary's metric list must match the one BENCHMARK.json declares.
    spec_path = os.path.join(root, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(result["metrics"]) != declared:
            sys.exit("perfbench: metrics differ from BENCHMARK.json: %s" %
                     sorted(set(result["metrics"]) ^ declared))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
