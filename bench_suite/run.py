#!/usr/bin/env python3
"""Builds bench_suite from this checkout and runs one workload (or all).

    python3 bench_suite/run.py --workload NAME|all --seed N \
        [--seconds S] [--trace 0|1]

Run from the root of the repository. The repository's CMake project,
with bench_suite.cmake added, is built to $CARGO_TARGET_DIR/bench_suite
when that variable is set (relative paths are taken from the repository
root), else to .bench_build/bench_suite; build logs go to stderr. Each workload runs in its own process, so peak
RSS is per workload. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; with --workload all each
workload's two lines are printed in turn, followed by one combined
result whose metrics are named "<workload>/<metric>".
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ssb_n128", "ssb_n8_small", "shard4_churn", "tenants_open"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "bench_suite")


def build(out):
    """Configures the repository's CMake project with bench_suite.cmake
    added, builds the bench_suite target; returns the binary path."""
    env = dict(os.environ)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler temporaries inside the checkout
    hook = os.path.join(HERE, "bench_suite.cmake")
    for cmd in (["cmake", "-S", ROOT, "-B", out,
                 "-DCMAKE_PROJECT_INCLUDE=" + hook],
                ["cmake", "--build", out, "--target", "bench_suite",
                 "-j", "4"]):
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("bench_suite: build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_suite")


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit("bench_suite: %s exited with %d" %
                 (workload, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    if args.workload != "all":
        run_one(binary, args.workload, args)
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, workload, args)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
