#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest_od --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a hazy checkout. The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally); the workload's database and trace
files go to .bench_build/out. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. The exit code
is not 0 when the build or the run fails, and then no result is printed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
OUT = os.path.join(BUILD_ROOT, "out")
WORKLOADS = ("ingest_od", "read_mm", "serve_rpc")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures (when not yet configured) and builds; False on failure."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print("perfbench: cannot run %s: %s" % (cmd[0], err), file=sys.stderr)
            return False
        if proc.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs the benchmark binary, relaying its output; returns its exit code."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the oracle self-test instead of a workload")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 3
    os.makedirs(OUT, exist_ok=True)
    if args.selftest:
        return run([os.path.join(BUILD, "perfbench_selftest"), OUT])
    return run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--out", OUT])


if __name__ == "__main__":
    sys.exit(main())
