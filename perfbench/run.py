#!/usr/bin/env python3
"""Build and run the pMEMCPY benchmark.

    python3 perfbench/run.py --workload ckpt|small_vars|analysis_read \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt compiles the library from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build.  Build output goes to stderr.  The benchmark's stdout is
passed through; its last line is one JSON object with the keys correct,
attempted, failed and metrics.  Exits non-zero, printing no result, when the
build or the run fails or the result line is malformed.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's self-test instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ckpt", "small_vars", "analysis_read")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("pMEMCPY sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def check_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(res["correct"], bool)
            and isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)
            and isinstance(res["metrics"], dict) and res["metrics"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in 1..60")

    build_dir = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not check_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        fail("benchmark failed (exit code %d)" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
