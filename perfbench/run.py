#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload forest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test

Run from the repository root. The first call configures and builds the
solver libraries and the benchmark into .bench_build/ (a RelWithDebInfo
build, the repository default); later calls rebuild only what changed.
Build output goes to stderr, so the last stdout line is the benchmark's
result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"solver sources not found under {ROOT}/src; run from a full "
             "checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
               BUILD_TIMEOUT_S)


def run_binary(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["forest", "tree", "crossing", "session"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        build(["perfbench", "perfbench_test"])
        code = run_binary([os.path.join(BUILD, "perfbench_test")])
        code = code or run_binary([os.path.join(BUILD, "perfbench"),
                                   "--self-test"])
        sys.exit(code)

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    build(["perfbench"])
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.exit(run_binary(cmd))


if __name__ == "__main__":
    main()
