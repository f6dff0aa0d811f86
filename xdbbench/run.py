#!/usr/bin/env python3
"""Builds and runs the XDB serving benchmark from the root of a checkout.

    python3 xdbbench/run.py --workload tpch_mix --seed 1 --seconds 10 --trace 0
    python3 xdbbench/run.py --test    # the benchmark's own checks

The program is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; later runs only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's result.
The exit code is the benchmark's: non-zero when the build failed, the run
failed, or its answers were wrong.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "xdbbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def run(cmd):
    """Runs `cmd` to completion, relaying its stdout; returns its exit code."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"benchmark did not finish: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own checks")
    args = parser.parse_args()

    if args.test:
        if not build("xdbbench_tests"):
            return 1
        return run([os.path.join(BUILD, "xdbbench_tests"),
                    os.path.join(ROOT, "BENCHMARK.json")])
    if args.workload is None:
        parser.error("--workload is required")
    if not build("xdb_serving_bench"):
        return 1
    return run([os.path.join(BUILD, "xdb_serving_bench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", args.trace])


if __name__ == "__main__":
    sys.exit(main())
