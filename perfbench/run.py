#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (library sources from src/ plus the benchmark program) into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Later runs reuse
the build. Build output goes to stderr; the benchmark's own stdout is passed
through, and its last line is the JSON result. The exit code is the
benchmark's (0 = ran and every checked answer was correct).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="alter one checked answer; the run must then fail")
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    data_dir = os.path.join(root, "perfbench-data", str(os.getpid()))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.inject_fault:
        cmd.append("--inject-fault")
    # The program's tuning knobs come from HISTGRAPH_* variables; the
    # benchmark measures its defaults, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HISTGRAPH_")}
    try:
        return subprocess.run(cmd, env=env).returncode
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
