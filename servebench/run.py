#!/usr/bin/env python3
"""Builds the serving benchmark and runs one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload hot_direct --seed 1 --seconds 20 --trace 0

The first call configures and builds the repository's library plus the
benchmark program with CMake into $CARGO_TARGET_DIR (default .bench_build);
later calls only re-check the build. Build output goes to stderr, so the
last line on stdout is the benchmark's result JSON. Exits non-zero, with no
result line, when the build, the run or its correctness gate fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "servebench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build_dir = os.path.join(base, "servebench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 2
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work_dir", work_dir]
    with subprocess.Popen(command) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("servebench: run timed out", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
