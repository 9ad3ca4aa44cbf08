#!/usr/bin/env python3
"""Builds the LawsDB benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. --test builds and runs the
benchmark's own tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run ends well inside the 180 s every run must finish in.
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    """Configures and builds `target`; both are incremental."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's tests")
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    try:
        if args.test:
            binary = build(build_dir, "perfbench_test")
            return subprocess.run([binary], cwd=build_dir).returncode
        if not args.workload:
            parser.error("--workload is required")
        binary = build(build_dir, "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work", "%s-%s" % (args.workload, args.seed))
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--work-dir", work_dir]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
