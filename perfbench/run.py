#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the dvbench driver from source into
.bench_build/perfbench (a no-op when up to date), runs the benchmark's own
tests, then runs one workload. The last line of stdout is the result JSON;
build output goes to stderr. Exits nonzero, printing no result, when the
sources are missing, the build or the tests fail, or a correctness check
fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"dejavu sources not found under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "dvbench",
           "perfbench_tests", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["steady", "churn", "reconfig"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not build():
        log("build failed")
        return 2
    tests = subprocess.run([str(BUILD / "perfbench_tests")], stdout=sys.stderr)
    if tests.returncode != 0:
        log("perfbench tests failed")
        return 2

    cmd = [str(BUILD / "dvbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{args.workload}.csv")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"dvbench did not finish within {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
