#!/usr/bin/env python3
"""Builds the GOOD load benchmark from source and runs one workload.

Usage, from the repository root:

    python3 loadbench/run.py --workload commit_paper --seed 1 --seconds 10 --trace 0

The first call configures and builds a Release tree in .bench_build/loadbench
(the libraries under src/ plus the driver in this directory); later calls
only rebuild what changed. Build output goes to standard error, so the last
line of standard output is the driver's JSON result. The exit code is the
driver's, or non-zero when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "loadbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "loadbench-run")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("loadbench: no GOOD sources at %s/src" % ROOT, file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "good_loadbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "good_loadbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--serial", type=int, choices=(0, 1), default=0,
                        help="traced mode: replay the streams one after "
                             "another instead of concurrently")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serial", str(args.serial), "--workdir", WORK_DIR,
           "--git-sha", git_sha()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("loadbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
