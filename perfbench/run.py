#!/usr/bin/env python3
"""End-to-end benchmark of the Moira reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk|term_start|propagate \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake project on top of ../src) into
.bench_build/perfbench, runs one workload in its own process with a fresh
scratch directory under .bench_build that is removed afterwards, and relays
the workload's report.  The last line of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics"}.  Build output goes to standard
error.  A traced run leaves its spans in .bench_build/trace/.  Without the
Moira sources beside this directory the build fails and the script exits
non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("desk", "term_start", "propagate")
# One run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, target)


def run_checked(command):
    """Runs `command`; returns its stdout lines, or None if it failed."""
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None
    if process.returncode != 0:
        sys.stderr.write(out)
        print("perfbench: run exited with %d" % process.returncode, file=sys.stderr)
        return None
    return out.splitlines()


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            sorted(result) == ["attempted", "correct", "failed", "metrics"] and
            isinstance(result["attempted"], int) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit checks")
    args = parser.parse_args()

    if args.self_test:
        checks = build("perfbench_checks")
        if checks is None:
            return 2
        return subprocess.run([checks]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("moira_perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    traces = os.path.join(ROOT, ".bench_build", "trace")
    os.makedirs(traces, exist_ok=True)
    try:
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scratch", scratch,
                   "--spans", os.path.join(traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
        lines = run_checked(command)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not lines or not valid_result(lines[-1]):
        print("perfbench: no valid result line", file=sys.stderr)
        return 3
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
