#!/usr/bin/env python3
"""Builds the benchmark from the repository's sources and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload <ingest_backfill|scan_adhoc|dashboard_live>
                            --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/e2ebench (CMake, Ninja when available);
the first run configures and compiles, later runs reuse it. The last line
of standard output is the benchmark's JSON result. Build output goes to
standard error. Without the program's sources (../src) the build fails
and this script exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest_backfill", "scan_adhoc", "dashboard_live")
# A run must finish within 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "e2ebench")
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        if e.stdout:
            sys.stdout.write(e.stdout if isinstance(e.stdout, str)
                             else e.stdout.decode(errors="replace"))
        print("e2ebench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1]):
        # Relay everything but a result line, so no partial run reports.
        sys.stdout.write("\n".join(l for l in lines if not valid_result(l)))
        print("\ne2ebench: exited with code %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 5
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
