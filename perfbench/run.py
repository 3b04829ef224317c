#!/usr/bin/env python3
"""Runs one workload of the SNB-Interactive benchmark and prints its result.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds perfbench/ together with the
libraries it needs from src/ into .bench_build/perfbench (CMake,
RelWithDebInfo; the first build takes about a minute on four cores), then
runs the workload binary. --seed becomes both the datagen seed and the
query-mix seed. The binary's commentary goes to stderr; the last line of
stdout is the JSON result. With --trace 1 the span file is written to
.bench_build/spans/<workload>.csv, replacing the previous traced run's.

Workloads, metrics and their bounds are listed in BENCHMARK.json; the
per-layer to end-to-end map is in perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("interactive", "lookups")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "snb_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", here, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "snb_perfbench", "-j",
         jobs],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-spin-ns", type=int, default=0,
        help="busy-wait before every update (sensitivity self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    command = [BINARY, "--workload", args.workload,
               "--mix-seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--update-spin-ns", str(args.update_spin_ns)]
    if args.trace:
        spans_dir = os.path.join(".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, f"{args.workload}.csv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {run.returncode}")
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {lines[-1]!r}")
    print(lines[-1])


if __name__ == "__main__":
    main()
