#!/usr/bin/env python3
"""Sensitivity self-test of the benchmark.

    python3 perfbench/selftest.py [--seeds 3] [--spin-ns 100000]

Run it from the repository root. It runs `interactive` and `lookups` once
per seed as they are, and once more with a fixed busy-wait that the
benchmark's own connector wrapper adds before every update (the program
is untouched). It passes when

  * the spin makes the median `throughput_ops_s` on `interactive`, whose
    schedule is one third updates, worse than the unspun median by more
    than that metric's bound, and
  * every end-to-end metric of `lookups`, which has no updates, stays
    within its bound of the unspun median.

Bounds come from BENCHMARK.json. Exit code 0 means both held.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(workload, seed, seconds, spin_ns):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0",
         "--update-spin-ns", str(spin_ns)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, base, value):
    """Share by which `value` is worse than `base` (negative: better)."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--spin-ns", type=int, default=100000)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    medians = {}
    for workload in ("interactive", "lookups"):
        for spin in (0, args.spin_ns):
            runs = [run(workload, seed, bench["run_seconds"], spin)
                    for seed in range(1, args.seeds + 1)]
            medians[workload, spin] = {
                name: statistics.median(r[name] for r in runs)
                for name in metrics}

    ok = True
    tput = metrics["throughput_ops_s"]
    drop = worse_by(tput, medians["interactive", 0]["throughput_ops_s"],
                    medians["interactive", args.spin_ns]["throughput_ops_s"])
    caught = drop > tput["bound"]
    ok &= caught
    print(f"interactive throughput_ops_s worse by {drop:.3f} with a "
          f"{args.spin_ns} ns spin per update (bound {tput['bound']}): "
          f"{'caught' if caught else 'MISSED'}")
    for name, metric in metrics.items():
        change = worse_by(metric, medians["lookups", 0][name],
                          medians["lookups", args.spin_ns][name])
        inside = change <= metric["bound"]
        ok &= inside
        print(f"lookups {name} worse by {change:+.3f} (bound "
              f"{metric['bound']}): {'unchanged' if inside else 'FLAGGED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
