#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per (workload, seed), untraced, and prints
for every end-to-end metric the median over seeds and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound.

    python3 perfbench/steady.py [--seeds 1-10]

Run it from the repository root. Each run's values go to standard error as
it ends; the table goes to standard output.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    for name in names:
        raw[name] = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            start = time.monotonic()
            done = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - start
            if done.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed} not correct: {result}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            raw[name].append(values)
            print(f"{name} seed {seed}: {took:.1f} s {values}", file=sys.stderr)

    print("| workload | metric | median | IQR / median | bound | runs |")
    print("|---|---|---|---|---|---|")
    for name, runs in raw.items():
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / med:.4f}"
            else:
                spread = "n/a"
            print(f"| {name} | {metric} | {med:.6g} | {spread} | {bound} | {len(values)} |")


if __name__ == "__main__":
    main()
