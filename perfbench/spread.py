#!/usr/bin/env python3
"""Spread mode of the benchmark.

Runs one workload once per seed and prints, for every metric, the median
over the runs and the interquartile range as a share of the median
(quartiles from ``statistics.quantiles(values, n=4)``), next to the
metric's bound from BENCHMARK.json. Bounds come from these measured
spreads, not from guesses: a metric is steady when its spread stays
below a third of its bound.

    python3 perfbench/spread.py --workload paper_cv --runs 10 [--first-seed 1] [--seconds 10]

Run from anywhere inside the repository; it invokes the command that
BENCHMARK.json names from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        row = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {row}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<32} {'median':>14} {'unit':<6} {'iqr/median':>10} {'bound':>6}  steady")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        if bound is None:
            verdict, shown = "", "-"
        else:
            verdict, shown = ("yes" if spread < bound / 3 else "NO"), f"{bound:.2f}"
        print(f"{name:<32} {median:>14.6g} {units[name]:<6} {spread:>10.4f} {shown:>6}  {verdict}")


if __name__ == "__main__":
    main()
