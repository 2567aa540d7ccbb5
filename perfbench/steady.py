#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs the benchmark command from BENCHMARK.json several times on one
workload, each with another seed, and prints per metric the median, the
quartiles, and the quartile spread as a share of the median next to
the metric's bound. With --trace 1 it instead runs every seed twice and
reports any count metric that differs between the two runs.

    python3 perfbench/steady.py --workload serve-cold --runs 10
    python3 perfbench/steady.py --workload paper --runs 2 --trace 1

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="append the raw per-run metrics to this file")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seeds = range(args.first_seed, args.first_seed + args.runs)

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        drift = 0
        for seed in seeds:
            a, _ = run(bench["command"], args.workload, seed, bench["run_seconds"], 1)
            b, _ = run(bench["command"], args.workload, seed, bench["run_seconds"], 1)
            for name, unit in units.items():
                if unit == "count" and a[name] != b[name]:
                    drift += 1
                    print(f"seed {seed}: {name} differs: {a[name]} vs {b[name]}")
            print(f"seed {seed}: counts compared", flush=True)
        sys.exit(1 if drift else 0)

    values = {}
    for seed in seeds:
        m, _ = run(bench["command"], args.workload, seed, bench["run_seconds"], 0)
        for k, v in m.items():
            values.setdefault(k, []).append(v)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in m.items()), flush=True)
    if args.json:
        with open(args.json, "a") as f:
            f.write(json.dumps({"workload": args.workload, "values": values}) + "\n")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if name != "setup_s":
            worst = max(worst, spread / bounds[name])
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} {bounds[name]:>6}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
