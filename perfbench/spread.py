#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload lanes-open --seeds 1 2 3 4 5 [--seconds 20]

Runs the benchmark once per seed (sequentially, untraced) and prints, per
metric, the median, the quartile spread (q3 - q1) / median with
statistics.quantiles(values, n=4), and whether that spread is within a
third of the metric's bound in BENCHMARK.json.  --save writes the raw
results as JSON for a later comparison.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"seed {seed}: exit code {done.returncode}")
        result = json.loads(done.stdout.strip().split("\n")[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}  ok")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = "yes" if spread <= metric["bound"] / 3 else (
            "within bound" if spread <= metric["bound"] else "NO")
        print(f"{metric['name']:<18} {med:>12.4f} {spread:>8.3f} "
              f"{metric['bound']:>6.2f}  {ok}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
