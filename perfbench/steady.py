#!/usr/bin/env python3
"""Steadiness of the d3l discovery benchmark across seeds.

    python3 perfbench/steady.py [--runs N] [--seed0 K] [--workloads a,b]

Runs every workload N times through perfbench/run.py, with seeds K .. K+N-1
and BENCHMARK.json's run_seconds,
and prints for each metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: (Q3 - Q1) / median. An
end-to-end metric is flagged when its spread exceeds a third of its bound in
BENCHMARK.json, and again when it exceeds the bound itself (setup_s is
exempt from the spread rule: it is held by its median). Also prints the
share of failed operations, which must be identical in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def steal_ticks():
    """Total and stolen CPU ticks of the machine (/proc/stat), or zeros."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return sum(fields), (fields[7] if len(fields) > 7 else 0)
    except OSError:
        return 0, 0


def run_once(workload, seed, seconds):
    start = time.monotonic()
    total0, steal0 = steal_ticks()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    total1, steal1 = steal_ticks()
    result["steal"] = (steal1 - steal0) / max(1, total1 - total0)
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.seed0 + i, spec["run_seconds"])
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        walls = [r["wall_s"] for r in results]
        steal = " ".join(f"{r['steal']:.3f}" for r in results)
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed0}.."
              f"{args.seed0 + args.runs - 1}, correct "
              f"{all(r['correct'] for r in results)}, failed share "
              f"{sorted(shares)}, wall per run {statistics.mean(walls):.1f}s "
              f"(max {max(walls):.1f}s)\n  stolen CPU share per run: {steal}",
              flush=True)
        print(f"  {'metric':28} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = ("  OVER BOUND" if spread > bound else
                        "  over bound/3" if spread > bound / 3 else "")
            print(f"  {name:28} {m['unit']:6} {median:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}", flush=True)
    print(f"\nlargest spread / bound (setup_s aside): {worst:.3f}")


if __name__ == "__main__":
    main()
