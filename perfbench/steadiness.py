#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each chosen
workload and prints, per metric, the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to a third of the metric's bound.

    python3 perfbench/steadiness.py --seeds 1,2,3,4,5 [--workloads a,b]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = str(bench["run_seconds"])
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    )
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", seconds, "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr)
        print(f"== {workload} ({len(seeds)} runs)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
                worst = max(worst, spread / bound)
            print(f"  {name:<30} median {med:<14.6g} spread {spread:7.4f}  "
                  f"bound {bound}  {mark}")
            print("      " + " ".join(f"{v:.4g}" for v in vs))
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
