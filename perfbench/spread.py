#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--values] [WORKLOAD ...]

Runs the benchmark once per seed on each workload (all of BENCHMARK.json
when none is named) and prints, per metric, the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles, n=4), next to the metric's bound.  A spread at or
above a third of the bound is flagged: the benchmark is not steady enough
to resolve a change of the size the bound allows.  Run from the repository
root.
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--values", action="store_true", help="print every run's value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL)
            result = json.loads(proc.stdout.decode().rstrip("\n").split("\n")[-1])
            if not result["correct"] or proc.returncode != 0:
                print("%s seed %d: incorrect result (exit %d)" % (workload, seed,
                                                                 proc.returncode))
                steady = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(workload)
        for metric in spec["end_to_end"]:
            v = values.get(metric["name"], [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < metric["bound"] / 3 else "  <-- not steady"
            if flag and metric["name"] != "setup_s":
                steady = False
            print("  %-18s median %-12.6g spread %6.2f%%  bound %4.0f%%%s" % (
                metric["name"], statistics.median(v), 100 * spread,
                100 * metric["bound"], flag))
            if args.values:
                print("    " + " ".join("%.6g" % x for x in v))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
