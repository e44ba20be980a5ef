#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: the benchmark runs once per seed, and for each metric the
distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) is taken as a share of their median.

    python3 perfbench/spread.py --workload rpc_open_loop --seeds 1-10 [--seconds 12]

Prints one line per metric: median, spread, bound and spread / bound.
Exit status 1 when a spread (setup_s excepted) exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = run.benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    values = {name: [] for name in bounds}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 2
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    worst = 0.0
    for name, vals in values.items():
        bound = bounds[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{args.workload} {name}: median={med:.6g} spread={spread:.4f} "
              f"bound={bound} spread/bound={spread / bound:.2f}")
    return 1 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
