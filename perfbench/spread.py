#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/spread.py [--runs 10] [--sets 2] [--first-seed 1] [--workload NAME ...]

Runs every workload --runs times, each on its own seed, through the
command of BENCHMARK.json (trace 0), and does that --sets times over the
same seeds, one whole set after the other.  For each end-to-end metric and each set it prints the
median and the spread: the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median.
A host metric's spread is flagged above a third of its bound, which
leaves room for noise.  A simulated metric (axis sim-* in
perfbench/metrics.json) repeats exactly for a seed, so its spread is
the inputs' own variation, not noise: it is flagged above its bound,
and with two or more sets any difference between sets is flagged.
With two or more sets it also prints, per metric, how much worse each
later set's median is than the first set's, as a share of the first
(the metric's direction decides what worse is), and flags a drift
above the bound.  Exits 1 if any run is incorrect or anything is
flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_set(bench, workload, seeds):
    """Values of every end-to-end metric over one run per seed; None if a
    run failed."""
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        proc = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}")
            return None
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            return None
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "metrics.json")) as f:
        axes = {m["name"]: m["axis"] for m in json.load(f)["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    # Set by set, each over every workload, so the sets lie apart in time
    # as two separate measurements of the same code would.
    by_workload = {w: [] for w in workloads}
    for _ in range(args.sets):
        for w in workloads:
            values = run_set(bench, w, seeds)
            if values is None:
                return 1
            by_workload[w].append(values)
    bad = False
    for w, sets in by_workload.items():
        print(f"{w} ({args.runs} seeds from {args.first_seed}, {args.sets} set(s))")
        for m in bench["end_to_end"]:
            exact = axes[m["name"]].startswith("sim")
            medians = []
            row = f"  {m['name']:20s} {m['unit']:9s} bound {m['bound']:.2f}"
            for values in sets:
                vals = values[m["name"]]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                flag = spread > (m["bound"] if exact else m["bound"] / 3)
                bad = bad or flag
                medians.append(med)
                row += f" | median {med:14.4f} spread {spread:6.4f}{' TOO WIDE' if flag else ''}"
            if exact and any(v[m["name"]] != sets[0][m["name"]] for v in sets[1:]):
                bad = True
                row += " | NOT EXACT across sets"
            for med in medians[1:]:
                worse = (med - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = worse > m["bound"]
                bad = bad or flag
                row += f" | worse by {worse:+.4f}{' REGRESSION' if flag else ''}"
            print(row)
            if args.values:
                for values in sets:
                    print("    " + " ".join(f"{v:.6g}" for v in values[m["name"]]))
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
