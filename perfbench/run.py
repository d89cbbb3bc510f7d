#!/usr/bin/env python3
"""Build and run the TyTAN benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is one of device-idle, device-churn, fleet-sweep, gateway-overload.
The runner (perfbench/main.ml) is built from source with dune, then run
once per workload in its own process.  It reports metric values by name;
this script labels them from perfbench/metrics.json (unit, axis), prints
every end-to-end metric with its unit, axis and sample count, and ends
with one JSON object: {"correct", "attempted", "failed", "metrics"},
holding the metrics BENCHMARK.json gates (end-to-end ones with
--trace 0, per-layer ones with --trace 1) with their units.

`--workload all` runs the four workloads one after another, prints each
one's report and writes the collected results to
.perfbench-out/results.json.

The build writes only to _build/ (dune's shared cache is disabled), the
traced run writes its Chrome trace to .perfbench-out/.  A failed build
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["device-idle", "device-churn", "fleet-sweep", "gateway-overload"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def run_bounded(cmd, timeout, **kwargs):
    """Run cmd to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, _ = run_bounded(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if code != 0 or not os.path.exists(EXE):
        print(f"perfbench: build failed (dune exit {code})", file=sys.stderr)
        return False
    return True


def load_labels():
    """BENCHMARK.json and perfbench/metrics.json, checked against each other.

    BENCHMARK.json names the gated metrics with their units; metrics.json
    labels every metric the runner prints.  A gated metric must carry the
    same unit in both, and the per-layer lists must name the same metrics.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "metrics.json")) as f:
        labels = json.load(f)
    e2e = {m["name"]: m for m in labels["end_to_end"]}
    for m in bench["end_to_end"]:
        if m["name"] not in e2e or e2e[m["name"]]["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: not labelled with unit {m['unit']} in metrics.json")
    gated_layer = [m["name"] for m in bench["per_layer"]]
    labelled_layer = [m["name"] for m in labels["per_layer"]]
    if gated_layer != labelled_layer:
        raise ValueError("per-layer metrics differ between BENCHMARK.json and metrics.json")
    return bench, labels


def report(labels, bench, metrics):
    """Print every end-to-end metric with its unit, axis and sample count."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"  {'metric':28s} {'value':>16s}  {'unit':9s} {'axis':28s} {'n':>8s}  gate")
    for m in labels["end_to_end"]:
        got = metrics.get(m["name"], {})
        v = got.get("value")
        value = "n/a" if v is None else f"{v:.4f}"
        n = "-" if v is None else str(got.get("n", "-"))
        pct = f" (p{got['pct']:g})" if v is not None and "pct" in got else ""
        gate = f"  bound {bounds[m['name']]:g}" if m["name"] in bounds else ""
        print(f"  {m['name']:28s} {value:>16s}  {m['unit']:9s} {m['axis']:28s} {n:>8s}{pct}{gate}")


def contract_result(bench, result, trace):
    """The benchmark's result: BENCHMARK.json's metrics for this mode, in
    its order, with their units.  None if a correct run lacks one."""
    gated = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in gated:
        v = result["metrics"].get(m["name"], {}).get("value")
        if v is None:
            if trace:
                v = 0  # a layer this workload does not reach did no work
            elif result["correct"]:
                print(f"perfbench: the run did not measure {m['name']}", file=sys.stderr)
                return None
            else:
                v = 0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_one(workload, seed, seconds, trace):
    """Run one workload; prints its output and returns (exit, raw result)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        code, out = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        return code or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        return 1, None
    print("\n".join(lines[:-1]))
    return 0, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        bench, labels = load_labels()
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        code, result = run_one(w, args.seed, args.seconds, args.trace)
        if code != 0:
            return code
        if not args.trace:
            report(labels, bench, result["metrics"])
        final = contract_result(bench, result, args.trace)
        if final is None:
            return 1
        results[w] = result
        if args.workload != "all":
            print(json.dumps(final))
            return 0
        print()
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench-out", "results.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "workloads": results}, f, indent=1, sort_keys=True)
    correct = all(r["correct"] for r in results.values())
    print(f"all workloads: correct={correct}; results in {os.path.relpath(path, ROOT)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
