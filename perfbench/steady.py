#!/usr/bin/env python3
"""Steadiness check: run a workload N times, one seed each, and print each
metric's median, quartiles and spread against its bound in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steady.py --workload hf-single [--workload ...] \\
        [--runs 10] [--first-seed 1] [--seconds S] [--trace 0|1] [--out FILE]

The spread is (q3 - q1) / median over the runs, with quartiles as
statistics.quantiles(values, n=4) gives them. A metric is "steady" when
its spread is below a third of its bound (setup_s is exempt: its bound
limits drift of the median, not spread). --out writes every run's result
line, and its detail line, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: run failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    details = [json.loads(l)["detail"] for l in lines[:-1] if '"detail"' in l]
    return result, (details[-1] if details else {})


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    record = {}
    for workload in args.workload:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, detail = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "result": result, "detail": detail})
            print("%s seed %d: correct=%s failed %d/%d" % (
                workload, seed, result["correct"], result["failed"], result["attempted"]),
                file=sys.stderr)
        record[workload] = runs

        print("\n%s: %d runs of %d s, seeds %d..%d" % (
            workload, args.runs, seconds, args.first_seed, args.first_seed + args.runs - 1))
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
        print("  failed share per run: %s; all correct: %s" % (
            shares, all(r["result"]["correct"] for r in runs)))
        print("  %-28s %-6s %12s %12s %12s %8s %6s  %s" % (
            "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict"))
        names = list(runs[0]["result"]["metrics"]) + sorted(runs[0]["detail"])
        for name in names:
            if name in runs[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                unit = runs[0]["result"]["metrics"][name]["unit"]
            else:
                values = [r["detail"][name] for r in runs if isinstance(r["detail"].get(name), (int, float))]
                unit = "detail"
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif name == "setup_s":
                verdict = "(median drift only)"
            else:
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print("  %-28s %-6s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
                name, unit, median, q1, q3, spread, "" if bound is None else bound, verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
