#!/usr/bin/env python3
"""Steadiness report: run one workload K times, each with another seed, and
print per metric the median, the quartiles and the spread (the distance
between the quartiles as a share of the median), next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload point_lookup --runs 10

Run it from the repository root. By default it runs the command that
BENCHMARK.json names, with its run_seconds; --bin runs an already built
perfbench binary instead, to skip cargo's start-up.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--bin", default=None, help="a built perfbench binary")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = command + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
        result = json.loads(lines[-1])
        steal = next((l.split()[2] for l in lines if l.startswith("metric bench.cpu_steal ")), "?")
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            + f" (host cpu steal {steal})", flush=True)

    print(f"\n{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above a third of the bound"
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:32} {units[name]:6} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {b:>6}{flag}")


if __name__ == "__main__":
    main()
