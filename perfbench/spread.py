#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the interquartile range as a share of the median, next to the
metric's bound from BENCHMARK.json.  A metric is steady when its spread is
below a third of its bound (setup_s is reported, not judged).

Run from the repository root:

    python3 perfbench/spread.py --workload tree-update --runs 5
    python3 perfbench/spread.py --workload all --runs 10 --first-seed 101

Exits 1 when a run fails or a spread is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    steady = True
    for w in workloads:
        runs = [run_once(w, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        print(f"== {w} ({args.runs} runs)")
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            judged = m["name"] != "setup_s"
            ok = not judged or share < m["bound"] / 3
            steady = steady and ok
            print(f"  {m['name']:24} median {med:12.5g}  spread {share:7.2%}"
                  f"  bound {m['bound']:.2f}  {'ok' if ok else 'NOT STEADY'}"
                  f"  [{min(values):.4g}..{max(values):.4g}]")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
