#!/usr/bin/env python3
"""Steadiness check: runs workloads several times with distinct seeds and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile range over the median) against the metric's bound in
BENCHMARK.json, plus the share of failed operations of every run.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
                                [--first-seed 1]

Run from the root of a checkout. A spread at or above a third of its
bound is flagged `WIDE` (`setup_s` is exempt: its bound limits only the
change of its median). Exits non-zero if a run fails, a run reports
`correct: false`, or the failed share differs between runs.
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
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds)
            results.append(r)
            print(f"{workload} seed {args.first_seed + i}: correct={r['correct']} "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if any(not r["correct"] for r in results) or len(shares) != 1:
            ok = False
            print(f"{workload}: FAIL correct={[r['correct'] for r in results]} shares={sorted(shares)}")
        print(f"{'metric':>16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  WIDE"
            print(f"{m['name']:>16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
