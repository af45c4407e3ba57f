#!/usr/bin/env python3
"""Repeat driver: runs workloads over many seeds and prints each metric's
median, quartiles and spread.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10]
                                [--seconds 20] [--trace 0|1]

Each (workload, seed) is one `perfbench/run.py` process, run one after
another from the root of a checkout. For every metric the table gives the
median, the first and third quartiles as `statistics.quantiles(v, n=4)`
computes them, and the spread (q3 - q1) / median, which BENCHMARK.json's
bounds are judged against. Metric lines a run prints only for humans (such
as driver.writer_late_p99_us in the end-to-end run) are included, and
every metric's per-run values follow the table in seed order. The workloads
default to those BENCHMARK.json names.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, workload_names


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    values = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            values[parts[1]] = (float(parts[2]), parts[3])
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if result is not None:
        for name, m in result["metrics"].items():
            values[name] = (m["value"], m["unit"])
    ok = done.returncode == 0 and result is not None and result["correct"]
    return ok, values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(workload_names()))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    failures = 0
    for workload in args.workloads.split(","):
        per_metric = {}
        for seed in seeds:
            ok, values = run(workload, seed, args.seconds, args.trace)
            if not ok:
                failures += 1
                print("%s seed %d: FAILED" % (workload, seed), flush=True)
                continue
            for name, (v, unit) in values.items():
                per_metric.setdefault(name, (unit, []))[1].append(v)
        print("== %s: %d seeds (%s), %d s per run, trace %d" %
              (workload, len(seeds), args.seeds, args.seconds, args.trace))
        print("%-42s %12s %12s %12s %8s  %s" %
              ("metric", "median", "q1", "q3", "spread", "unit"))
        for name in sorted(per_metric):
            unit, v = per_metric[name]
            med = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print("%-42s %12.6g %12.6g %12.6g %8.4f  %s" %
                  (name, med, q1, q3, spread, unit))
        print("per run, in seed order:")
        for name in sorted(per_metric):
            print("  %-40s %s" % (name, " ".join(
                "%.5g" % v for v in per_metric[name][1])))
        sys.stdout.flush()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
