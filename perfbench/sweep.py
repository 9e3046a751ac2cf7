#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads fuzz-pp --seeds 1-5 \
        --seconds 25 --trace 0 --out DIR
    python3 perfbench/sweep.py --drift DIR_A DIR_B

The first form runs perfbench/run.py once per (workload, seed), keeps
each run's JSON result in DIR/<workload>.<seed>.t<trace>.json and
prints, per workload and metric, the median over the seeds and the
distance between the first and third quartiles as a share of that
median (statistics.quantiles(values, n=4)): the spread that a metric's
bound in BENCHMARK.json must stay above.

The second form is the exact-count gate across runs: every metric with
a deterministic unit (count, Mwords, ratio) must read the same in both
directories for the same workload, seed and trace mode.  Each
difference is reported by metric name as a nondeterminism bug, and the
exit code is then 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

DETERMINISTIC_UNITS = {"count", "Mwords", "ratio"}


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def sweep(args):
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      "no result", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            path = os.path.join(args.out,
                                f"{workload}.{seed}.t{args.trace}.json")
            with open(path, "w") as f:
                f.write(lines[-1] + "\n")
            runs.append(result)
            print(f"{workload} seed {seed}: {time.time() - t0:.1f} s, "
                  f"correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']}",
                  flush=True)
        print(f"== {workload}: {len(runs)} runs")
        for name, m in runs[0]["metrics"].items():
            med, share = spread([r["metrics"][name]["value"] for r in runs])
            print(f"  {name:28s} median {med:16.6f} {m['unit']:7s} "
                  f"IQR/median {share:.4f}")
    return 0


def drift(dir_a, dir_b):
    bad = 0
    for fname in sorted(os.listdir(dir_a)):
        other = os.path.join(dir_b, fname)
        if not fname.endswith(".json") or not os.path.exists(other):
            continue
        with open(os.path.join(dir_a, fname)) as f:
            a = json.load(f)["metrics"]
        with open(other) as f:
            b = json.load(f)["metrics"]
        for name, m in a.items():
            if m["unit"] in DETERMINISTIC_UNITS and \
                    b.get(name, {}).get("value") != m["value"]:
                bad += 1
                print(f"nondeterminism: {fname} {name}: {m['value']} vs "
                      f"{b.get(name, {}).get('value')}")
    print("drift: none" if bad == 0 else f"drift: {bad} metric(s)")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="enum-tour-medium,mutate-pp,fuzz-pp")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--drift", nargs=2, metavar="DIR")
    args = p.parse_args()
    if args.drift:
        return drift(*args.drift)
    if not args.out:
        p.error("--out is required for a sweep")
    return sweep(args)


if __name__ == "__main__":
    sys.exit(main())
