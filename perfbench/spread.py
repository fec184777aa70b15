#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...] [--seconds S]

Runs perfbench/run.py once per seed (untraced) from the repository root
and prints, per end-to-end metric, the median and the distance between
the first and third quartile as a share of the median -- the figure
that is held against each metric's bound in BENCHMARK.json.  A spread
above a third of the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in [int(s) for s in args.seeds.split(",")]:
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: incorrect (%d of %d failed)"
                  % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())),
            flush=True)
    print("%-26s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print("%-26s %12.5g %7.1f%% %7.1f%%%s" % (
            m["name"], med, 100 * spread, 100 * m["bound"], flag))


if __name__ == "__main__":
    main()
