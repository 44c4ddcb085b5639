#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload gen --seeds 1-10 \
        [--seconds 30] [--trace 0] [--log-dir DIR]

For each metric of the result lines, prints the median over the runs and
the distance between the first and third quartile (as Python's
statistics.quantiles(values, n=4) gives them) as a share of the median,
next to the metric's bound from BENCHMARK.json. Exits 1 when any run
fails or reports correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log-dir")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound")
                  for m in json.load(f)["end_to_end"]}

    values, ok = {}, True
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if args.log_dir:
            os.makedirs(args.log_dir, exist_ok=True)
            name = "%s-seed%d-trace%s.log" % (args.workload, seed, args.trace)
            with open(os.path.join(args.log_dir, name), "w") as f:
                f.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode,
                                            proc.stderr[-2000:]))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        spread = "n/a"
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = "%.4f" % ((q3 - q1) / abs(med))
        print("%-28s median %14.6g  spread %s  bound %s  (%d runs)" %
              (name, med, spread, bounds.get(name), len(vals)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
