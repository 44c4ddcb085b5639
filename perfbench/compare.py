#!/usr/bin/env python3
"""Compares two saved perfbench logs pair by pair.

    python3 perfbench/compare.py BASE.log NEW.log [--top N]

Each log is the stdout of one `perfbench/run.py` run. Pairs are matched by
(workload, idx) on their `row` lines. Prints the pairs whose wall time moved
most, the geometric mean of NEW/BASE wall-time ratios over all matched pairs,
and the NEW/BASE ratio of every metric both result lines share. A ratio
below 1 means NEW is lower.
"""
import argparse
import json
import math
import sys


def load(path):
    rows, result = {}, None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("row "):
                fields = dict(kv.split("=", 1) for kv in line.split()[1:])
                rows[(fields["workload"], int(fields["idx"]))] = fields
            elif line.startswith("{"):
                result = json.loads(line)
    return rows, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--top", type=int, default=10)
    args = ap.parse_args()
    base_rows, base = load(args.base)
    new_rows, new = load(args.new)

    ratios = []
    for key in sorted(base_rows.keys() & new_rows.keys()):
        b = float(base_rows[key]["wall_ms"])
        n = float(new_rows[key]["wall_ms"])
        if b > 0 and n > 0:
            ratios.append((n / b, key, b, n))
    if not ratios:
        sys.exit("no common pair rows")
    ratios.sort(key=lambda r: abs(math.log(r[0])), reverse=True)
    print("pairs moved most (new/base wall):")
    for ratio, (workload, idx), b, n in ratios[:args.top]:
        row = new_rows[(workload, idx)]
        print("  %s idx=%d %s %.3f ms -> %.3f ms  x%.3f" %
              (workload, idx, row["class"], b, n, ratio))
    geo = math.exp(sum(math.log(r[0]) for r in ratios) / len(ratios))
    print("geomean new/base wall over %d pairs: %.4f" % (len(ratios), geo))

    if base and new:
        print("metrics (new/base):")
        for name in sorted(base["metrics"].keys() & new["metrics"].keys()):
            b = base["metrics"][name]["value"]
            n = new["metrics"][name]["value"]
            ratio = "x%.4f" % (n / b) if b else "n/a"
            print("  %-28s %14.6g -> %14.6g  %s" % (name, b, n, ratio))


if __name__ == "__main__":
    main()
