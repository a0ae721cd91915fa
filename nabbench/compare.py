#!/usr/bin/env python3
"""Compare two result sets of the NAB session benchmark.

    python3 nabbench/compare.py BASE.jsonl CHANGE.jsonl [--benchmark FILE]

Both files are sweep.py output (one JSON line per run, tagged with workload,
seed and run index). Runs pair up by (workload, seed, run), which is the
alternating order sweep.py --baseline runs them in. For every workload, in
its own block, and every metric it prints each side's median and quartiles,
the share of pairs the change won (ties count for neither side) and a
verdict:

  improved     the change won at least 9/10 of the pairs and the medians
               differ by more than the base's interquartile distance
  worse        the change's median is worse than the base's by more than the
               metric's bound (metrics without a bound: it lost 9/10 of the
               pairs by more than the base's interquartile distance)
  unresolved   neither, while either side's spread is wider than the bound
               and not every change run beats every base run
  within       neither, and the spread is narrow enough to say so
  same         every pair read exactly the same (deterministic metrics)

Bounds and directions come from BENCHMARK.json. Exits 1 when any
end-to-end metric is worse.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["seed"], rec["run"])] = rec["result"]["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, change, higher_better, bound):
    if base == change:
        return "same", 0.0
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for a, b in zip(base, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(base, change) if sign * (b - a) < 0)
    share = wins / len(base)
    q1a, meda, q3a = quartiles(base)
    q1b, medb, q3b = quartiles(change)
    gap = sign * (medb - meda)
    if wins >= 0.9 * len(base) and gap > q3a - q1a:
        return "improved", share
    if bound is None:
        if losses >= 0.9 * len(base) and -gap > q3a - q1a:
            return "worse", share
        return "unresolved", share
    if meda and -gap / abs(meda) > bound:
        return "worse", share
    spread = max((q3a - q1a) / abs(meda) if meda else 0.0,
                 (q3b - q1b) / abs(medb) if medb else 0.0)
    if spread > bound and not min(sign * b for b in change) > max(sign * a for a in base):
        return "unresolved", share
    return "within", share


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = load(args.base), load(args.change)
    keys = sorted(set(base) & set(change))
    if not keys:
        print("compare: the two result sets share no (workload, seed, run)", file=sys.stderr)
        return 2

    any_worse = False
    listed = [w["name"] for w in bench["workloads"]]
    present = {k[0] for k in keys}
    for workload in [w for w in listed if w in present] + sorted(present - set(listed)):
        wkeys = [k for k in keys if k[0] == workload]
        print(f"== {workload} ({len(wkeys)} pairs)")
        print(f"  {'metric':30s} {'unit':14s} {'base median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'won':>5s}  verdict")
        names = [n for n in specs if all(n in base[k] and n in change[k] for k in wkeys)]
        for name in names:
            spec = specs[name]
            a = [base[k][name]["value"] for k in wkeys]
            b = [change[k][name]["value"] for k in wkeys]
            result, share = verdict(a, b, spec["better"] == "higher", spec.get("bound"))
            any_worse = any_worse or (result == "worse" and "bound" in spec)
            qa, qb = quartiles(a), quartiles(b)
            side_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            side_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            print(f"  {name:30s} {spec['unit']:14s} {side_a:34s} {side_b:34s} "
                  f"{share:5.2f}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
