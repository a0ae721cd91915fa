#!/usr/bin/env python3
"""Run the NAB session benchmark over many seeds and record every result.

    python3 nabbench/sweep.py --runs 10 --out new.jsonl
    python3 nabbench/sweep.py --runs 10 --out new.jsonl \\
        --baseline ../parent-checkout --baseline-out old.jsonl

Each run is `run.py --workload W --seed S --seconds T --trace X` from a
checkout root; seeds are --seed-base, --seed-base + 1, ... Each result line
(the JSON the benchmark prints last) is written to --out as one JSON line
tagged with its workload, seed and run index. With --baseline, every run is
made on both checkouts with the same seed, alternating which side goes
first, so the two files pair up for compare.py.

After the runs it prints, per workload and metric, the median, quartiles
and spread (interquartile distance over the median) and marks an
end-to-end metric whose spread exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    """Runs one benchmark process; returns its parsed result or None."""
    cmd = load_benchmark(checkout)["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"sweep: {workload} seed {seed} in {checkout} exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_report(records, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    for workload, recs in by_workload.items():
        print(f"== {workload} ({len(recs)} runs)")
        names = sorted({n for r in recs for n in r["result"]["metrics"]})
        for name in names:
            values = [r["result"]["metrics"][name]["value"]
                      for r in recs if name in r["result"]["metrics"]]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / abs(q2) if q2 else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                mark = "  <-- spread above bound/3"
            bound_text = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:30s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f} {bound_text}{mark}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", default=REPO, help="checkout root to run")
    ap.add_argument("--out", required=True, help="JSON-lines file to write")
    ap.add_argument("--baseline", help="second checkout, run alternately")
    ap.add_argument("--baseline-out", help="JSON-lines file for --baseline")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if bool(args.baseline) != bool(args.baseline_out):
        ap.error("--baseline and --baseline-out go together")

    bench = load_benchmark(args.checkout)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    sides = [(os.path.abspath(args.checkout), args.out, [])]
    if args.baseline:
        sides.append((os.path.abspath(args.baseline), args.baseline_out, []))

    ok = True
    for workload in workloads:
        for i in range(args.runs):
            seed = args.seed_base + i
            order = sides if i % 2 == 0 else sides[::-1]
            for checkout, _, records in order:
                result = run_once(checkout, workload, seed, seconds, args.trace)
                if result is None or not result["correct"]:
                    ok = False
                if result is not None:
                    records.append({"workload": workload, "seed": seed, "run": i,
                                    "trace": args.trace, "result": result})
    for checkout, out, records in sides:
        with open(out, "w") as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")
        print(f"# {checkout} -> {out}")
        spread_report(records, bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
