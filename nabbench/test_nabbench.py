#!/usr/bin/env python3
"""Tests of the NAB session benchmark at a tiny size.

    python3 nabbench/test_nabbench.py

Runs every workload of BENCHMARK.json through run.py with --tiny (64-word
values, at most 6 instances per session, at most 2 session slots), in both
modes, and checks the result contract: the last stdout line is one JSON
object with exactly correct/attempted/failed/metrics, every metric the mode
owes is present with its declared unit, and each is also printed by name
with its unit above the JSON. Also checks that the determinism fingerprint
repeats across processes and that bad arguments are refused.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(*args):
    cmd = BENCH["command"] + list(args)
    return subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def tiny(workload, trace, seed=1):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny")


class ResultContract(unittest.TestCase):
    def check(self, trace, declared):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc = tiny(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in declared}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                text = "\n".join(lines[:-1])
                for name, unit in want.items():
                    self.assertRegex(text, rf"(?m)^{name}\s+\S+ {unit}$")

    def test_end_to_end_metrics(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, BENCH["per_layer"])


class Determinism(unittest.TestCase):
    def test_fingerprint_repeats_across_processes(self):
        def fingerprints(seed):
            proc = tiny("dispute_churn", 0, seed)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            return [l for l in proc.stdout.splitlines() if l.startswith("fingerprint")]

        first = fingerprints(3)
        self.assertEqual(len(first), 2)  # one line per session slot
        self.assertEqual(first, fingerprints(3))


class Arguments(unittest.TestCase):
    def test_bad_arguments_are_refused(self):
        for args in (["--workload", "nope"], ["--workload", "lossy_dense", "--trace", "2"],
                     ["--workload", "lossy_dense", "--seed", "-1"], ["--bogus", "1"]):
            with self.subTest(args=args):
                proc = run(*args)
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout.strip().count("{"), 0)


if __name__ == "__main__":
    sys.exit(unittest.main())
