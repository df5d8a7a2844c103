#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Each workload named in BENCHMARK.json runs once untraced and once traced at
one seed (a few minutes in all; the first run builds). The tests check that
every run prints each metric BENCHMARK.json names, with its unit and
direction, that the outputs were checked correct, and that the simulated
results are bit-identical across the two processes and between the traced
and the untraced run.
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SEED = 3


def run(workload, trace, seed=SEED):
    """Runs one workload for the shortest budget; returns (report, lines)."""
    p = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    assert p.returncode == 0, p.stdout + p.stderr
    return json.loads(lines[-1]), lines


def metric_lines(lines):
    """name -> (unit, better) from the report's `metric` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            out[parts[1]] = (parts[3], parts[4])
    return out


def digest(lines):
    return next(line.split()[1] for line in lines if line.startswith("sim-digest"))


class WorkloadTest(unittest.TestCase):
    def check_report(self, report, lines, spec):
        self.assertEqual(set(report), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(report["correct"], "\n".join(lines))
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual(set(report["metrics"]), {m["name"] for m in spec})
        printed = metric_lines(lines)
        for m in spec:
            self.assertEqual(report["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            if "bound" in m:
                self.assertEqual(printed[m["name"]], (m["unit"], m["better"]), m["name"])
                self.assertNotEqual(report["metrics"][m["name"]]["value"], 0, m["name"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                plain, plain_lines = run(w["name"], 0)
                self.check_report(plain, plain_lines, SPEC["end_to_end"])
                traced, traced_lines = run(w["name"], 1)
                self.check_report(traced, traced_lines, SPEC["per_layer"])
                # The traced run also compares each traced sub-run with its
                # untraced twin in-process; the digest compares processes.
                self.assertEqual(digest(plain_lines), digest(traced_lines))
                self.assertEqual(plain["attempted"], traced["attempted"])
                self.assertEqual(plain["failed"], traced["failed"])

    def test_chaos_history(self):
        report, lines = run("chaos-history", 0, seed=0)
        self.assertTrue(report["correct"], "\n".join(lines))
        printed = metric_lines(lines)
        for name in ("wall_us_per_op", "txn_per_s", "failed_frac", "keys_unchecked_frac"):
            self.assertIn(name, printed)

    def test_bad_arguments_fail_without_a_report(self):
        p = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "no-such-workload", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
