#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Runs every workload end to end at the smallest size (--tiny), untraced and
traced, and checks that each result line is well formed, carries exactly
the metrics BENCHMARK.json declares, and passes the correctness gate.  Then
shows that the gate fails when a pinned value is perturbed, and that
run.py exits non-zero without a result where the program cannot be built.
Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def bench(workload, trace=0, extra=()):
    p = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p, json.loads(p.stdout.strip().splitlines()[-1])


class Workloads(unittest.TestCase):
    def check_result(self, workload, trace, declared):
        names = {m["name"]: m["unit"] for m in declared}
        p, res = bench(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], p.stderr)
        self.assertEqual(res["failed"], 0, p.stderr)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), set(names))
        for name, m in res["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], names[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        return res

    def test_every_workload_untraced_and_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res = self.check_result(w["name"], 0, SPEC["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.check_result(w["name"], 1, SPEC["per_layer"])


class Gate(unittest.TestCase):
    def test_perturbed_pin_fails(self):
        for pin in ["dgemm_vec.retired", "dgemm_scalar.gflops", "mandel.checksum"]:
            with self.subTest(pin=pin):
                p, res = bench("kernels", extra=["--perturb", pin])
                self.assertEqual(p.returncode, 0, p.stderr)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertIn("check failed", p.stderr)

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, "perfbench", "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            p = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", "kernels", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
