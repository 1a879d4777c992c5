#!/usr/bin/env python3
"""The benchmark's own tests, on the tiny smoke sizes (about a minute):

    python3 perfbench/test_smoke.py

Every workload runs untraced and traced; each must end with a result
object holding, with its unit, every metric perfbench/metrics.py lists for
that kind of run, print the workload's detail lines, and report no failed
operation. BENCHMARK.json must list exactly those metrics. Without the library sources the benchmark must fail without a
result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, expected, details):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        self.assertTrue(lines[0].startswith("host: "), lines[0])
        host = json.loads(lines[0][len("host: "):])
        for key in ("nproc", "cpu_model", "l2", "llc", "scratch_fs",
                    "build_type", "git_commit", "seed"):
            self.assertIn(key, host)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        printed = {}
        for line in lines:
            fields = line.split()
            if len(fields) >= 4 and fields[0] == "detail":
                float(fields[2])
                printed[fields[1]] = fields[3]
        self.assertEqual(printed, details)
        # No scratch directory survives the run.
        runs = os.path.join(ROOT, ".bench_build", "runs")
        self.assertEqual(os.listdir(runs) if os.path.isdir(runs) else [], [])

    def check_both(self, workload):
        self.check(workload, 0, metrics.END_TO_END,
                   metrics.DETAILS[workload])
        self.check(workload, 1, metrics.PER_LAYER,
                   metrics.LAYER_DETAILS[workload])

    def test_fullchip(self):
        self.check_both("fullchip-10k")

    def test_service(self):
        self.check_both("service-1k")

    def test_variation(self):
        self.check_both("variation-1k")

    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(metrics.WORKLOADS))
        for key, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in bench[key]}
            self.assertEqual(listed, table, key)

    def test_fails_without_library_sources(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=base)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            out = run("fullchip-10k", 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
