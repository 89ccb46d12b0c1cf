#!/usr/bin/env python3
"""Checks of dxrec-bench's own output contract.

  python3 dxrec-bench/test_bench.py

Each workload runs briefly, untraced and traced; the last stdout line must
name every metric BENCHMARK.json lists for that mode, with its unit, and
report every output check passed. A copy of the benchmark without the
dxrec sources must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace, seconds=1):
    command = [sys.executable, str(Path(cwd) / "dxrec-bench" / "run.py"),
               "--workload", workload, "--seed", "3",
               "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class OutputContract(unittest.TestCase):
    def check(self, workload, trace):
        result = run(ROOT, workload, trace)
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        report = json.loads(result.stdout.splitlines()[-1])
        self.assertEqual(set(report), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(report["correct"])
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual(report["failed"], 0)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: metric["unit"] for name, metric in report["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in expected})
        for name, metric in report["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return report["metrics"]

    def test_every_workload_names_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    metrics = self.check(workload["name"], trace)
                    if not trace:
                        for name in ("ops_per_s", "latency_p50_ms", "setup_s",
                                     "rss_peak_mb"):
                            self.assertGreater(metrics[name]["value"], 0, name)

    def test_served_runs_leave_no_session_open(self):
        for workload in ("serve-hot", "serve-churn"):
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1)
                self.assertEqual(metrics["serve.sessions_open"]["value"], 0)
                self.assertGreater(metrics["serve.exec_us.p50"]["value"], 0)

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "dxrec-bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            result = run(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(result.returncode, 0)
            self.assertFalse(any(line.startswith("{")
                                 for line in result.stdout.splitlines()))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
