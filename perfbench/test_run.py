"""Tests of the benchmark itself, on its --quick variant.

Run from the repository root:  python3 -m unittest discover -s perfbench
The first test to run builds the harness (about a minute from scratch).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the module under test lives next to this file)

ROOT = run.ROOT
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, check=False, timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class QuickRunTest(unittest.TestCase):
    def test_end_to_end_metrics_on_every_workload(self):
        names = [m["name"] for m in CONTRACT["end_to_end"]]
        for workload in CONTRACT["workloads"]:
            with self.subTest(workload=workload["name"]):
                proc = bench("--quick", "--workload", workload["name"], "--seed", "11")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                line = result_line(proc)
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(line["correct"])
                self.assertGreater(line["attempted"], 0)
                self.assertEqual(line["failed"], 0)
                self.assertEqual(list(line["metrics"]), names)
                for metric in line["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics_and_rollup(self):
        names = [m["name"] for m in CONTRACT["per_layer"]]
        # Layers that run on some workloads only, and where they run.
        only_on = {
            "graph.oracle_prewarm_ms": {"router-mix"},
            "scenario.cell_ms_max": {"gnp-probe", "router-mix"},
            "traffic.frontier_batched_share": {"gnp-probe", "router-mix"},
        }
        for workload in (w["name"] for w in CONTRACT["workloads"]):
            with self.subTest(workload=workload):
                proc = bench("--quick", "--workload", workload, "--seed", "11", "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                line = result_line(proc)
                self.assertTrue(line["correct"])
                self.assertEqual(list(line["metrics"]), names)
                # A listed metric that reads 0 can never move by a share.
                for name, metric in line["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                record = json.loads((run.BUILD_DIR / "results" /
                                     f"{workload}-seed11-trace1-quick.json").read_text())
                for name, where in only_on.items():
                    self.assertEqual(name in record["metrics"], workload in where, name)
                self.assertIn("obs.unattributed_ms", record["metrics"])
                self.assertEqual(record["provenance"]["build_type"], "Release")

    def test_digest_mismatch_fails_every_message(self):
        with mock.patch.object(run, "reference_digest", return_value="0" * 16):
            line, record = run.bench_run("torus-drain", 11, 0.2, 0, True)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], line["attempted"])
        self.assertTrue(any("reference" in p for p in record["problems"]))


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "gnp-probe", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class SummaryTest(unittest.TestCase):
    def test_quartiles_and_single_sample(self):
        s = run.summary([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual((s["median"], s["n"]), (3.0, 5))
        self.assertLess(s["q1"], s["median"])
        self.assertGreater(s["q3"], s["median"])
        self.assertEqual(run.summary([7.0]), {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1})
        self.assertIsNone(run.summary([None]))


if __name__ == "__main__":
    unittest.main()
