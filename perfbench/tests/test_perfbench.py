#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny scale.

    python3 perfbench/tests/test_perfbench.py

* each workload, timed and traced, prints every metric BENCHMARK.json
  names with its unit and passes its checks;
* a flipped verdict (campaign, reanalyze), a daily bin moved without
  its amplitude (campaign) or a corrupted snapshot byte (store_campaign)
  makes the run fail;
* without the repository's sources the benchmark exits nonzero and
  prints no result.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# 2% of each workload's blocks: a run takes a second or two.
TINY = "0.02"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args, cwd=ROOT, script=RUN):
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done, result


def tiny(workload, trace, *extra):
    return run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--scale", TINY, *extra)


class MetricsTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))

    def test_timed_run_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, result = tiny(workload, 0)
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
        self.assertEqual(set(layers), {m["name"] for m in SPEC["per_layer"]})
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, result = tiny(workload, 1)
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])
                self.assertIn("check ok   jsonl_check accepts the Chrome trace",
                              done.stdout)
                self.assertGreaterEqual(
                    result["metrics"]["trace.coverage"]["value"], 0.9)


class NegativeTest(unittest.TestCase):
    def assert_fails(self, workload, inject):
        done, result = tiny(workload, 0, "--inject", inject)
        self.assertNotEqual(done.returncode, 0)
        self.assertIsNotNone(result, done.stderr[-2000:])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("check FAIL", done.stdout)

    def test_flipped_campaign_verdict_fails(self):
        self.assert_fails("campaign", "flip-verdict")

    def test_moved_campaign_daily_bin_fails(self):
        self.assert_fails("campaign", "move-bin")

    def test_flipped_reanalyze_verdict_fails(self):
        self.assert_fails("reanalyze", "flip-verdict")

    def test_corrupted_snapshot_byte_fails(self):
        self.assert_fails("store_campaign", "corrupt-snapshot")

    def test_without_sources_exits_nonzero_without_a_result(self):
        bare = ROOT / ".bench_build" / "tests" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done, result = run("--workload", "campaign", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=bare,
                               script=bare / "perfbench" / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
