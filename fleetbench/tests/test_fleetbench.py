"""Tests of the fleet benchmark itself.

  python3 -m unittest discover -s fleetbench/tests -v

The smoke tests build the binary (once, into the benchmark's build
directory) and run every workload on a tiny fleet.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond(self):
        values = list(range(1, 101))
        value, pct, n = metrics.tail(values)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(metrics.tail(values),
                         metrics.tail(sorted(values)))

    def test_percentile_rises_with_samples(self):
        _, p_small, _ = metrics.tail(range(20))
        _, p_large, _ = metrics.tail(range(2000))
        self.assertEqual(p_small, 50.0)
        self.assertEqual(p_large, 99.5)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(metrics.tail([3, 1, 2]), (3, 100.0, 3))
        with self.assertRaises(ValueError):
            metrics.tail([])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        ms = 1_000_000
        spans = [
            ["step", 0, 100 * ms, -1],
            ["rollup", 10 * ms, 40 * ms, 0],
            ["digest", 20 * ms, 30 * ms, 1],
            ["rollup", 50 * ms, 60 * ms, 0],
            ["step", 200 * ms, 210 * ms, -1],
        ]
        got = metrics.self_times(spans)
        self.assertAlmostEqual(got["step"][0], 0.070)
        self.assertEqual(got["step"][1], 2)
        self.assertAlmostEqual(got["rollup"][0], 0.030)
        self.assertEqual(got["rollup"][1], 2)
        self.assertAlmostEqual(got["digest"][0], 0.010)
        total = sum(secs for secs, _ in got.values())
        self.assertAlmostEqual(total, 0.110)


class Schema(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.doc = json.load(f)

    def test_file_matches_metric_table(self):
        self.assertEqual(self.doc, metrics.manifest())

    def test_format_limits(self):
        doc = self.doc
        self.assertEqual(set(doc), {"command", "paths", "run_seconds",
                                    "workloads", "end_to_end",
                                    "per_layer"})
        self.assertLessEqual(len(doc["command"]), 32)
        self.assertTrue(1 <= len(doc["paths"]) <= 16)
        for path in doc["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertIsInstance(doc["run_seconds"], int)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        self.assertTrue(1 <= len(doc["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(doc["per_layer"]) <= 128)
        names = []
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))
        self.assertLessEqual(len(json.dumps(doc)), 64 * 1024)


def run_bench(*args, cwd=ROOT):
    script = os.path.join(cwd, "fleetbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    """Every workload on a tiny fleet, through the benchmark's command."""

    def check_result(self, proc, table):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json(proc.stdout)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {row[0] for row in table})
        for name, unit, *_ in table:
            entry = result["metrics"][name]
            self.assertEqual(entry["unit"], unit)
            self.assertTrue(math.isfinite(entry["value"]), name)
        return result

    def test_every_workload_untraced(self):
        for name, _ in metrics.WORKLOADS:
            with self.subTest(workload=name):
                proc = run_bench("--workload", name, "--seed", "3",
                                 "--seconds", "1", "--trace", "0",
                                 "--scale", "tiny")
                result = self.check_result(proc, metrics.END_TO_END)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_run_reports_layers_and_overhead(self):
        proc = run_bench("--workload", "tiered_faults", "--seed", "3",
                         "--seconds", "1", "--trace", "1",
                         "--scale", "tiny")
        self.check_result(proc, metrics.PER_LAYER)
        self.assertIn("self time per span", proc.stdout)
        self.assertIn("tracing overhead", proc.stdout)

    def test_simulated_metrics_repeat_for_a_seed(self):
        simulated = ("coverage_pct", "cpu_overhead_pct", "tco_savings_pct",
                     "jobs_ok_pct")
        seen = []
        for _ in range(2):
            proc = run_bench("--workload", "diurnal_zswap", "--seed", "5",
                             "--seconds", "1", "--scale", "tiny")
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            digest = re.search(r"state_digest\s+([0-9a-f]{16})", proc.stdout)
            values = last_json(proc.stdout)["metrics"]
            seen.append((digest.group(1),
                         [values[k]["value"] for k in simulated]))
        self.assertEqual(seen[0], seen[1])


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = os.path.join(run.build_dir(), "no-sources")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "fleetbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "fleetbench/run.py", "--workload",
             "cold_fleet", "--seed", "1", "--seconds", "1", "--trace",
             "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
