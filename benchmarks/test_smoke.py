"""Smoke test of the benchmark itself at a tiny size (A3, m = 1).

    python3 -m pytest -q benchmarks/test_smoke.py

Every workload runs one pass on A3 m=1, untraced and traced, and must print
every metric BENCHMARK.json names with its gates passing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from workloads import DIAGRAMS, GRIDS, make_cases, run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = [("A3", 1)]


class SmokeTest(unittest.TestCase):
    def test_workloads_match_the_spec(self):
        self.assertEqual(sorted(GRIDS), sorted(w["name"] for w in SPEC["workloads"]))

    def test_every_metric_printed_and_gates_pass(self):
        for workload in GRIDS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, res = run(workload, 1, 0.0, trace, grid=TINY, setup_reps=1)
                    self.assertTrue(res["correct"], lines)
                    self.assertEqual(res["failed"], 0, lines)
                    self.assertGreater(res["attempted"], 0)
                    names = [m["name"] for m in SPEC[key]]
                    self.assertEqual(sorted(res["metrics"]), sorted(names))
                    for name in names:
                        self.assertTrue(any(line.startswith(f"{name} = ") for line in lines))
                        value = res["metrics"][name]["value"]
                        self.assertIsInstance(value, (int, float))

    def test_digest_repeats_for_a_seed(self):
        def digest(seed):
            lines, _ = run("cluster-enum", seed, 0.0, False, grid=TINY, setup_reps=1)
            return next(line for line in lines if line.startswith("digest "))

        self.assertEqual(digest(7), digest(7))

    def test_seed_zero_gives_the_presets(self):
        import mcluster

        for case in make_cases([(d, 1) for d in DIAGRAMS], 0):
            self.assertEqual(case.arrows, mcluster.preset(case.diagram).arrows)

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(
                    os.path.join(ROOT, path), os.path.join(tmp, path),
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "mesh-basis", "--seed", "0",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
