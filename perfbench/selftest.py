"""Self-tests of the benchmark; not part of the repository's test suite.

Run from the repository root (takes about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import layers
import oracle
import run
import workloads

ROOT = run.ROOT
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
BENCH = json.loads(BENCHMARK_JSON.read_text())


def _gravshift(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gravshift", *argv], capture_output=True,
                          text=True, env=run.Runner().env, cwd=ROOT, timeout=120)


def _benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    script = cwd / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=175)


class BenchmarkJsonTest(unittest.TestCase):
    def test_declared_metrics_match_the_code(self):
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]],
                         layers.PER_LAYER)
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(workloads.WORKLOADS))

    def test_contract_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in BENCH[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for metric in BENCH["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))


class CheckerRejectsTest(unittest.TestCase):
    def test_scaled_deflection(self):
        argv = ["photon", "--body", "sun", "--b-radii", "3"]
        proc = _gravshift(argv)
        stats = oracle.check(argv, proc.returncode, proc.stdout)
        self.assertEqual(stats["rays"], 1)
        record = json.loads(proc.stdout)
        record["deflection_rad"] *= 1.0 + 1e-3
        record["deflection_arcsec"] *= 1.0 + 1e-3
        with self.assertRaisesRegex(oracle.CheckError, "deflection"):
            oracle.check(argv, proc.returncode, json.dumps(record))

    def test_flipped_experiment_verdict(self):
        argv = ["experiment", "--report", "json"]
        proc = _gravshift(argv)
        oracle.check(argv, proc.returncode, proc.stdout)
        payload = json.loads(proc.stdout)
        payload["double_effect_excluded"] = False
        with self.assertRaises(oracle.CheckError):
            oracle.check(argv, proc.returncode, json.dumps(payload))
        payload = json.loads(proc.stdout)
        row = next(r for r in payload["reports"] if r["model"] == "double")
        row["verdict"] = "consistent"
        with self.assertRaises(oracle.CheckError):
            oracle.check(argv, proc.returncode, json.dumps(payload))

        argv = ["experiment", "--report", "text"]
        proc = _gravshift(argv)
        oracle.check(argv, proc.returncode, proc.stdout)
        flipped = proc.stdout.replace("double effect: EXCLUDED", "double effect: not excluded")
        with self.assertRaises(oracle.CheckError):
            oracle.check(argv, proc.returncode, flipped)
        with self.assertRaises(oracle.CheckError):
            oracle.check(argv, 1, proc.stdout)

    def test_truncated_csv(self):
        argv = ["photon", "--body", "earth", "--sweep-radii", "2:3:2", "--format", "csv"]
        proc = _gravshift(argv)
        self.assertEqual(oracle.check(argv, proc.returncode, proc.stdout)["rays"], 2)
        lines = proc.stdout.splitlines(keepends=True)
        with self.assertRaisesRegex(oracle.CheckError, "rays printed"):
            oracle.check(argv, proc.returncode, "".join(lines[:-1]))
        with self.assertRaises(oracle.CheckError):
            oracle.check(argv, proc.returncode, proc.stdout[:-12])

    def test_start_point_filter_matches_the_program(self):
        refused = next(b for b in (6.957e8 * (1 + i / 997) for i in range(1000))
                       if workloads.start_point_refused(b))
        proc = _gravshift(["photon", "--body", "sun", "--b-m", repr(refused)])
        self.assertEqual(proc.returncode, 1)
        self.assertIn("termination circle", proc.stderr)


class MinimumRunTest(unittest.TestCase):
    """A minimum-size run of each workload completes and prints every metric."""

    def _run(self, workload: str, trace: int):
        proc = _benchmark(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        for metric in declared:
            self.assertRegex(proc.stdout, rf"\n  {re.escape(metric['name'])} .* "
                                          rf"{re.escape(metric['unit'])} +n=\d+")
        return result

    def test_each_workload(self):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self._run(workload, trace)

    def test_fails_without_the_program_sources(self):
        bare = run.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(BENCHMARK_JSON, bare / "BENCHMARK.json")
            proc = _benchmark("cli-mix", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
