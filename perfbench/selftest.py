"""Self-test of the benchmark: smoke runs, the result contract, negative checks.

    python3 perfbench/selftest.py

Runs each workload at minimal size (the ``SMOKE`` definitions) untraced and
traced, checks the bypass structure of the traced counts, checks that a
corrupted CLI record or act output lowers ``ok_ratio`` (raises the failed
ratio), runs the real command line once on the shortest workload, and checks
that the runner refuses a directory without the package sources.  Scratch
files go under ``.perfbench/`` in the checkout.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, SMOKE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
PROBES = {n for n in PER_LAYER if n.endswith((".d42m6", ".d321m6"))}


def scratch_dir() -> tempfile.TemporaryDirectory:
    run.OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT)


class SmokeTest(unittest.TestCase):
    def test_end_to_end_each_workload(self):
        for name, workload in SMOKE.items():
            with self.subTest(workload=name):
                check, metrics, _ = run.end_to_end(workload, seed=1, seconds=1)
                self.assertEqual(check.failed, 0)
                self.assertGreater(check.attempted, 0)
                self.assertEqual(set(metrics), END_TO_END)
                for metric, (value, _) in metrics.items():
                    self.assertGreater(value, 0, metric)

    def test_traced_each_workload(self):
        counts = {}
        for name, workload in SMOKE.items():
            with self.subTest(workload=name):
                probes = name == "act-stream"
                check, metrics, _ = run.traced(workload, seed=1, probes=probes)
                self.assertEqual(check.failed, 0)
                wanted = PER_LAYER if probes else PER_LAYER - PROBES
                self.assertEqual(set(metrics), wanted)
                counts[name] = {k: v for k, (v, _) in metrics.items()}
        for name in ("bk-n7", "hooks-n12"):
            self.assertEqual(counts[name]["sliding.bounded_promotion_calls"], 0)
        self.assertEqual(counts["act-stream"]["group_actions.perm_builds"], 0)
        self.assertEqual(counts["act-stream"]["verify.jobs"], 0)
        self.assertGreater(counts["hooks-n12"]["representation.character_table_s"], 0)
        for name in ("bk-n7", "act-stream"):
            self.assertEqual(counts[name]["representation.character_table_s"], 0)
        _, metrics, _ = run.traced(SMOKE["bk-n7"], seed=1, probes=False)
        for metric in ("gt_patterns.strip_swap_calls", "shapes.perm_mul_calls",
                       "group_actions.perm_builds", "tableaux.domain_size"):
            self.assertEqual(metrics[metric][0], counts["bk-n7"][metric], metric)


class NegativeTest(unittest.TestCase):
    def test_corrupted_record_counts_as_failed(self):
        workload = SMOKE["bk-n7"]
        lines = (workloads.EXPECTED / workload.expected).read_text().splitlines()
        lines[0] = lines[0].replace('"PASS"', '"FAIL"')
        with scratch_dir() as tmp:
            Path(tmp, workload.expected).write_text("\n".join(lines) + "\n")
            with mock.patch.object(workloads, "EXPECTED", Path(tmp)):
                check, metrics, _ = run.end_to_end(workload, seed=1, seconds=1)
        self.assertGreater(check.failed, 0)
        self.assertLess(metrics["ok_ratio"][0], 1)

    def test_wrong_exit_code_fails_every_record(self):
        workload = SMOKE["relations-n5"]
        stdout = (workloads.EXPECTED / workload.expected).read_text()
        attempted, failed = workloads.check_cli(workload, 0, stdout)
        self.assertEqual(failed, attempted)
        self.assertEqual(workloads.check_cli(workload, 1, stdout), (attempted, 0))

    def test_corrupted_act_output_counts_as_failed(self):
        real = run.run_act

        def corrupt(r, inputs, trace_dir=None):
            result = real(r, inputs, trace_dir)
            result["outputs"][3][0].append(99)  # shape changed
            result["outputs"][5] = None  # as if the call had raised
            return result

        with mock.patch.object(run, "run_act", corrupt):
            check, metrics, samples = run.end_to_end(
                SMOKE["act-stream"], seed=1, seconds=1
            )
        self.assertEqual(check.failed, 2 * len(samples["wall_s"]))
        self.assertLess(metrics["ok_ratio"][0], 1)


class CommandLineTest(unittest.TestCase):
    def test_result_line_contract(self):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hooks-n12",
             "--seed", "2", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), END_TO_END)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name])

    def test_refuses_checkout_without_sources(self):
        with scratch_dir() as tmp:
            shutil.copytree(ROOT / "perfbench", Path(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bk-n7",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
