"""Smoke test of the benchmark itself; it takes about a minute.

Run from the root of a checkout::

    python3 perfbench/smoke_test.py

It runs every workload for two iterations, untraced and traced,
and checks that every metric ``BENCHMARK.json`` names is printed with its
unit. It also checks that the correctness checks reject a perturbed phi and
a corrupted replay file, that a missing patch point degrades the traced run
instead of breaking it, and that the benchmark refuses to run without the
tabattr sources.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = run.RUNS / f"smoke-{os.getpid()}"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = BENCHMARK["command"] + list(args)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestDeclaredMetrics(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, tracer.PER_LAYER)
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(workloads.WORKLOADS))


class TestWorkloadsPrintEveryMetric(unittest.TestCase):
    def check_result(self, result: dict, declared: list[dict], positive: bool) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(printed["value"]), metric["name"])
            if positive:
                self.assertGreater(printed["value"], 0, metric["name"])

    def test_each_workload_untraced_and_traced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                common = ("--workload", name, "--seed", "3", "--seconds", "1",
                          "--min-iterations", "2")
                untraced = result_line(bench(*common, "--trace", "0"))
                self.check_result(untraced, BENCHMARK["end_to_end"], positive=True)
                traced = result_line(bench(*common, "--trace", "1"))
                self.check_result(traced, BENCHMARK["per_layer"], positive=False)
                self.assertGreater(traced["metrics"]["backends.query.calls"]["value"], 0)
                self.assert_blocking_path_adds_up(run.RUNS / f"trace-{name}.jsonl.gz")

    def assert_blocking_path_adds_up(self, dump: Path) -> None:
        """Self times of the main thread's spans sum to the traced wall time."""
        with gzip.open(dump, "rt", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        spans = [json.loads(line) for line in lines[1:]]
        covered = defaultdict(float)
        for name, start, end, parent, thread in spans:
            if parent is not None and spans[parent][4] == thread:
                covered[parent] += end - start
        main = spans[0][4]
        self_sum = sum(
            (s[2] - s[1]) - covered[i] for i, s in enumerate(spans) if s[4] == main
        )
        wall = sum(s[2] - s[1] for s in spans if s[0] == tracer.ROOT_SPAN)
        self.assertAlmostEqual(self_sum, wall, delta=1e-6)


class TestChecksReject(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.import_tabattr()

    def tearDown(self):
        workloads.remove_tree(WORK)

    def run_iteration(self, workload, phases=None):
        it = workload.prepare(0)
        for phase in phases or it.phases:
            for argv in it.phases[phase]:
                workloads.run_cli(argv)
        return it

    def test_perturbed_phi_is_rejected(self):
        workload = workloads.OracleProtocol(WORK, seed=5)
        workload.setup()
        it = self.run_iteration(workload)
        workload.check(it)
        path = it.outputs[0] / "results_jsd.json"
        results = json.loads(path.read_text(encoding="utf-8"))
        entry = next(iter(results.values()))
        key = entry["feature_keys"][0]
        entry["phi"][key] += 1e-9
        path.write_text(json.dumps(results), encoding="utf-8")
        with self.assertRaisesRegex(workloads.CheckFailed, "phi differs"):
            workload.check(it)

    def test_corrupted_replay_file_is_rejected(self):
        workload = workloads.RecordReplay(WORK, seed=5)
        workload.setup()
        try:
            it = workload.prepare(0)
            self.run_iteration(workload, ["record"])
            recording = it.outputs[0] / "recording.json"
            store = json.loads(recording.read_text(encoding="utf-8"))
            # Move a little mass between the two answers of one response: still
            # a valid answer, and too small to change which prompts are replayed.
            for payload in store.values():
                first, second = payload["tokens"]
                p, q = math.exp(first["logprob"]), math.exp(second["logprob"])
                if p - q > 0.01:
                    first["logprob"], second["logprob"] = math.log(p - 1e-4), math.log(q + 1e-4)
                    break
            recording.write_text(json.dumps(store), encoding="utf-8")
            self.run_iteration(workload, ["replay"])
            with self.assertRaisesRegex(workloads.CheckFailed, "differs from the recorded"):
                workload.check(it)
        finally:
            workload.close()


class TestTracerDegrades(unittest.TestCase):
    def test_missing_patch_point_is_reported_absent(self):
        run.import_tabattr()
        spans = tracer.SPANS + (("divergence.similarity", "tabattr.attribution", "retired"),)
        stderr = io.StringIO()
        original = tracer.SPANS
        tracer.SPANS = spans
        try:
            traced = tracer.Tracer()
            with contextlib.redirect_stderr(stderr):
                traced.install()
            traced.uninstall()
        finally:
            tracer.SPANS = original
        self.assertEqual(
            traced.absent, ["divergence.similarity: tabattr.attribution.retired not found"]
        )
        self.assertIn("layer divergence.similarity is absent", stderr.getvalue())
        metrics = traced.layer_metrics(1, None)
        self.assertEqual(
            set(metrics) | {"trace.overhead_s", "faithfulness.auc_gap"}, set(tracer.PER_LAYER)
        )
        import tabattr.attribution
        import tabattr.divergence

        self.assertIs(tabattr.attribution.similarity, tabattr.divergence.similarity)


    def test_changed_signature_still_runs(self):
        traced = tracer.Tracer()
        wrapped = traced._span_wrapper("backends.evaluate_prompts", lambda backend: "ran")
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(wrapped("backend"), "ran")
        self.assertEqual(len(traced.absent), 1)
        self.assertEqual(traced.layer_metrics(1, None)["faithfulness.run_deletion.prompts"], 0)


class TestRefusesWithoutSources(unittest.TestCase):
    def test_bare_directory_exits_nonzero_without_result(self):
        bare = WORK / "bare"
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCHMARK["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "oracle-protocol", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            workloads.remove_tree(WORK)


if __name__ == "__main__":
    unittest.main()
