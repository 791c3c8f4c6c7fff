from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tabattr

from tabattr import (
    PromptTemplate,
    SamplingConfig,
    SyntheticBackend,
    SyntheticOracleSpec,
    VerbalizerMap,
    cache,
    cli,
    config_fingerprint,
    curve_auc,
    load_or_evaluate,
    score,
)
from tabattr.errors import BackendError
from tabattr.faithfulness import DeletionCurve
from conftest import KeepAliveHandler, brute_force_raw_phi, serving
from reference import build_prompt, fields_at

WEIGHTS = {"f0": 0.9, "f1": 2.0, "f2": 0.3, "f3": 1.4, "f4": 0.6, "f5": 0.15}
# Written by `attribute ... --max-coalitions 10 --indices 0,1` over the
# inputs below, before the store held raw bytes: decimal lists, old fingerprint.
DECIMAL_STORE = Path(__file__).resolve().parent / "data" / "decimal_store.jsonl"


@pytest.fixture
def oracle(tmp_path):
    bias = 3.0 - sum(WEIGHTS.values())
    spec = SyntheticOracleSpec(classes=("yes", "no"), weights=WEIGHTS, bias=bias)
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(spec.to_payload()))
    return spec, path


def _auc(curve: dict) -> float:
    return curve_auc(
        DeletionCurve(
            source=curve["source"],
            steps=tuple(curve["steps"]),
            fractions=tuple(curve["fractions"]),
            mean_probs=tuple(curve["mean_probs"]),
            counts=tuple(curve["counts"]),
            traces={},
            n_instances=curve["n_instances"],
        )
    )


class TestSynthDemoGolden:
    def test_exhaustive_demo_matches_enumeration_and_queries_once(
        self, oracle, tmp_path, monkeypatch
    ):
        spec, path = oracle
        fetched: list[str] = []
        fetch = SyntheticBackend._fetch

        def counting_fetch(self, prompt, k, wait):
            fetched.append(prompt)
            return fetch(self, prompt, k, wait)

        deletion_starts_at = []
        run_deletion = cli.run_deletion

        def marking_run_deletion(*args, **kwargs):
            deletion_starts_at.append(len(fetched))
            return run_deletion(*args, **kwargs)

        monkeypatch.setattr(SyntheticBackend, "_fetch", counting_fetch)
        monkeypatch.setattr(cli, "run_deletion", marking_run_deletion)
        out = tmp_path / "out"
        argv = ["synth-demo", "--oracle", str(path), "--out", str(out), "--ratio", "1.0",
                "--n-instances", "3", "--seed", "4"]
        assert cli.main(argv) == 0

        template = PromptTemplate()
        instances = cli.synthetic_instances(spec, 3, 4)
        attribution_prompts = fetched[: deletion_starts_at[0]]
        # 2^6 - 1 coalitions per instance; the full coalition is the full prompt.
        assert len(attribution_prompts) == 3 * 63
        assert set(attribution_prompts) == {
            build_prompt(template, fields_at(instance, subset))
            for instance in instances
            for size in range(1, 7)
            for subset in itertools.combinations(range(6), size)
        }

        vmap = VerbalizerMap.from_mapping({c: [c] for c in spec.classes})
        backend = SyntheticBackend(spec)
        for metric in ("jsd", "kl", "l1"):
            results = json.loads((out / f"results_{metric}.json").read_text())
            for instance in instances:
                expected = brute_force_raw_phi(instance, backend, template, vmap, metric)
                got = results[str(instance.index)]["raw_phi"]
                assert got == pytest.approx(expected, abs=1e-12)

        curves = json.loads((out / "curves.json").read_text())["curves"]
        assert _auc(curves["jsd"]) < _auc(curves["random"])

    def test_results_hold_the_scores_and_the_store_reproduces_them(
        self, oracle, tmp_path, capsys
    ):
        spec, path = oracle
        out = tmp_path / "out"
        argv = ["synth-demo", "--oracle", str(path), "--out", str(out), "--ratio", "1.0",
                "--n-instances", "3"]
        assert cli.main(argv) == 0

        config = SamplingConfig(ratio=1.0)
        vmap = VerbalizerMap.from_mapping({c: [c] for c in spec.classes})
        evaluations = load_or_evaluate(
            out / "evaluations.jsonl", cli.synthetic_instances(spec, 3, 0),
            lambda instance: pytest.fail("not stored"),
            config, config_fingerprint(config, PromptTemplate(), vmap),
        )
        for metric in ("jsd", "kl", "l1"):
            results = json.loads((out / f"results_{metric}.json").read_text())
            for evaluation in evaluations:
                payload = results[str(evaluation.instance_index)]
                assert "records" not in payload
                rescored = score(evaluation, metric)
                assert payload["raw_phi"] == rescored.raw_phi.tolist()
                assert [payload["phi"][k] for k in payload["feature_keys"]] == rescored.phi.tolist()
                assert payload == json.loads(json.dumps(rescored.to_payload()))

    def test_true_order_is_used_without_reading_it_back(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        _, path = oracle
        loaded = []
        load = cli.load_external_ranking
        monkeypatch.setattr(
            cli, "load_external_ranking", lambda *args: loaded.append(args) or load(*args)
        )
        read = []
        from_json = SyntheticOracleSpec.from_json.__func__
        monkeypatch.setattr(SyntheticOracleSpec, "from_json",
                            classmethod(lambda cls, p: read.append(p) or from_json(cls, p)))
        out = tmp_path / "out"
        assert cli.main(["synth-demo", "--oracle", str(path), "--out", str(out),
                         "--n-instances", "2", "--max-coalitions", "20"]) == 0
        assert loaded == []
        # The oracle file is read for the verbalizer's classes and for the backend.
        assert read == [str(path), str(path)]
        true_order = json.loads((out / "external_ranking.json").read_text())["global"]
        assert true_order == sorted(WEIGHTS, key=lambda k: -WEIGHTS[k])
        assert json.loads((out / "rank_report_jsd.json").read_text())["external_ranking"] == (
            true_order
        )
        traces = json.loads((out / "curves.json").read_text())["curves"]["external"]["traces"]
        assert set(traces) == {"0", "1"}


def _tabular_inputs(tmp_path):
    dataset = tmp_path / "data.csv"
    dataset.write_text("f0,f1,f2\n1,2,3\n4,5,6\n7,8,9\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"f0": "numeric", "f1": "numeric", "f2": "numeric"}))
    return ["--dataset", str(dataset), "--schema", str(schema)]


def _true_order(tmp_path):
    path = tmp_path / "true_order.json"
    path.write_text(json.dumps({"global": ["f1", "f0", "f2"]}))
    return path


class TestTemplateMarkers:
    """The synthetic oracle reads the input block between the run's markers."""

    def _phi(self, tmp_path, name, *template):
        spec = SyntheticOracleSpec(("yes", "no"), {"age": 2.0, "job": 1.0, "city": 0.5})
        oracle_path = tmp_path / "weights.json"
        oracle_path.write_text(json.dumps(spec.to_payload()))
        dataset = tmp_path / "people.csv"
        dataset.write_text("age,job,city\n42,clerk,paris\n")
        schema = tmp_path / "people_schema.json"
        schema.write_text(json.dumps({"age": "numeric", "job": "categorical",
                                      "city": "categorical"}))
        out = tmp_path / name
        argv = ["attribute", "--dataset", str(dataset), "--schema", str(schema),
                "--backend", f"synthetic:{oracle_path}", "--out", str(out), *template]
        assert cli.main(argv) == 0
        (result,) = json.loads((out / "results_jsd.json").read_text()).values()
        return result["phi"], json.loads((out / "evaluations.jsonl").read_text().splitlines()[0])

    def test_phi_is_the_same_under_another_templates_markers(self, tmp_path):
        template = tmp_path / "template.json"
        template.write_text(json.dumps({
            "instruction": "Rows list fields such as age:42 and job:clerk.",
            "input_marker": "INPUT:", "response_marker": "ANSWER:",
        }))
        default_phi, default_header = self._phi(tmp_path, "default")
        marked_phi, marked_header = self._phi(tmp_path, "marked", "--template", str(template))
        assert marked_phi == default_phi
        assert default_phi["city"] < default_phi["job"] < default_phi["age"]
        # Another reading of the prompts is another oracle: its store is not reused.
        assert marked_header["backend"] != default_header["backend"]


class TestIndexSelection:
    @pytest.mark.parametrize("command", ["attribute", "deletion-curve"])
    def test_duplicate_indices_rejected(self, command, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        argv = [command, *_tabular_inputs(tmp_path), "--backend",
                f"synthetic:{oracle_path}", "--indices", "1,1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "duplicates" in capsys.readouterr().err
        assert not (out / "index_manifest.json").exists()

    @pytest.mark.parametrize("command", ["deletion-curve", "compare"])
    def test_explicit_indices_must_match_the_recorded_selection(
        self, command, oracle, tmp_path, capsys
    ):
        _, oracle_path = oracle
        out = tmp_path / "out"
        common = [*_tabular_inputs(tmp_path), "--backend", f"synthetic:{oracle_path}",
                  "--max-coalitions", "10", "--out", str(out)]
        assert cli.main(["attribute", *common, "--indices", "0,1"]) == 0
        capsys.readouterr()
        argv = [command, *common, "--indices", "2", "--external", str(_true_order(tmp_path))]
        if command == "deletion-curve":
            argv += ["--sources", "random"]
        assert cli.main(argv) == 1
        assert "diverge" in capsys.readouterr().err
        assert not (out / "curves.json").exists()
        assert not (out / "rank_report_jsd.json").exists()
        # The recorded selection, named explicitly, is accepted.
        argv[argv.index("2")] = "1,0"
        assert cli.main(argv) == 0

    def test_compare_without_a_manifest_writes_nothing(self, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        argv = ["compare", *_tabular_inputs(tmp_path), "--backend", f"synthetic:{oracle_path}",
                "--indices", "0", "--external", str(_true_order(tmp_path)), "--out", str(out)]
        assert cli.main(argv) == 1
        assert "no index manifest" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["attribute", "deletion-curve"])
    def test_dataset_without_rows_writes_no_manifest(self, command, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        inputs = _tabular_inputs(tmp_path)
        dataset = Path(inputs[1])
        dataset.write_text("f0,f1,f2\n")
        out = tmp_path / "out"
        argv = [command, *inputs, "--backend", f"synthetic:{oracle_path}", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert str(dataset) in err and "no rows" in err
        assert not (out / "index_manifest.json").exists()

    def test_synth_demo_rejects_indices(self, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        argv = ["synth-demo", "--oracle", str(oracle_path), "--out", str(out),
                "--n-instances", "2", "--indices", "1"]
        assert cli.main(argv) == 2
        assert "--indices" in capsys.readouterr().err
        assert not out.exists()


class TestUncarriedOracleKey:
    """The column ``Capital Gain`` becomes the field key ``capital_gain``, so
    an oracle weight on ``"Capital Gain"`` could never be carried by a
    prompt; the oracle is refused before the run writes anything."""

    @staticmethod
    def _inputs(tmp_path, key):
        dataset = tmp_path / "data.csv"
        dataset.write_text("age,Capital Gain\n30,100\n40,0\n50,7\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"age": "numeric", "Capital Gain": "numeric"}))
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps({"classes": ["yes", "no"], "weights": {"age": 0.5, key: 2.0}}))
        return ["--dataset", str(dataset), "--schema", str(schema),
                "--backend", f"synthetic:{oracle}", "--ratio", "1.0"], oracle

    @pytest.mark.parametrize("verbalizer", [False, True], ids=["oracle-classes", "verbalizer"])
    def test_attribute_refuses_it_before_writing(self, verbalizer, tmp_path, capsys):
        inputs, _ = self._inputs(tmp_path, "Capital Gain")
        if verbalizer:
            vmap = tmp_path / "vmap.json"
            vmap.write_text(json.dumps({"yes": ["yes"], "no": ["no"]}))
            inputs += ["--verbalizer", str(vmap)]
        out = tmp_path / "out"
        assert cli.main(["attribute", *inputs, "--out", str(out)]) == 2
        assert "'Capital Gain'" in capsys.readouterr().err
        assert not (out / "index_manifest.json").exists()
        assert not (out / "evaluations.jsonl").exists()

    def test_synth_demo_refuses_it_before_writing(self, tmp_path, capsys):
        _, oracle = self._inputs(tmp_path, "Capital Gain")
        out = tmp_path / "out"
        assert cli.main(["synth-demo", "--oracle", str(oracle), "--out", str(out)]) == 2
        assert "'Capital Gain'" in capsys.readouterr().err
        assert not out.exists()

    def test_the_field_key_is_carried(self, tmp_path, capsys):
        inputs, _ = self._inputs(tmp_path, "capital_gain")
        out = tmp_path / "out"
        assert cli.main(["attribute", *inputs, "--out", str(out)]) == 0
        capsys.readouterr()
        results = json.loads((out / "results_jsd.json").read_text())
        assert all(abs(r["phi"]["capital_gain"]) > abs(r["phi"]["age"]) for r in results.values())


class TestMalformedSpecFiles:
    """An oracle, verbalizer or template file of the wrong shape exits,
    naming what is wrong, before the output directory is made; an oracle
    whose score leaves the range of ``exp`` runs."""

    @pytest.mark.parametrize(
        "change, named",
        [({"weights": {**WEIGHTS, "f0": float("nan")}}, "'f0' must be a finite number, got nan"),
         ({"weights": [1, 2]}, "weights must map keys to numbers, got [1, 2]"),
         ({"classes": "ab"}, "two distinct class strings, got 'ab'")],
        ids=["nan-weight", "weights-list", "classes-string"],
    )
    def test_synth_demo_refuses_the_oracle(self, change, named, oracle, tmp_path, capsys):
        _, path = oracle
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
        out = tmp_path / "out"
        argv = ["synth-demo", "--oracle", str(path), "--out", str(out), "--n-instances", "1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"malformed oracle spec {path}: " in err and named in err
        assert not out.exists()

    def test_synth_demo_refuses_an_oracle_of_one_feature(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"classes": ["yes", "no"], "weights": {"f0": 1.0}}))
        out = tmp_path / "out"
        assert cli.main(["synth-demo", "--oracle", str(path), "--out", str(out)]) == 2
        assert "attribution needs at least 2 features, got ['f0']" in capsys.readouterr().err
        assert not out.exists()

    def test_attribute_refuses_the_template(self, oracle, tmp_path, capsys):
        _, path = oracle
        template = tmp_path / "template.json"
        template.write_text(json.dumps({"instruction": "Go.", "preamble": "x"}))
        out = tmp_path / "out"
        argv = ["attribute", *_tabular_inputs(tmp_path), "--backend", f"synthetic:{path}",
                "--template", str(template), "--out", str(out)]
        assert cli.main(argv) == 1
        assert "unknown keys: ['preamble']" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_demo_runs_a_score_below_the_exp_range(self, oracle, tmp_path, capsys):
        _, path = oracle
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "weights": {**WEIGHTS, "f0": -800.0}}))
        out = tmp_path / "out"
        argv = ["synth-demo", "--oracle", str(path), "--out", str(out), "--n-instances", "1",
                "--max-coalitions", "20"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        (result,) = json.loads((out / "results_jsd.json").read_text()).values()
        assert max(result["phi"], key=lambda key: abs(result["phi"][key])) == "f0"

    @pytest.mark.parametrize(
        "mapping, named",
        [({"yes": "yes", "no": "no"}, "class 'yes' needs a list of surface-form strings"),
         ({"yes": "yes", "no": "nope"}, "class 'yes' needs a list of surface-form strings"),
         ({"yes": ["yes"], "no": [3]}, "class 'no' needs a list of surface-form strings")],
        ids=["strings", "strings-sharing-letters", "number-form"],
    )
    def test_attribute_refuses_the_verbalizer(self, mapping, named, oracle, tmp_path, capsys):
        _, path = oracle
        verbalizer = tmp_path / "vb.json"
        verbalizer.write_text(json.dumps(mapping))
        out = tmp_path / "out"
        argv = ["attribute", *_tabular_inputs(tmp_path), "--backend", f"synthetic:{path}",
                "--verbalizer", str(verbalizer), "--out", str(out)]
        assert cli.main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestLargeDataset:
    """Every row is checked at load; only the selected rows become instances."""

    @staticmethod
    def _inputs(tmp_path, bad_row=None):
        rows = [f"{i},{i % 7},{i % 3}" for i in range(400)]
        if bad_row is not None:
            rows[bad_row] = "oops,1,2"
        dataset = tmp_path / "big.csv"
        dataset.write_text("f0,f1,f2\n" + "\n".join(rows) + "\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"f0": "numeric", "f1": "numeric", "f2": "numeric"}))
        return ["--dataset", str(dataset), "--schema", str(schema)]

    def test_attribute_builds_only_the_selected_row(self, oracle, tmp_path, built_rows, capsys):
        _, oracle_path = oracle
        argv = ["attribute", *self._inputs(tmp_path), "--backend", f"synthetic:{oracle_path}",
                "--indices", "3", "--max-coalitions", "10", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert built_rows == [3]

    def test_bad_cell_in_an_unselected_row_exits_1(self, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        argv = ["attribute", *self._inputs(tmp_path, bad_row=300), "--backend",
                f"synthetic:{oracle_path}", "--indices", "3", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "row 302: cannot parse numeric value 'oops' in column 'f0'" in err
        assert not (out / "index_manifest.json").exists()

    def test_label_only_schema_exits_2_before_the_backend_opens(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        _, oracle_path = oracle
        dataset = tmp_path / "labels.csv"
        dataset.write_text("y\nyes\nno\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"y": "label"}))

        def no_backend(*args):
            raise AssertionError("backend opened")

        monkeypatch.setattr(cli, "open_backend", no_backend)
        argv = ["attribute", "--dataset", str(dataset), "--schema", str(schema), "--backend",
                f"synthetic:{oracle_path}", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: an instance needs at least one field\n"


class TestEvaluationStore:
    """Every command in an output directory reads and fills one metric-free store."""

    @staticmethod
    def _argv(command, oracle_path, tmp_path, out, *extra):
        return [command, *_tabular_inputs(tmp_path), "--backend", f"synthetic:{oracle_path}",
                "--max-coalitions", "10", "--indices", "0,1", "--out", str(out), *extra]

    @staticmethod
    def _counting(monkeypatch) -> list[str]:
        fetched: list[str] = []
        fetch = SyntheticBackend._fetch

        def counting_fetch(self, prompt, k, wait):
            fetched.append(prompt)
            return fetch(self, prompt, k, wait)

        monkeypatch.setattr(SyntheticBackend, "_fetch", counting_fetch)
        return fetched

    def test_second_metric_makes_no_backend_call(self, oracle, tmp_path, monkeypatch, capsys):
        _, oracle_path = oracle
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, out)) == 0
        fetched = self._counting(monkeypatch)
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, out, "--metric", "kl")) == 0
        assert fetched == []
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, fresh, "--metric", "kl")) == 0
        assert (out / "results_kl.json").read_bytes() == (fresh / "results_kl.json").read_bytes()
        assert [p.name for p in out.glob("*cache*")] == []

    def test_compare_and_deletion_score_any_metric_from_the_store(
        self, oracle, tmp_path, capsys
    ):
        _, oracle_path = oracle
        out = tmp_path / "out"
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, out)) == 0
        external = ["--external", str(_true_order(tmp_path))]
        assert cli.main(self._argv("compare", oracle_path, tmp_path, out, "--metric", "l1",
                                   *external)) == 0
        assert json.loads((out / "rank_report_l1.json").read_text())["metric"] == "l1"
        assert cli.main(self._argv("deletion-curve", oracle_path, tmp_path, out,
                                   "--sources", "kl,random")) == 0

    def test_compare_opens_no_backend(self, oracle, tmp_path, monkeypatch, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, out)) == 0

        def no_backend(*args):
            raise AssertionError("backend opened")

        monkeypatch.setattr(cli, "open_backend", no_backend)
        argv = self._argv("compare", oracle_path, tmp_path, out,
                          "--external", str(_true_order(tmp_path)))
        assert cli.main(argv) == 0
        assert (out / "rank_report_jsd.json").exists()

    def test_each_command_decodes_the_store_once(self, oracle, tmp_path, monkeypatch, capsys):
        _, oracle_path = oracle
        decoded = []
        read_store = cache._read_store

        def counting_read_store(path, *args):
            decoded.append(Path(path).name)
            return read_store(path, *args)

        monkeypatch.setattr(cache, "_read_store", counting_read_store)
        assert cli.main(["synth-demo", "--oracle", str(oracle_path), "--max-coalitions", "10",
                         "--n-instances", "2", "--out", str(tmp_path / "demo")]) == 0
        assert decoded == ["evaluations.jsonl"]

        out = tmp_path / "out"
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, out)) == 0
        per_instance = tmp_path / "per_instance.json"
        per_instance.write_text(json.dumps({"per_instance": {"0": ["f2", "f0"], "1": ["f1"]}}))
        decoded.clear()
        assert cli.main(self._argv("deletion-curve", oracle_path, tmp_path, out, "--sources",
                                   "jsd,kl,l1,random,external", "--external",
                                   str(per_instance))) == 0
        assert decoded == ["evaluations.jsonl"]
        traces = json.loads((out / "curves.json").read_text())["curves"]["external"]["traces"]
        assert {index: len(trace) for index, trace in traces.items()} == {"0": 3, "1": 2}

    def test_killed_run_keeps_finished_instances(self, oracle, tmp_path, monkeypatch, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        argv = self._argv("attribute", oracle_path, tmp_path, out)
        script = (
            "import os, signal, sys\n"
            "from tabattr import SyntheticBackend, cli\n"
            "fetch = SyntheticBackend._fetch\n"
            "def dying(self, prompt, k, wait):\n"
            "    if 'f0:4' in prompt:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return fetch(self, prompt, k, wait)\n"
            "SyntheticBackend._fetch = dying\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(tabattr.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, timeout=120,
        )
        assert done.returncode == -signal.SIGKILL
        lines = (out / "evaluations.jsonl").read_text().splitlines()
        assert [json.loads(line)["instance_index"] for line in lines[1:]] == [0]

        fetched = self._counting(monkeypatch)
        assert cli.main(argv) == 0
        # Row 0 is f0:1 f1:2 f2:3; none of its values appears in a rerun prompt.
        assert fetched and not any(v in p for p in fetched for v in ("f0:1", "f1:2", "f2:3"))
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, tmp_path / "fresh")) == 0
        assert (out / "results_jsd.json").read_bytes() == (
            tmp_path / "fresh" / "results_jsd.json"
        ).read_bytes()

    def test_store_of_other_feature_keys_is_refused(self, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, out)) == 0
        argv = self._argv("attribute", oracle_path, tmp_path, out)
        for path in (tmp_path / "data.csv", tmp_path / "schema.json"):
            path.write_text(path.read_text().replace("f", "g"))
        capsys.readouterr()
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "evaluated over features ['f0', 'f1', 'f2']" in captured.err
        assert "the dataset has ['g0', 'g1', 'g2']" in captured.err

    def test_store_of_the_decimal_format_is_stale_and_left_alone(self, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        out.mkdir()
        cache.ensure_manifest(out / "index_manifest.json", [0, 1])
        store = out / "evaluations.jsonl"
        shutil.copyfile(DECIMAL_STORE, store)
        assert isinstance(json.loads(store.read_text().splitlines()[1])["class_dists"], list)
        argv = self._argv("compare", oracle_path, tmp_path, out,
                          "--external", str(_true_order(tmp_path)))
        assert cli.main(argv) == 1
        assert "does not match the current configuration" in capsys.readouterr().err
        assert store.read_bytes() == DECIMAL_STORE.read_bytes()
        assert not (out / "rank_report_jsd.json").exists()

    @pytest.mark.parametrize("command", ["attribute", "compare"])
    @pytest.mark.parametrize(
        "manifest",
        ["[1, 2]", "{}", '{"selected_test_indices": 5}', '{"selected_test_indices": ["0"]}',
         '{"selected_test_indices": []}'],
    )
    def test_damaged_index_manifest_names_the_file(
        self, command, manifest, oracle, tmp_path, capsys
    ):
        _, oracle_path = oracle
        out = tmp_path / "out"
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, out)) == 0
        (out / "index_manifest.json").write_text(manifest)
        capsys.readouterr()
        argv = [command, *_tabular_inputs(tmp_path), "--backend", f"synthetic:{oracle_path}",
                "--max-coalitions", "10", "--out", str(out)]
        if command == "compare":
            argv += ["--external", str(_true_order(tmp_path))]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "index_manifest.json") in err


def _without_store(monkeypatch) -> None:
    """Make ``cli.run_deletion`` ignore the stored evaluations it is given."""
    run_deletion = cli.run_deletion

    def storeless(*args, stored=(), **kwargs):
        return run_deletion(*args, **kwargs)

    monkeypatch.setattr(cli, "run_deletion", storeless)


def _curves(out: Path) -> tuple[bytes, bytes]:
    return (out / "curves.csv").read_bytes(), (out / "curves.json").read_bytes()


def _served(spec):
    class Served(KeepAliveHandler):
        oracle = SyntheticBackend(spec)

    return Served


def _vmap(tmp_path) -> list[str]:
    path = tmp_path / "vmap.json"
    path.write_text(json.dumps({"yes": ["yes"], "no": ["no"]}))
    return ["--verbalizer", str(path)]


class TestStoreFirstCurves:
    """Deletion curves take every row the store holds and send only the rest."""

    _argv = staticmethod(TestEvaluationStore._argv)
    _counting = staticmethod(TestEvaluationStore._counting)

    @staticmethod
    def _wide(command, oracle_path, tmp_path, *extra):
        """Rows i = 0, 1, 2 of six features, f{j}:{10 i + j}, all three selected."""
        dataset, schema = tmp_path / "wide.csv", tmp_path / "wide_schema.json"
        keys = [f"f{j}" for j in range(6)]
        rows = [",".join(str(10 * i + j) for j in range(6)) for i in range(3)]
        dataset.write_text("\n".join([",".join(keys), *rows]) + "\n")
        schema.write_text(json.dumps(dict.fromkeys(keys, "numeric")))
        return [command, "--dataset", str(dataset), "--schema", str(schema), "--backend",
                f"synthetic:{oracle_path}", "--max-coalitions", "10", "--indices", "0,1,2",
                "--out", str(tmp_path / "out"), *extra]

    def test_synth_demo_curves_are_the_same_bytes_without_the_store(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        _, path = oracle
        argv = ["synth-demo", "--oracle", str(path), "--n-instances", "3", "--seed", "2",
                "--max-coalitions", "20"]
        fetched = self._counting(monkeypatch)
        assert cli.main([*argv, "--out", str(tmp_path / "stored")]) == 0
        with_store = len(fetched)
        fetched.clear()
        _without_store(monkeypatch)
        assert cli.main([*argv, "--out", str(tmp_path / "fresh")]) == 0
        assert len(fetched) > with_store
        assert _curves(tmp_path / "stored") == _curves(tmp_path / "fresh")
        assert (tmp_path / "stored" / "summary.txt").read_bytes() == (
            tmp_path / "fresh" / "summary.txt"
        ).read_bytes()

    def test_record_then_replay_curves_are_the_same_bytes_with_and_without_the_store(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        spec, _ = oracle
        recording = tmp_path / "recording.json"
        common = [*_tabular_inputs(tmp_path), *_vmap(tmp_path), "--max-coalitions", "10",
                  "--indices", "0,1,2"]
        curve = ["--sources", "jsd,l1,random"]

        def run(backend, out, *extra):
            for command in (["attribute"], ["deletion-curve", *curve]):
                argv = [*command, *common, "--backend", backend, "--out", str(tmp_path / out)]
                assert cli.main([*argv, *extra]) == 0

        with serving(_served(spec)) as endpoint:
            run(endpoint, "recorded", "--record", str(recording))
        run(f"replay:{recording}", "replayed")
        _without_store(monkeypatch)
        run(f"replay:{recording}", "storeless")
        recorded = _curves(tmp_path / "recorded")
        assert _curves(tmp_path / "replayed") == recorded == _curves(tmp_path / "storeless")

    def test_deletion_curve_after_attribute_sends_no_full_or_leave_one_out_row(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        _, oracle_path = oracle
        assert cli.main(self._wide("attribute", oracle_path, tmp_path)) == 0
        curve = self._wide("deletion-curve", oracle_path, tmp_path, "--sources", "jsd,kl,random")
        fetched = self._counting(monkeypatch)
        capsys.readouterr()
        assert cli.main(curve) == 0
        template = PromptTemplate()
        dataset = cli.load_dataset(tmp_path / "wide.csv", json.loads(
            (tmp_path / "wide_schema.json").read_text()))
        held = {
            build_prompt(template, fields_at(dataset[i], [j for j in range(6) if j != left]))
            for i in range(3) for left in range(-1, 6)
        }
        assert fetched and not held & set(fetched)
        stored = capsys.readouterr().out.splitlines()[0]

        _without_store(monkeypatch)
        sent = len(fetched)
        fetched.clear()
        assert cli.main(curve) == 0
        # The same rows, less those taken from the store.
        assert len(fetched) > sent
        assert stored.endswith(f" stored={len(fetched) - sent} queried={sent}")

    def test_random_source_into_a_fresh_out_queries_every_row(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        _, oracle_path = oracle
        fetched = self._counting(monkeypatch)
        assert cli.main(self._argv("deletion-curve", oracle_path, tmp_path, tmp_path / "out",
                                   "--sources", "random")) == 0
        # Two instances of three rows each: the full row and two deletion steps.
        assert len(fetched) == len(set(fetched)) == 6
        assert "stored=0 queried=6\n" in capsys.readouterr().out

    def test_random_source_after_attribute_of_another_seed_queries_every_row(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        _, oracle_path = oracle
        out = tmp_path / "out"
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, out, "--seed", "0")) == 0
        fetched = self._counting(monkeypatch)
        capsys.readouterr()
        assert cli.main(self._argv("deletion-curve", oracle_path, tmp_path, out,
                                   "--sources", "random", "--seed", "5")) == 0
        assert len(fetched) == 6
        assert "stored=0 queried=6\n" in capsys.readouterr().out
        fetched.clear()
        assert cli.main(self._argv("deletion-curve", oracle_path, tmp_path, out,
                                   "--sources", "random", "--seed", "0")) == 0
        assert len(fetched) < 6
        assert f"stored={6 - len(fetched)} queried={len(fetched)}\n" in capsys.readouterr().out

    def test_failing_instance_is_dropped_from_every_source_though_rows_were_stored(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        _, oracle_path = oracle
        assert cli.main(self._wide("attribute", oracle_path, tmp_path)) == 0
        fetch = SyntheticBackend._fetch
        row_1 = [f"f{j}:{10 + j}" for j in range(6)]

        def failing_on_row_1(self, prompt, k, wait):
            if any(field in prompt for field in row_1):
                raise BackendError("injected failure")
            return fetch(self, prompt, k, wait)

        monkeypatch.setattr(SyntheticBackend, "_fetch", failing_on_row_1)
        capsys.readouterr()
        curve = self._wide("deletion-curve", oracle_path, tmp_path, "--sources", "jsd,random")
        assert cli.main(curve) == 1
        summary = capsys.readouterr().out.splitlines()[0]
        assert "instances=2 dropped=1" in summary and " stored=0 " not in summary
        curves = json.loads((tmp_path / "out" / "curves.json").read_text())
        assert curves["dropped_instances"] == [1]
        assert all(set(c["traces"]) == {"0", "2"} for c in curves["curves"].values())


class TestStoreKnowsItsInputs:
    """A store is refused when its rows' values or its backend differ from the run's."""

    _argv = staticmethod(TestEvaluationStore._argv)
    _counting = staticmethod(TestEvaluationStore._counting)

    def test_changed_values_of_a_stored_row_are_stale(self, oracle, tmp_path, monkeypatch, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        assert cli.main(self._argv("attribute", oracle_path, tmp_path, out)) == 0
        # Each argv writes the dataset again, so all are made before it changes.
        attribute, jsd_curve, random_curve = (
            self._argv("attribute", oracle_path, tmp_path, out),
            self._argv("deletion-curve", oracle_path, tmp_path, out, "--sources", "jsd"),
            self._argv("deletion-curve", oracle_path, tmp_path, out, "--sources", "random"),
        )
        dataset = tmp_path / "data.csv"
        dataset.write_text(dataset.read_text().replace("1,2,3\n", "10,20,30\n"))
        fetched = self._counting(monkeypatch)
        capsys.readouterr()
        assert cli.main(attribute) == 1
        assert fetched == []
        message = "instance 0 was evaluated over other values than the dataset's row 0"
        assert message in capsys.readouterr().err
        assert cli.main(jsd_curve) == 1
        assert message in capsys.readouterr().err
        # Without a metric source the stale store is left unused.
        assert cli.main(random_curve) == 0
        assert "stored=0 queried=6\n" in capsys.readouterr().out

    def test_synth_demo_with_another_oracle_is_stale(self, oracle, tmp_path, capsys):
        _, path = oracle
        other = tmp_path / "other.json"
        payload = json.loads(path.read_text())
        payload["weights"] = dict(reversed(list(payload["weights"].items())))
        other.write_text(json.dumps(payload))
        argv = ["synth-demo", "--n-instances", "2", "--max-coalitions", "20",
                "--out", str(tmp_path / "out")]
        assert cli.main([*argv, "--oracle", str(path)]) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        capsys.readouterr()
        assert cli.main([*argv, "--oracle", str(other)]) == 1
        err = capsys.readouterr().err
        assert "store was filled through backend 'synthetic:" in err
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == files
        assert cli.main([*argv, "--oracle", str(other), "--out", str(tmp_path / "fresh")]) == 0

    def test_http_store_belongs_to_the_url_actually_used(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        spec, oracle_path = oracle
        out = tmp_path / "out"
        recording = tmp_path / "recording.json"
        common = ["attribute", *_tabular_inputs(tmp_path), *_vmap(tmp_path),
                  "--max-coalitions", "10", "--indices", "0,1", "--out", str(out)]
        with serving(_served(spec)) as first, serving(_served(spec)) as second:
            # The environment's URL is the one used, and the one recorded.
            monkeypatch.setenv(cli.ENDPOINT_ENV, first)
            assert cli.main([*common, "--backend", "http://127.0.0.1:9/logprobs"]) == 0
            header = json.loads((out / "evaluations.jsonl").read_text().splitlines()[0])
            assert header["backend"] == f"http:{first}"
            monkeypatch.delenv(cli.ENDPOINT_ENV)
            assert cli.main([*common, "--backend", first, "--record", str(recording)]) == 0
            capsys.readouterr()
            assert cli.main([*common, "--backend", second]) == 1
            assert f"but this run uses 'http:{second}'" in capsys.readouterr().err
        # compare opens no backend, so it reads the store whatever --backend says.
        assert cli.main(["compare", *common[1:], "--backend", f"synthetic:{oracle_path}",
                         "--external", str(_true_order(tmp_path))]) == 0

    def test_replay_store_belongs_to_the_recording_bytes(self, oracle, tmp_path, capsys):
        spec, oracle_path = oracle
        recording = tmp_path / "recording.json"
        common = [*_tabular_inputs(tmp_path), *_vmap(tmp_path), "--max-coalitions", "10",
                  "--indices", "0,1"]
        with serving(_served(spec)) as endpoint:
            assert cli.main(["attribute", *common, "--backend", endpoint, "--record",
                             str(recording), "--out", str(tmp_path / "recorded")]) == 0
            replay = ["--backend", f"replay:{recording}", "--out", str(tmp_path / "out")]
            assert cli.main(["attribute", *common, *replay]) == 0
            # Recording the deletion rows too makes it another recording.
            assert cli.main(["deletion-curve", *common, "--sources", "random", "--backend",
                             endpoint, "--record", str(recording), "--out",
                             str(tmp_path / "recorded")]) == 0
        capsys.readouterr()
        assert cli.main(["attribute", *common, *replay]) == 1
        assert "store was filled through backend 'replay:" in capsys.readouterr().err
        assert cli.main(["deletion-curve", *common, "--sources", "jsd", *replay]) == 1
        assert cli.main(["attribute", *common, "--backend", f"synthetic:{oracle_path}",
                         "--out", str(tmp_path / "out")]) == 1


class TestRecordingFile:
    def test_corrupt_recording_is_a_backend_error(self, tmp_path, capsys):
        recording = tmp_path / "recording.json"
        recording.write_text("{broken")
        vmap = tmp_path / "vmap.json"
        vmap.write_text(json.dumps({"yes": ["yes"], "no": ["no"]}))
        # The recording file is read before any request, so nothing listens here.
        argv = ["attribute", *_tabular_inputs(tmp_path), "--backend",
                "http://127.0.0.1:9/logprobs", "--record", str(recording), "--verbalizer",
                str(vmap), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert str(recording) in capsys.readouterr().err

    def test_the_same_bytes_at_one_and_two_workers(self, oracle, tmp_path, capsys):
        spec, _ = oracle

        class Uneven(KeepAliveHandler):
            oracle = SyntheticBackend(spec)

            def answer(self, request):
                # 0-14 ms by prompt, so two workers' answers arrive out of prompt order.
                digest = hashlib.sha256(request["prompt"].encode()).digest()
                time.sleep(0.002 * (digest[0] % 8))
                super().answer(request)

        common = [*_tabular_inputs(tmp_path), *_vmap(tmp_path), "--indices", "0,1,2"]
        recorded = {}
        with serving(Uneven) as endpoint:
            for name, workers in (("serial", 1), ("first", 2), ("second", 2)):
                recording = tmp_path / f"{name}.json"
                assert cli.main(["attribute", *common, "--workers", str(workers), "--backend",
                                 endpoint, "--record", str(recording), "--out",
                                 str(tmp_path / name)]) == 0
                recorded[name] = recording.read_bytes()
        assert recorded["first"] == recorded["serial"] == recorded["second"]


_COMMON_FLAGS = [
    "--config", "--dataset", "--schema", "--template", "--verbalizer", "--backend", "--metric",
    "--ratio", "--max-coalitions", "--top-k", "--seed", "--instances", "--indices", "--workers",
    "--max-removals", "--record", "--timeout", "--retries", "--out",
]
# The flags each subcommand takes, in ``--help`` order: the argv that perfbench
# and users pass.
CLI_SURFACE = {
    "attribute": _COMMON_FLAGS,
    "deletion-curve": [*_COMMON_FLAGS, "--sources", "--external"],
    "compare": [*_COMMON_FLAGS, "--external"],
    "synth-demo": [*_COMMON_FLAGS, "--oracle", "--n-instances"],
    "serialize": [*_COMMON_FLAGS, "--index", "--omit"],
}
# Every other flag takes a string.
NUMERIC_FLAGS = {
    "--ratio": float, "--timeout": float, "--max-coalitions": int, "--top-k": int, "--seed": int,
    "--instances": int, "--workers": int, "--max-removals": int, "--retries": int,
    "--n-instances": int, "--index": int,
}


class TestRunSpec:
    @staticmethod
    def _resolve(argv):
        return cli.RunSpec.resolve(cli.build_parser().parse_args(argv))

    @staticmethod
    def _config(tmp_path, values) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values))
        return str(path)

    def test_flags_override_file_which_overrides_defaults(self, tmp_path):
        config = self._config(tmp_path, {"ratio": 0.3, "seed": 5})
        spec = self._resolve(["attribute", "--config", config, "--seed", "7"])
        assert (spec.ratio, spec.seed, spec.top_k) == (0.3, 7, 10)

    @pytest.mark.parametrize(
        "key, value, expected",
        [("indices", "2,0", (2, 0)), ("indices", [2, 0], (2, 0)),
         ("sources", "kl, random", ("kl", "random")),
         ("sources", ["kl", "random"], ("kl", "random"))],
    )
    def test_lists_take_a_comma_string_or_a_json_list(self, key, value, expected, tmp_path):
        spec = self._resolve(["deletion-curve", "--config", self._config(tmp_path, {key: value})])
        assert getattr(spec, key) == expected

    def test_an_integer_fills_a_float_field(self, tmp_path):
        spec = self._resolve(["attribute", "--config", self._config(tmp_path, {"ratio": 1})])
        assert spec.ratio == 1.0 and isinstance(spec.ratio, float)

    @pytest.mark.parametrize(
        "values, named",
        [({"max_coalition": 4}, "max_coalition"), ({"seed": 1.9}, "seed"),
         ({"instances": "2"}, "instances"), ({"workers": True}, "workers"),
         ({"indices": ["1"]}, "indices"), ({"sources": 3}, "sources"),
         ({"indices": "1,x"}, "indices"), (["--indices", "a"], "indices"),
         (["--indices", "1.5"], "indices")],
    )
    def test_unknown_or_mistyped_key_exits_2(self, values, named, tmp_path, capsys):
        """``values`` is a config file's content, or flags."""
        out = tmp_path / "out"
        if isinstance(values, dict):
            values = ["--config", self._config(tmp_path, values)]
        assert cli.main(["attribute", *values, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not out.exists()

    def test_each_subcommand_takes_the_flags_it_always_took(self):
        parser = cli.build_parser()
        (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(subcommands.choices) == list(CLI_SURFACE)
        for command, flags in CLI_SURFACE.items():
            actions = subcommands.choices[command]._actions[1:]  # after --help
            assert [a.option_strings for a in actions] == [[flag] for flag in flags]
            assert [a.dest for a in actions] == [f[2:].replace("-", "_") for f in flags]
            assert {a.option_strings[0]: a.type for a in actions if a.type is not None} == {
                flag: kind for flag, kind in NUMERIC_FLAGS.items() if flag in flags
            }
            assert {a.option_strings[0]: a.choices for a in actions if a.choices} == {
                "--metric": ("jsd", "kl", "l1")
            }
            assert all(a.default is None for a in actions)

    def test_one_parser_serves_every_call_without_carrying_values(
        self, oracle, tmp_path, capsys
    ):
        _, oracle_path = oracle
        assert cli.build_parser() is cli.build_parser()
        common = [*_tabular_inputs(tmp_path), "--backend", f"synthetic:{oracle_path}",
                  "--max-coalitions", "10", "--indices", "0"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["attribute", *common, "--metric", "kl", "--out", str(first)]) == 0
        assert cli.main(["attribute", *common, "--out", str(second)]) == 0
        assert json.loads((second / "run_manifest.json").read_text())["config"]["metric"] == "jsd"
        assert [p.name for p in second.glob("results_*.json")] == ["results_jsd.json"]
        with pytest.raises(SystemExit) as usage:
            cli.main(["attribute", "--metric", "bogus"])
        assert usage.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_synth_demo_manifest_records_what_ran(self, oracle, tmp_path):
        _, path = oracle
        out = tmp_path / "out"
        argv = ["synth-demo", "--oracle", str(path), "--out", str(out), "--n-instances", "1",
                "--max-coalitions", "20"]
        assert cli.main(argv) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "synth-demo"
        assert manifest["config"]["sources"] == ["jsd", "kl", "l1", "random", "external"]
        assert manifest["config"]["external"] == str(out / "external_ranking.json")
        assert manifest["config"]["backend"] == f"synthetic:{path}"
        assert set((json.loads((out / "curves.json").read_text())["curves"])) == {
            "jsd", "kl", "l1", "random", "external"
        }


_ROWS = "--dataset {tmp}/rows.csv --schema {tmp}/schema.json "
_SYNTHETIC = "--backend synthetic:{oracle} "
_VERBALIZER = "--verbalizer {tmp}/vmap.json "

# id: (argv, environment, exit code, message, command run first in --out)
REFUSALS = {
    "replay-file-missing": (
        "attribute " + _ROWS + _VERBALIZER + "--backend replay:{tmp}/none.json", {}, 1,
        "cannot read recording {tmp}/none.json", None),
    "http-of-an-ftp-url": (
        "attribute " + _ROWS + _VERBALIZER + "--backend http:ftp://x", {}, 2,
        "needs an http(s) URL without credentials, got 'ftp://x'", None),
    "http-with-credentials": (
        "attribute " + _ROWS + _VERBALIZER + "--backend http://user@h/", {}, 2,
        "needs an http(s) URL without credentials, got 'http://user@h/'", None),
    "endpoint-environment": (
        "attribute " + _ROWS + _VERBALIZER + "--backend http://127.0.0.1:9/",
        {cli.ENDPOINT_ENV: "ftp://x"}, 2,
        "needs an http(s) URL without credentials, got 'ftp://x'", None),
    "bad-numeric-cell": (
        "attribute --dataset {tmp}/bad_cell.csv --schema {tmp}/schema.json " + _SYNTHETIC, {}, 1,
        "bad_cell.csv: row 3: cannot parse numeric value 'oops' in column 'f0'", None),
    "header-only-dataset": (
        "attribute --dataset {tmp}/header.csv --schema {tmp}/schema.json " + _SYNTHETIC, {}, 2,
        "dataset {tmp}/header.csv has no rows", None),
    "index-out-of-range": (
        "attribute " + _ROWS + _SYNTHETIC + "--indices 5", {}, 2,
        "indices out of range for dataset of 2 rows: [5]", None),
    "compare-without-a-manifest": (
        "compare " + _ROWS + _SYNTHETIC + "--external {tmp}/global.json", {}, 1,
        "no index manifest at {tmp}/out/index_manifest.json", None),
    "deletion-curve-without-a-store": (
        "deletion-curve " + _ROWS + _SYNTHETIC + "--sources jsd", {}, 1,
        "no evaluation store at {tmp}/out/evaluations.jsonl; run `tabattr attribute` first",
        None),
    "external-ranking-of-an-unknown-key": (
        "deletion-curve " + _ROWS + _SYNTHETIC
        + "--sources random,external --external {tmp}/unknown_key.json", {}, 1,
        "unknown_key.json: unknown feature keys for global: ['zz']", None),
    "one-feature-dataset": (
        "attribute --dataset {tmp}/one.csv --schema {tmp}/one_schema.json " + _SYNTHETIC, {}, 2,
        "attribution needs at least 2 features, got ['f0']", None),
    "one-feature-deletion-curve": (
        "deletion-curve --dataset {tmp}/one.csv --schema {tmp}/one_schema.json "
        + _SYNTHETIC + "--sources random", {}, 2,
        "attribution needs at least 2 features, got ['f0']", None),
    "compare-of-a-per-instance-ranking": (
        "compare " + _ROWS + _SYNTHETIC + "--max-coalitions 10 --external {tmp}/per_instance.json",
        {}, 2, "compare needs a ranking file in the global form",
        "attribute " + _ROWS + _SYNTHETIC + "--max-coalitions 10"),
    "config-not-json": (
        "attribute --config {tmp}/single_quoted.json", {}, 2,
        "config file {tmp}/single_quoted.json is not valid JSON: Expecting property name", None),
    "config-not-utf8": (
        "attribute --config {tmp}/latin1.json", {}, 2,
        "config file {tmp}/latin1.json is not valid JSON: 'utf-8' codec", None),
    "template-not-json": (
        "attribute " + _ROWS + _SYNTHETIC + "--template {tmp}/template.json", {}, 1,
        "template {tmp}/template.json is not valid JSON: Expecting property name", None),
    "template-not-utf8": (
        "attribute " + _ROWS + _SYNTHETIC + "--template {tmp}/latin1.txt", {}, 1,
        "template {tmp}/latin1.txt is not UTF-8 text: 'utf-8' codec", None),
}


class TestRefusedInputs:
    """Each refused input exits with its code and message before ``--out`` is
    made. ``compare`` needs a recorded selection, so its ranking case runs in
    an ``--out`` that ``attribute`` filled, and leaves it as it was."""

    @staticmethod
    def _write_inputs(tmp_path):
        files = {
            "rows.csv": "f0,f1,f2\n1,2,3\n4,5,6\n",
            "bad_cell.csv": "f0,f1,f2\n1,2,3\noops,5,6\n",
            "header.csv": "f0,f1,f2\n",
            "one.csv": "f0\n1\n2\n",
            "schema.json": json.dumps({"f0": "numeric", "f1": "numeric", "f2": "numeric"}),
            "one_schema.json": json.dumps({"f0": "numeric"}),
            "vmap.json": json.dumps({"yes": ["yes"], "no": ["no"]}),
            "global.json": json.dumps({"global": ["f1", "f0", "f2"]}),
            "unknown_key.json": json.dumps({"global": ["f1", "zz"]}),
            "per_instance.json": json.dumps({"per_instance": {"0": ["f1", "f0", "f2"]}}),
            "single_quoted.json": "{'seed': 1}",
            "template.json": "{instruction: 'Go.'}",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "latin1.json").write_bytes('{"seed": "é"}'.encode("latin-1"))
        (tmp_path / "latin1.txt").write_bytes("Classify the row, café.".encode("latin-1"))

    @staticmethod
    def _files(out):
        return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None

    @pytest.mark.parametrize(
        "argv, environment, code, message, setup", REFUSALS.values(), ids=list(REFUSALS)
    )
    def test_refused_before_writing(
        self, argv, environment, code, message, setup, oracle, tmp_path, monkeypatch, capsys
    ):
        _, oracle_path = oracle
        self._write_inputs(tmp_path)
        out = tmp_path / "out"

        def args(text):
            words = text.format(tmp=tmp_path, oracle=oracle_path).split()
            return [*words, "--out", str(out)]

        if setup:
            assert cli.main(args(setup)) == 0
        before = self._files(out)
        for name, value in environment.items():
            monkeypatch.setenv(name, value)
        capsys.readouterr()
        assert cli.main(args(argv)) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message.format(tmp=tmp_path) in err
        assert self._files(out) == before
        if not setup:
            assert not out.exists()


class TestRefusedBeforeWriting:
    """Bad counts, sources and backend specs exit 2 before the output directory is made."""

    @staticmethod
    def _refused(argv, named, out, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (out / "index_manifest.json").exists()

    def test_zero_synth_demo_instances(self, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        argv = ["synth-demo", "--oracle", str(oracle_path), "--out", str(out),
                "--max-coalitions", "10"]
        self._refused([*argv, "--n-instances", "0"], "--n-instances", out, capsys)
        assert cli.main([*argv, "--n-instances", "2"]) == 0

    def test_negative_workers(self, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        argv = ["attribute", *_tabular_inputs(tmp_path), "--backend",
                f"synthetic:{oracle_path}", "--workers", "-4", "--out", str(out)]
        self._refused(argv, "--workers", out, capsys)

    @pytest.mark.parametrize(
        "extra, named",
        [(["--sources", ""], "--sources"), (["--sources", "jsd,shap"], "'shap'"),
         (["--max-removals", "0"], "--max-removals"),
         # An external source needs the ranking file it names.
         (["--sources", "external"], "--external"),
         (["--sources", "jsd,external"], "--external"),
         (["--sources", "random,external"], "--external")],
    )
    def test_deletion_curve_sources_and_removals(
        self, extra, named, oracle, tmp_path, monkeypatch, capsys
    ):
        _, oracle_path = oracle
        out = tmp_path / "out"
        fetched = TestEvaluationStore._counting(monkeypatch)
        argv = ["deletion-curve", *_tabular_inputs(tmp_path), "--backend",
                f"synthetic:{oracle_path}", "--out", str(out), *extra]
        self._refused(argv, named, out, capsys)
        assert not out.exists()
        assert fetched == []

    @pytest.mark.parametrize(
        "backend, named",
        [("grpc:x", "unknown backend kind"), ("justaword", "kind:target"),
         ("synthetic:", "non-empty")],
    )
    @pytest.mark.parametrize("command", ["attribute", "deletion-curve"])
    def test_bad_backend_spec(self, command, backend, named, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, *_tabular_inputs(tmp_path), "--backend", backend, "--out", str(out)]
        self._refused(argv, named, out, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, named",
        [(["--ratio", "0"], "ratio must be in (0, 1], got 0.0"),
         (["--ratio", "1.5"], "ratio must be in (0, 1], got 1.5"),
         (["--max-coalitions", "0"], "max_coalitions must be positive"),
         (["--top-k", "0"], "top_k must be >= 1"),
         (["--max-coalitions", "2"], "--max-coalitions 2 is below the 3 features")],
    )
    def test_bad_sampling_setting(self, extra, named, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out = tmp_path / "out"
        argv = ["attribute", *_tabular_inputs(tmp_path), "--backend",
                f"synthetic:{oracle_path}", "--out", str(out), *extra]
        self._refused(argv, named, out, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attribute", "synth-demo"])
    def test_record_with_a_synthetic_backend(self, command, oracle, tmp_path, capsys):
        _, oracle_path = oracle
        out, recording = tmp_path / "out", tmp_path / "recording.json"
        argv = [command, "--record", str(recording), "--out", str(out)]
        if command == "attribute":
            argv += [*_tabular_inputs(tmp_path), "--backend", f"synthetic:{oracle_path}"]
        else:
            argv += ["--oracle", str(oracle_path)]
        self._refused(argv, "recording applies to the http backend only", out, capsys)
        assert not out.exists() and not recording.exists()


class TestSerialize:
    """``serialize`` prints the prompt of one dataset row, byte for byte."""

    HEAD = ("Classify the record given below. Answer with a single word naming the class.\n\n"
            "### Input:\n")
    TAIL = "\n\n### Response:\n"

    def _serialize(self, tmp_path, capsys, *extra):
        code = cli.main(["serialize", *_tabular_inputs(tmp_path), *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_default_template(self, tmp_path, capsys):
        assert self._serialize(tmp_path, capsys) == (0, f"{self.HEAD}f0:1 f1:2 f2:3{self.TAIL}", "")
        assert self._serialize(tmp_path, capsys, "--index", "2") == (
            0, f"{self.HEAD}f0:7 f1:8 f2:9{self.TAIL}", ""
        )

    def test_json_template_with_custom_markers_and_suffix(self, tmp_path, capsys):
        template = tmp_path / "template.json"
        template.write_text(json.dumps(
            {"instruction": "Decide.", "input_marker": "<row>", "response_marker": "<label>",
             "suffix": " =>"}
        ))
        assert self._serialize(tmp_path, capsys, "--template", str(template), "--index", "1") == (
            0, "Decide.\n\n<row>\nf0:4 f1:5 f2:6\n\n<label> =>", ""
        )

    @pytest.mark.parametrize(
        "omit, features", [("f1", "f0:1 f2:3"), ("f2,f0", "f1:2"), ("f0,f0", "f1:2 f2:3")]
    )
    def test_omit_leaves_the_other_fields_in_order(self, omit, features, tmp_path, capsys):
        assert self._serialize(tmp_path, capsys, "--omit", omit) == (
            0, f"{self.HEAD}{features}{self.TAIL}", ""
        )

    def test_unknown_omit_key_exits_2(self, tmp_path, capsys):
        code, out, err = self._serialize(tmp_path, capsys, "--index", "1", "--omit", "f1,g7")
        assert (code, out) == (2, "")
        assert err == "error: keys not in instance 1: ['g7']\n"

    def test_omitting_every_key_exits_1(self, tmp_path, capsys):
        assert self._serialize(tmp_path, capsys, "--omit", "f2,f1,f0") == (
            1, "", "error: cannot serialize an empty coalition\n"
        )

    @pytest.mark.parametrize("index", ["3", "-1"])
    def test_index_out_of_range_exits_2(self, index, tmp_path, capsys):
        assert self._serialize(tmp_path, capsys, "--index", index) == (
            2, "", f"error: --index {index} not in dataset of 3 rows\n"
        )


class TestRunErrors:
    def test_changed_ratio_in_an_existing_out_dir_is_a_stale_cache(
        self, oracle, tmp_path, capsys
    ):
        _, oracle_path = oracle
        common = ["attribute", *_tabular_inputs(tmp_path), "--backend",
                  f"synthetic:{oracle_path}", "--indices", "0", "--out", str(tmp_path / "out")]
        assert cli.main([*common, "--ratio", "0.4"]) == 0
        capsys.readouterr()
        assert cli.main([*common, "--ratio", "0.3"]) == 1
        assert "does not match the current configuration" in capsys.readouterr().err

    def test_negative_http_retries_exit_2(self, tmp_path, capsys):
        vmap = tmp_path / "vmap.json"
        vmap.write_text(json.dumps({"yes": ["yes"], "no": ["no"]}))
        # The backend is refused at construction, so nothing listens here.
        argv = ["attribute", *_tabular_inputs(tmp_path), "--backend",
                "http://127.0.0.1:9/logprobs", "--retries", "-1", "--verbalizer", str(vmap),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert "retries=-1" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout, named", [("inf", "timeout=inf"), ("1e10", "timeout=10000000000.0")])
    def test_http_timeout_a_socket_cannot_take_exits_2(self, timeout, named, tmp_path, capsys):
        vmap = tmp_path / "vmap.json"
        vmap.write_text(json.dumps({"yes": ["yes"], "no": ["no"]}))
        out = tmp_path / "out"
        argv = ["attribute", *_tabular_inputs(tmp_path), "--backend",
                "http://127.0.0.1:9/logprobs", "--timeout", timeout, "--verbalizer", str(vmap),
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_deletion_curve_exits_1_when_an_instance_fails(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        _, oracle_path = oracle
        fetch = SyntheticBackend._fetch

        def failing_on_row_1(self, prompt, k, wait):
            if "f0:4" in prompt:
                raise BackendError("injected failure")
            return fetch(self, prompt, k, wait)

        monkeypatch.setattr(SyntheticBackend, "_fetch", failing_on_row_1)
        out = tmp_path / "out"
        argv = ["deletion-curve", *_tabular_inputs(tmp_path), "--backend",
                f"synthetic:{oracle_path}", "--indices", "0,1,2", "--sources", "random",
                "--out", str(out)]
        assert cli.main(argv) == 1
        assert "dropped=1" in capsys.readouterr().out
        assert json.loads((out / "curves.json").read_text())["dropped_instances"] == [1]


class TestRetriedHttpRun:
    def test_two_workers_over_a_flaky_endpoint_write_the_serial_run_files(
        self, oracle, tmp_path, capsys
    ):
        spec, oracle_path = oracle

        class Flaky(KeepAliveHandler):
            """The oracle over HTTP, answering every 5th request with a 503;
            a retry is always answered, so no query runs out of retries."""

            oracle = SyntheticBackend(spec)
            requests = 0
            failed: set[str] = set()

            def answer(self, request):
                cls = type(self)
                with self.counts_lock:
                    cls.requests += 1
                    busy = cls.requests % 5 == 0 and request["prompt"] not in cls.failed
                    if busy:
                        cls.failed.add(request["prompt"])
                if busy:
                    self.reply(503, b"busy")
                else:
                    super().answer(request)

        vmap = tmp_path / "vmap.json"
        vmap.write_text(json.dumps({"yes": ["yes"], "no": ["no"]}))
        recording = tmp_path / "recording.json"

        def attribute(backend, out, *extra):
            """The results, the store's header and the store's evaluation lines."""
            argv = ["attribute", *_tabular_inputs(tmp_path), "--verbalizer", str(vmap),
                    "--indices", "0,1,2", "--seed", "5", "--backend", backend,
                    "--out", str(tmp_path / out), *extra]
            assert cli.main(argv) == 0
            header, lines = (tmp_path / out / "evaluations.jsonl").read_bytes().split(b"\n", 1)
            return (tmp_path / out / "results_jsd.json").read_bytes(), json.loads(header), lines

        serial = attribute(f"synthetic:{oracle_path}", "serial", "--workers", "1")
        with serving(Flaky) as endpoint:
            recorded = attribute(endpoint, "recorded", "--workers", "2",
                                 "--record", str(recording))
        replayed = attribute(f"replay:{recording}", "replayed", "--workers", "2")
        assert len(Flaky.failed) >= 2
        assert recorded[0::2] == replayed[0::2] == serial[0::2]
        # The header names the backend that answered.
        digest = hashlib.sha256(recording.read_bytes()).hexdigest()
        assert [run[1]["backend"] for run in (serial, recorded, replayed)] == [
            SyntheticBackend(spec).identity, f"http:{endpoint}", f"replay:{digest}"
        ]


def test_cli_import_loads_neither_scipy_nor_an_http_library():
    script = (
        "import sys, tabattr.cli\n"
        "print(sorted({'scipy', 'requests', 'urllib3'} & {m.split('.')[0] for m in sys.modules}))"
    )
    src = str(Path(tabattr.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == "[]"
