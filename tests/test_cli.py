from __future__ import annotations

import itertools
import json

import pytest

from tabattr import (
    PromptTemplate,
    SyntheticBackend,
    SyntheticOracleSpec,
    VerbalizerMap,
    build_prompt,
    cli,
    curve_auc,
)
from tabattr.errors import BackendError
from tabattr.faithfulness import DeletionCurve
from conftest import brute_force_raw_phi

WEIGHTS = {"f0": 0.9, "f1": 2.0, "f2": 0.3, "f3": 1.4, "f4": 0.6, "f5": 0.15}


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

        def counting_fetch(self, prompt, k):
            fetched.append(prompt)
            return fetch(self, prompt, k)

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
            build_prompt(template, instance.fields_at(subset))
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
        assert list(out.iterdir()) == []


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
         ({"indices": ["1"]}, "indices"), ({"sources": 3}, "sources")],
    )
    def test_unknown_or_mistyped_key_exits_2(self, values, named, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["attribute", "--config", self._config(tmp_path, values), "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not out.exists()

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

    def test_deletion_curve_exits_1_when_an_instance_fails(
        self, oracle, tmp_path, monkeypatch, capsys
    ):
        _, oracle_path = oracle
        fetch = SyntheticBackend._fetch

        def failing_on_row_1(self, prompt, k):
            if "f0:4" in prompt:
                raise BackendError("injected failure")
            return fetch(self, prompt, k)

        monkeypatch.setattr(SyntheticBackend, "_fetch", failing_on_row_1)
        out = tmp_path / "out"
        argv = ["deletion-curve", *_tabular_inputs(tmp_path), "--backend",
                f"synthetic:{oracle_path}", "--indices", "0,1,2", "--sources", "random",
                "--out", str(out)]
        assert cli.main(argv) == 1
        assert "dropped=1" in capsys.readouterr().out
        assert json.loads((out / "curves.json").read_text())["dropped_instances"] == [1]
