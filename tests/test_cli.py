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
