"""The batched per-instance layers against their one-item references.

``build_prompts``, ``class_distributions`` and ``_new_rows`` each replace a
loop of one call per coalition row; every result must equal the stacked
per-item results bit for bit. The synthetic oracle's one pass per answer
must answer exactly as the reference oracle does. The last classes check, by
counting calls, that an instance is processed in one pass per layer and that
each distinct prompt of a batch is queried once.
"""

from __future__ import annotations

import collections
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tabattr import (
    Backend,
    PromptTemplate,
    SamplingConfig,
    SyntheticBackend,
    SyntheticOracleSpec,
    TopKDistribution,
    VerbalizerMap,
    build_prompts,
    class_distributions,
    cli,
    evaluate,
    random_order,
    run_deletion,
)
from tabattr import HttpBackend, attribution, faithfulness
from tabattr.attribution import _new_rows
from tabattr.errors import SerializationError
from conftest import (
    ADULT_KEYS,
    KeepAliveHandler,
    adult_like_instance,
    make_instance,
    oracle_backend,
    serving,
)
from reference import (
    ReferenceOracle,
    build_prompt,
    class_distribution,
    fields_at,
    fields_without_keys,
)

_text = st.text(alphabet="abcXY #:\n\t.", max_size=12)


@st.composite
def _template(draw) -> PromptTemplate:
    markers = draw(st.sampled_from([("### Input:", "### Response:"), ("<in>", "<out>")]))
    return PromptTemplate(
        instruction=draw(_text), input_marker=markers[0], response_marker=markers[1],
        suffix=draw(st.sampled_from(["\n", "", " ", "\n\n", "Answer:"])),
    )


@st.composite
def _instance_and_rows(draw):
    m = draw(st.integers(1, 16))
    values = draw(st.lists(st.from_regex(r"[a-z0-9_:.]{1,6}", fullmatch=True), min_size=m,
                           max_size=m))
    instance = make_instance(draw(st.integers(0, 5)), [f"k{j}" for j in range(m)], values)
    n = draw(st.integers(1, 12))
    rows = np.array(draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                  min_size=n, max_size=n)), dtype=bool)
    rows[~rows.any(axis=1), draw(st.integers(0, m - 1))] = True
    return instance, rows


class TestBuildPrompts:
    @given(_template(), _instance_and_rows())
    def test_equals_build_prompt_of_each_row(self, template, case):
        instance, rows = case
        expected = [build_prompt(template, fields_at(instance, np.flatnonzero(r))) for r in rows]
        assert build_prompts(template, instance, rows) == expected

    def test_empty_row_raises(self, template):
        instance = make_instance(0, ["a", "b", "c"])
        rows = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(SerializationError, match="empty coalition"):
            build_prompts(template, instance, rows)

    def test_rows_of_another_width_rejected(self, template):
        instance = make_instance(0, ["a", "b", "c"])
        with pytest.raises(ValueError, match="M=3"):
            build_prompts(template, instance, np.ones((2, 4), dtype=bool))


def _surface_variants(form: str) -> list[str]:
    return [form, form.upper(), f" {form}", f"{form.title()}\n", f"\t{form} "]


@st.composite
def _answers(draw):
    """A verbalizer of 1-12 classes and top-k answers mixing its surface forms
    (in case and whitespace variants) with tokens outside it."""
    c = draw(st.integers(1, 12))
    classes = [f"c{i}" for i in range(c)]
    vmap = VerbalizerMap.from_mapping({label: [label, f"{label}x"] for label in classes})
    tokens = [v for label in classes for v in _surface_variants(label)]
    tokens += ["other", " maybe", "C", ""]
    k = draw(st.sampled_from([1, 2, 5, 10]))
    topks = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(0, k))
        weights = draw(st.lists(st.sampled_from([0.0, 1e-300, 0.01, 0.3, 1.0, 7.0]),
                                min_size=n, max_size=n))
        total = draw(st.sampled_from([1.0, 0.9, 0.5, 1e-12]))
        scale = total / sum(weights) if sum(weights) > 0 else 0.0
        probs = sorted((w * scale for w in weights), reverse=True)
        topks.append(TopKDistribution(
            tuple(draw(st.sampled_from(tokens)) for _ in probs),
            tuple(math.log(p) if p > 0 else float("-inf") for p in probs),
            k,
        ))
    return topks, vmap


class TestClassDistributions:
    @settings(max_examples=300)
    @given(_answers())
    def test_equals_stacked_per_answer_results(self, case):
        topks, vmap = case
        reference = [class_distribution(topk, vmap) for topk in topks]
        probs, degenerate = class_distributions(topks, vmap)
        expected_probs = np.array([r.probs for r in reference])
        expected_flags = np.array([r.degenerate for r in reference])
        assert (probs.dtype, degenerate.dtype) == (expected_probs.dtype, expected_flags.dtype)
        assert probs.tobytes() == expected_probs.tobytes()
        assert degenerate.tobytes() == expected_flags.tobytes()

    def test_zero_mass_rows_are_uniform_and_flagged(self):
        vmap = VerbalizerMap.from_mapping({"yes": ["yes"], "no": ["no"], "n/a": ["na"]})
        topks = [
            TopKDistribution((" Yes", "maybe"), (math.log(0.6), math.log(0.3)), 2),
            TopKDistribution(("maybe",), (math.log(0.9),), 1),
            TopKDistribution(("no",), (float("-inf"),), 1),
            TopKDistribution((), (), 3),
        ]
        probs, degenerate = class_distributions(topks, vmap)
        assert probs[0].tolist() == [1.0, 0.0, 0.0]
        assert probs[1:].tolist() == [[1 / 3] * 3] * 3
        assert degenerate.tolist() == [False, True, True, True]

    @given(st.lists(st.one_of(st.floats(-800.0, 0.0), st.just(float("-inf"))), max_size=64))
    def test_exp_of_an_array_equals_exp_per_entry(self, logprobs):
        # The batched verbalizer takes one exp over all matched logprobs; the
        # per-answer reference takes it entry by entry.
        batched = np.exp(np.array(logprobs, dtype=float))
        one_by_one = np.array([np.exp(lp) for lp in logprobs], dtype=float)
        assert batched.tobytes() == one_by_one.tobytes()


# Keys that prefix or suffix one another, so a match must be a whole key.
_ORACLE_KEYS = ("age", "wage", "age_group", "group", "a", "ag", "e")
_MARKERS = {"### Input:": "### Response:", "<in>": "<out>"}
_GAPS = ["", " ", "  ", "\t", "\n", "\x1c", "\x85", "\u3000", " \n\t", "\u2003"]


@st.composite
def _oracle_prompts(draw):
    """An oracle over some of ``_ORACLE_KEYS`` and a prompt of ``key:value``
    tokens and near misses, with Unicode whitespace between them and each
    marker missing, present once or repeated."""
    input_marker = draw(st.sampled_from(sorted(_MARKERS)))
    response_marker = _MARKERS[input_marker]
    keys = draw(st.lists(st.sampled_from(_ORACLE_KEYS), unique=True, max_size=len(_ORACLE_KEYS)))
    weights = {
        key: draw(st.one_of(st.floats(-60.0, 60.0), st.sampled_from([0.0, -0.0, 1.0, -1.0])))
        for key in keys
    }
    spec = SyntheticOracleSpec(
        classes=draw(st.sampled_from([("yes", "no"), ("no", "yes"), ("A", "b c")])),
        weights=weights,
        bias=draw(st.one_of(st.floats(-10.0, 10.0), st.just(0.0))),
    )
    names = _ORACLE_KEYS + ("Age", "AGE_GROUP", "x", "", "age group", "a:b")
    token = st.one_of(
        st.builds("{}:{}".format, st.sampled_from(names),
                  st.sampled_from(["1", "", ":", "a:b", "age:2", "::", "x y"])),
        st.sampled_from([":age", "::", "age", "wage_", ":", "a:", "ge:3", "#", input_marker,
                         response_marker, "Input:", "Response:"]),
    )
    parts = draw(st.lists(st.tuples(st.sampled_from(_GAPS), token), max_size=12))
    prompt = "".join(gap + text for gap, text in parts) + draw(st.sampled_from(_GAPS))
    return spec, input_marker, response_marker, prompt or "a:1"


def _bits(topk: TopKDistribution) -> list[bytes]:
    return [struct.pack("<d", logprob) for logprob in topk.logprobs]


class TestSyntheticOracle:
    @settings(max_examples=300)
    @given(_oracle_prompts(), st.sampled_from([1, 2, 5]))
    def test_answers_equal_the_reference_oracle(self, case, k):
        spec, input_marker, response_marker, prompt = case
        got = SyntheticBackend(spec, input_marker, response_marker).query(prompt, k)
        want = ReferenceOracle(spec, input_marker, response_marker).query(prompt, k)
        assert got == want
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("prompt, present", [
        ("age:1 wage:2", {"age", "wage"}),
        ("age_group:1", {"age_group"}),
        ("wage:1 group:x", {"wage", "group"}),
        ("x:age:1 :age age", set()),
        ("Age:1\x1cage:2", {"age"}),
        ("### Input:\nage:1\n### Response:\nwage:2", {"age"}),
        ("wage:2 ### Input:age:1", {"age"}),
    ])
    def test_a_key_is_present_as_a_whole_token_prefix(self, prompt, present):
        weights = {key: 2.0**-i for i, key in enumerate(_ORACLE_KEYS)}
        spec = SyntheticOracleSpec(("yes", "no"), weights)
        expected = 1.0 / (1.0 + math.exp(-sum(w for key, w in weights.items() if key in present)))
        topk = SyntheticBackend(spec).query(prompt, 2)
        assert dict(zip(topk.tokens, topk.logprobs))[" yes"] == math.log(expected)

    def test_synth_demo_writes_the_reference_oracle_artifacts(self, tmp_path, monkeypatch):
        keys = list(_ORACLE_KEYS) + ["capital_gain", "capital_gain_x", "x_capital_gain",
                                     "hours", "hours_per_week", "sex", "race"]
        weights = {key: 2.0 * 0.75**i * (1 + 0.013 * i) for i, key in enumerate(keys)}
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps({"classes": ["yes", "no"], "weights": weights,
                                      "bias": 3.0 - sum(weights.values())}))
        names = ["results_jsd.json", "results_kl.json", "results_l1.json", "curves.json",
                 "evaluations.jsonl", "rank_report_jsd.json"]
        argv = ["synth-demo", "--oracle", str(oracle), "--n-instances", "2", "--seed", "3"]
        assert cli.main([*argv, "--out", str(tmp_path / "production")]) == 0
        references = []

        def reference_backend(kind, target, *args):
            assert kind == "synthetic"
            references.append(ReferenceOracle(SyntheticOracleSpec.from_json(target)))
            return references[-1]

        monkeypatch.setattr(cli, "open_backend", reference_backend)
        assert cli.main([*argv, "--out", str(tmp_path / "reference")]) == 0
        assert len(references) == 1 and references[0].calls > 2 * 800
        for name in names:
            production = (tmp_path / "production" / name).read_bytes()
            assert production == (tmp_path / "reference" / name).read_bytes(), name


def _new_rows_reference(rows: np.ndarray) -> np.ndarray:
    sizes = rows.sum(axis=1)
    rows = rows[(sizes > 0) & (sizes != rows.shape[1] - 1)]
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


class TestNewRows:
    @pytest.mark.parametrize("m", [2, 14, 70])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_unique_first_occurrences(self, m, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((300, m)) < rng.uniform(0.05, 0.95)
        # Repeat some rows and add empty, full and leave-one-out rows.
        rows = np.vstack([rows, rows[rng.integers(0, 300, 100)], np.zeros((3, m), dtype=bool),
                          np.ones((2, m), dtype=bool), ~np.eye(m, dtype=bool)[: min(m, 5)]])
        rows = rows[rng.permutation(len(rows))]
        expected = _new_rows_reference(rows)
        assert _new_rows(rows).tobytes() == expected.tobytes()
        assert _new_rows(rows).shape == expected.shape

        # Fed in blocks with a shared seen-set, the blocks' new rows stack up
        # to the same rows.
        seen: set[bytes] = set()
        blocks = [_new_rows(block, seen) for block in np.array_split(rows, 4)]
        assert np.vstack(blocks).tobytes() == expected.tobytes()

    def test_no_rows_left(self):
        rows = np.vstack([np.zeros((2, 4), dtype=bool), ~np.eye(4, dtype=bool)])
        assert _new_rows(rows).shape == (0, 4)


def _counting(monkeypatch, module, name) -> list[int]:
    calls: list[int] = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _deletion_case():
    keys = ("a", "b", "c", "d", "e")
    instances = [make_instance(i, keys, [f"v{i}{j}" for j in range(5)]) for i in range(3)]
    rankings = {
        "random": {i.index: random_order(i, 7 + i.index) for i in instances},
        "external": {i.index: keys[::-1] for i in instances},
    }
    return instances, rankings


class TestOnePassPerInstance:
    def test_evaluate_builds_and_verbalizes_once(self, monkeypatch, template, yes_no_vmap):
        instance = adult_like_instance(0, np.random.default_rng(3))
        built = _counting(monkeypatch, attribution, "build_prompts")
        verbalized = _counting(monkeypatch, attribution, "class_distributions")
        backend = oracle_backend({"age": 1.2, "sex": -0.5, "race": 0.3})
        evaluation = evaluate(instance, backend, template, yes_no_vmap, SamplingConfig(seed=1))
        assert len(evaluation.membership) == 800 and instance.num_features == len(ADULT_KEYS)
        assert (len(built), len(verbalized)) == (1, 1)

    def test_run_deletion_builds_and_verbalizes_once_per_instance(
        self, monkeypatch, template, yes_no_vmap
    ):
        instances, rankings = _deletion_case()
        built = _counting(monkeypatch, faithfulness, "build_prompts")
        verbalized = _counting(monkeypatch, faithfulness, "class_distributions")
        backend = oracle_backend({"a": 1.5, "b": -0.7, "c": 0.4})
        run_deletion(instances, rankings, backend, template, yes_no_vmap, max_removals=3)
        assert (len(built), len(verbalized)) == (3, 3)

    def test_run_deletion_traces_equal_the_per_prompt_reference(self, template, yes_no_vmap):
        instances, rankings = _deletion_case()
        backend = oracle_backend({"a": 1.5, "b": -0.7, "c": 0.4, "e": 2.0})
        run = run_deletion(instances, rankings, backend, template, yes_no_vmap, max_removals=3)
        for instance in instances:
            full, _ = class_distribution(backend.query(build_prompt(template, instance.fields), 10),
                                         yes_no_vmap)
            target = int(np.argmax(full))
            for source, per_instance in rankings.items():
                order = per_instance[instance.index]
                expected = [float(full[target])]
                for t in range(1, 4):
                    prompt = build_prompt(template, fields_without_keys(instance, order[:t]))
                    dist, _ = class_distribution(backend.query(prompt, 10), yes_no_vmap)
                    expected.append(float(dist[target]))
                assert run.curves[source].traces[instance.index] == tuple(expected)


def _backend_classes(cls=Backend) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _backend_classes(sub)
    return found


class TestOneQueryPerDistinctPrompt:
    """The benchmark counts backend calls by patching ``Backend.query`` on the
    base class: each distinct prompt of a batch must be one call there, on
    the backend the batch was given, whether it answers at once or is read
    after the batch's last receive."""

    def test_no_backend_class_defines_query(self):
        classes = _backend_classes()
        assert {"HttpBackend", "RecordingBackend", "ReplayBackend", "SyntheticBackend"} <= {
            cls.__name__ for cls in classes
        }
        assert [cls for cls in classes if "query" in vars(cls)] == []

    @pytest.fixture
    def counted(self, monkeypatch):
        """Every ``Backend.query`` as (backend, prompt), and per batch its
        backend, its distinct prompts and the prompts queried on it."""
        queried: list[tuple[Backend, str]] = []
        batches: list[tuple[Backend, list[str], list[str]]] = []
        query = Backend.query

        def counted_query(self, prompt, *args, **kwargs):
            queried.append((self, prompt))
            return query(self, prompt, *args, **kwargs)

        monkeypatch.setattr(Backend, "query", counted_query)
        for module in (attribution, faithfulness):
            def counted_batch(backend, prompts, *args, _inner=module.evaluate_prompts, **kwargs):
                start = len(queried)
                answers = _inner(backend, prompts, *args, **kwargs)
                calls = [prompt for owner, prompt in queried[start:] if owner is backend]
                batches.append((backend, list(dict.fromkeys(prompts)), calls))
                return answers

            monkeypatch.setattr(module, "evaluate_prompts", counted_batch)
        return queried, batches

    @staticmethod
    def _check(queried, batches) -> None:
        """One query per distinct prompt of each batch on its backend, and
        none on that backend outside a batch."""
        assert batches
        for _, distinct, calls in batches:
            assert collections.Counter(calls) == collections.Counter(distinct)
        outer = {backend for backend, _, _ in batches}
        assert sum(len(calls) for *_, calls in batches) == sum(
            owner in outer for owner, _ in queried
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_synth_demo_queries_each_distinct_prompt_once_per_batch(
        self, workers, counted, tmp_path, capsys
    ):
        queried, batches = counted
        weights = {key: 1.0 + i for i, key in enumerate(ADULT_KEYS)}
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps({"classes": ["yes", "no"], "weights": weights}))
        assert cli.main(["synth-demo", "--oracle", str(oracle), "--n-instances", "2",
                         "--workers", str(workers), "--out", str(tmp_path / "out")]) == 0
        assert len(batches) == 2 + 2 and sum(len(q) for *_, q in batches) == len(queried)
        self._check(queried, batches)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["http", "record", "replay"])
    def test_attribute_and_curves_query_each_distinct_prompt_once_per_batch(
        self, kind, workers, counted, tmp_path, capsys
    ):
        queried, batches = counted
        keys = ["age", "job", "city", "hours"]
        spec = SyntheticOracleSpec(("yes", "no"), {"age": 1.2, "job": -0.7, "city": 0.4,
                                                    "hours": 0.9})
        dataset, schema, vmap = (tmp_path / name for name in ("d.csv", "s.json", "v.json"))
        dataset.write_text("age,job,city,hours\n31,clerk,oslo,40\n58,smith,rome,25\n")
        schema.write_text(json.dumps(dict.fromkeys(keys, "categorical")))
        vmap.write_text(json.dumps({"yes": ["yes"], "no": ["no"]}))
        recording = tmp_path / "recording.json"

        def run(backend, out, *extra):
            common = ["--dataset", str(dataset), "--schema", str(schema), "--verbalizer",
                      str(vmap), "--indices", "0,1", "--workers", str(workers), "--backend",
                      backend, "--out", str(tmp_path / out), *extra]
            assert cli.main(["attribute", *common]) == 0
            assert cli.main(["deletion-curve", *common, "--sources", "jsd,random"]) == 0

        class Served(KeepAliveHandler):
            oracle = SyntheticBackend(spec)

        with serving(Served) as endpoint:
            if kind == "replay":
                run(endpoint, "recorded", "--record", str(recording))
                queried.clear()
                batches.clear()
                run(f"replay:{recording}", "out")
            else:
                run(endpoint, "out", *(["--record", str(recording)] if kind == "record" else []))
        self._check(queried, batches)
        if kind == "record":
            # The recording was empty: the live backend received every prompt once.
            inner = [prompt for owner, prompt in queried if isinstance(owner, HttpBackend)]
            assert collections.Counter(inner) == collections.Counter(
                prompt for *_, calls in batches for prompt in calls
            )
