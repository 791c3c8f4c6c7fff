from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import shutil
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import tabattr

from tabattr import (
    Backend,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    SyntheticBackend,
    SyntheticOracleSpec,
    TopKDistribution,
    cli,
    evaluate_prompts,
    open_backend,
    parse_backend,
    prompt_digest,
)
from tabattr.backends import _Connection, _MalformedResponse, _read_response
from tabattr.errors import (
    BackendError,
    BackendUnavailableError,
    CacheMissError,
    ConfigError,
    ProtocolError,
)
from tabattr._json_io import dump_canonical
from conftest import (
    KeepAliveHandler,
    logistic,
    oracle_backend,
    query_threads,
    serving,
    topk_from,
)
from reference import read_response_by_lines

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
RECORDING = Path(__file__).resolve().parent / "data" / "recording.json"

#: The answers in ``RECORDING``, by prompt and k, as (token, logprob) pairs:
#: k=1, k=10 with a -inf entry and tokens that JSON escapes, a -0.0 logprob
#: and an empty answer.
WIRE_SCRIPT = {
    ("### Input:\nage:41 income:high\n\n### Response:\n", 1): [(" yes", math.log(0.75))],
    ("### Input:\nage:23\n\n### Response:\n", 10): [
        (" no", math.log(0.5)), (" yes", math.log(0.3)), ("No", math.log(0.1)),
        ("\u00e9t\u00e9", math.log(0.05)), ('"quoted"', math.log(0.02)),
        ("tab\t\\", math.log(0.01)), ("", -700.0), ("\U0001f600", -745.0),
        (" maybe", -800.5), (" unknown", -math.inf),
    ],
    ("age:1", 2): [(" no", -0.0), (" yes", -math.inf)],
    ("income:low", 3): [],
}


class _Scripted(Backend):
    """Answers each (prompt, k) of a script, read through the wire shape."""

    def __init__(self, script):
        super().__init__()
        self.script = script

    def _fetch(self, prompt, k, wait):
        tokens = [{"token": t, "logprob": lp} for t, lp in self.script[prompt, k]]
        return TopKDistribution.from_payload({"tokens": tokens}, k)


def _wire_bits(answer: TopKDistribution) -> list[tuple[str, bytes]]:
    return [(e["token"], struct.pack("<d", e["logprob"])) for e in answer.to_payload()["tokens"]]


@st.composite
def _wire_answers(draw) -> TopKDistribution:
    k = draw(st.integers(1, 12))
    n = draw(st.integers(0, k))
    weights = draw(st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-300, 1.0])),
        min_size=n, max_size=n,
    ))
    probs = [w / n for w in weights]
    logprobs = sorted((math.log(p) if p > 0 else -math.inf for p in probs), reverse=True)
    text = st.text(alphabet=' aY"\\/\t\n\x00\x1f\u00e9\u2028\U0001f600', max_size=6)
    tokens = [{"token": draw(text), "logprob": lp} for lp in logprobs]
    return TopKDistribution.from_payload({"tokens": tokens}, k)


class TestWireShape:
    """Answers cross the wire, into a recording and back out of it, unchanged
    to the bit. ``RECORDING`` was written by ``RecordingBackend`` over
    ``_Scripted(WIRE_SCRIPT)``, querying the script in order."""

    def test_recording_the_script_again_writes_the_same_bytes(self, tmp_path):
        path = tmp_path / "recording.json"
        with RecordingBackend(_Scripted(WIRE_SCRIPT), path) as recorder:
            for prompt, k in WIRE_SCRIPT:
                recorder.query(prompt, k)
        assert path.read_bytes() == RECORDING.read_bytes()

    def test_replaying_it_gives_the_scripted_answers(self):
        replay = ReplayBackend(RECORDING)
        live = _Scripted(WIRE_SCRIPT)
        for (prompt, k), entries in WIRE_SCRIPT.items():
            answer = replay.query(prompt, k)
            assert answer == live.query(prompt, k)
            assert _wire_bits(answer) == [(t, struct.pack("<d", lp)) for t, lp in entries]

    @given(_wire_answers())
    def test_payload_round_trip_is_bit_exact(self, answer):
        payload = answer.to_payload()
        for wire in (payload, json.loads(json.dumps(payload))):
            again = TopKDistribution.from_payload(wire, answer.k)
            assert again == answer
            assert _wire_bits(again) == _wire_bits(answer)


class TestWireTypes:
    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError, match=r"^logprob for 'x' is positive: 0.1$"):
            TopKDistribution(("x",), (0.1,), k=1)

    def test_entries_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            TopKDistribution(tokens=("a", "b"), logprobs=(-2.0, -1.0), k=5)

    def test_entries_exceeding_k_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            TopKDistribution(tokens=("0", "1", "2"), logprobs=(-1.0, -2.0, -3.0), k=2)

    def test_mass_above_one_rejected(self):
        with pytest.raises(ValueError, match="exceeding 1"):
            TopKDistribution(tokens=("a", "b"), logprobs=(math.log(0.7),) * 2, k=5)

    @pytest.mark.parametrize("tokens, logprobs", [(("a", "b"), (-1.0,)), (("a",), (-1.0, 0.5))])
    def test_tuples_of_unequal_length_rejected_first(self, tokens, logprobs):
        with pytest.raises(ValueError, match=r"^\d tokens? but \d logprobs?$"):
            TopKDistribution(tokens, logprobs, k=0)

    def test_payload_round_trip(self):
        dist = topk_from({" yes": 0.6, " no": 0.2}, k=4)
        again = TopKDistribution.from_payload(dist.to_payload(), k=4)
        assert again == dist

    def test_malformed_payload_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            TopKDistribution.from_payload({"tokens": [{"token": "x"}]}, k=3)
        with pytest.raises(ProtocolError):
            TopKDistribution.from_payload({"tokens": [{"token": "x", "logprob": 0.5}]}, k=3)

    @pytest.mark.parametrize("logprob", [math.nan, math.inf], ids=["nan", "+inf"])
    def test_nan_and_plus_inf_logprobs_rejected(self, logprob):
        with pytest.raises(ValueError, match=r"^logprob for 'x' must be finite or -inf$"):
            TopKDistribution(("x",), (logprob,), k=1)

    def test_minus_inf_logprob_is_an_entry_of_zero_mass(self):
        dist = TopKDistribution(("a", "b"), (math.log(0.5), -math.inf), k=2)
        assert dist.logprobs[1] == -math.inf
        assert TopKDistribution(("b",), (-math.inf,), k=1).tokens == ("b",)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            TopKDistribution((), (), k=0)
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            TopKDistribution(("a",), (-1.0,), k=0)

    @pytest.mark.parametrize(
        "logprobs, k, message",
        [
            ([math.nan], 3, "logprob for 't0' must be finite or -inf"),
            ([math.inf], 3, "logprob for 't0' must be finite or -inf"),
            ([-1.0, 0.5], 3, "logprob for 't1' is positive: 0.5"),
            ([-1.0], 0, "k must be >= 1"),
            ([], 0, "k must be >= 1"),
            ([-1.0, -2.0, -3.0], 2, "3 entries exceed k=2"),
            ([-2.0, -1.0], 5, "entries must be sorted non-increasing by logprob"),
            ([math.log(0.7)] * 2, 5, f"probabilities sum to {0 + 0.7 + 0.7}, exceeding 1"),
            # A bad entry is reported before anything about the whole answer.
            ([-2.0, -1.0, math.nan], 1, "logprob for 't2' must be finite or -inf"),
            ([-1.0, -2.0, 3.0], 0, "logprob for 't2' is positive: 3.0"),
            ([-2.0, -1.0, -3.0], 2, "3 entries exceed k=2"),
            ([-2.0, -1.0] + [math.log(0.7)] * 2, 9,
             "entries must be sorted non-increasing by logprob"),
        ],
    )
    def test_payload_checks_keep_their_messages(self, logprobs, k, message):
        payload = {"tokens": [{"token": f"t{i}", "logprob": lp} for i, lp in enumerate(logprobs)]}
        with pytest.raises(ProtocolError) as err:
            TopKDistribution.from_payload(payload, k=k)
        assert str(err.value) == f"malformed top-k payload: {message}"
        assert isinstance(err.value.__cause__, ValueError)
        assert str(err.value.__cause__) == message

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"tokens": [{"token": "x"}]}, "'logprob'"),
            ({"tokens": [{"logprob": -1.0}]}, "'token'"),
            ({}, "'tokens'"),
            ({"tokens": [{"token": "x", "logprob": "high"}]},
             "could not convert string to float: 'high'"),
            ({"tokens": [{"token": "x", "logprob": None}]},
             "float() argument must be a string or a real number, not 'NoneType'"),
            ({"tokens": 5}, "'int' object is not iterable"),
            ({"tokens": ["x"]}, "string indices must be integers, not 'str'"),
            # Entries convert and check in turn: a bad first entry wins.
            ({"tokens": [{"token": "x", "logprob": 0.5}, {"token": "y"}]},
             "logprob for 'x' is positive: 0.5"),
            ({"tokens": [{"token": "x"}, {"token": "y", "logprob": 0.5}]}, "'logprob'"),
        ],
    )
    def test_malformed_payload_keeps_its_message(self, payload, message):
        with pytest.raises(ProtocolError) as err:
            TopKDistribution.from_payload(payload, k=3)
        assert str(err.value) == f"malformed top-k payload: {message}"

    def test_payload_with_minus_inf_is_accepted(self):
        tokens = [{"token": "a", "logprob": -0.5}, {"token": "b", "logprob": -math.inf}]
        dist = TopKDistribution.from_payload({"tokens": tokens}, k=2)
        assert dist == TopKDistribution(("a", "b"), (-0.5, -math.inf), k=2)
        assert type(dist.tokens) is tuple and type(dist.logprobs) is tuple

    def test_digest_depends_on_prompt_and_k(self):
        assert prompt_digest("p", 5) != prompt_digest("p", 6)
        assert prompt_digest("p", 5) != prompt_digest("q", 5)
        assert prompt_digest("p", 5) == prompt_digest("p", 5)


class TestQueryContract:
    def test_empty_prompt_rejected(self):
        backend = oracle_backend({"a": 1.0})
        with pytest.raises(ValueError):
            backend.query("", 5)

    def test_k_below_one_rejected(self):
        backend = oracle_backend({"a": 1.0})
        with pytest.raises(ValueError):
            backend.query("a:1", 0)


class TestSyntheticBackend:
    def test_present_feature_shifts_probability(self, yes_no_vmap):
        backend = oracle_backend({"a": 2.0})
        topk = backend.query("a:1 b:2", 10)
        p_yes = math.exp(topk.logprobs[0])
        assert topk.tokens[0] == " yes"
        assert p_yes == pytest.approx(logistic(2.0), abs=1e-12)
        assert p_yes == pytest.approx(0.8808, abs=1e-4)

    def test_absent_feature_contributes_zero(self):
        backend = oracle_backend({"a": 2.0})
        topk = backend.query("b:2 c:3", 10)
        probs = {t: math.exp(lp) for t, lp in zip(topk.tokens, topk.logprobs)}
        assert probs[" yes"] == pytest.approx(0.5, abs=1e-12)

    def test_markers_restrict_parsing_to_input_block(self):
        backend = oracle_backend({"a": 2.0})
        prompt = "mentions a:1 here\n\n### Input:\nb:2\n\n### Response:\n"
        topk = backend.query(prompt, 10)
        probs = {t: math.exp(lp) for t, lp in zip(topk.tokens, topk.logprobs)}
        assert probs[" yes"] == pytest.approx(0.5, abs=1e-12)

    def test_deterministic(self):
        backend = oracle_backend({"a": 2.0}, bias=-0.3)
        assert backend.query("a:1", 10) == backend.query("a:1", 10)

    def test_probability_does_not_depend_on_the_hash_seed(self):
        # Set iteration order follows the per-process string-hash seed; the
        # oracle's sum must not, or runs differ in the last bits.
        script = (
            "import hashlib, itertools\n"
            "from tabattr import SyntheticBackend, SyntheticOracleSpec\n"
            "keys = [f'feature_{i}' for i in range(14)]\n"
            "weights = {k: 2.0 * 0.75**i * (1 + 0.013 * i) for i, k in enumerate(keys)}\n"
            "backend = SyntheticBackend(SyntheticOracleSpec(('yes', 'no'), weights, bias=-3.0))\n"
            "subsets = (s for r in range(1, 15) for s in itertools.combinations(keys, r))\n"
            "answers = (backend.query(' '.join(f'{k}:1' for k in s), 2) for s in subsets)\n"
            "text = ' '.join(repr(a.logprobs[0]) for a in answers)\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        src = str(Path(tabattr.__file__).resolve().parents[1])
        digests = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                check=True, timeout=120,
            )
            digests.add(done.stdout)
        assert len(digests) == 1

    def test_k_one_truncates(self):
        backend = oracle_backend({"a": 2.0})
        topk = backend.query("a:1", 1)
        assert len(topk.tokens) == len(topk.logprobs) == 1

    def test_spec_round_trip(self, tmp_path):
        spec = SyntheticOracleSpec(classes=("yes", "no"), weights={"a": 1.5}, bias=0.25)
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(spec.to_payload()))
        assert SyntheticOracleSpec.from_json(path) == spec

    def test_bad_spec_rejected(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({"classes": ["only-one"], "weights": {}}))
        with pytest.raises(ConfigError):
            SyntheticOracleSpec.from_json(path)


class TestOracleKeys:
    """An oracle key must be a field key, as ``normalize_key`` makes it from
    a column name: anything else could never appear in a prompt."""

    @staticmethod
    def refused(key: str) -> None:
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            SyntheticOracleSpec(classes=("yes", "no"), weights={"age": 1.0, key: 2.0})

    @pytest.mark.parametrize("key", ["capital gain", "capital\tgain", "age ", "\u3000age",
                                     "a\x1cb", "a\x85b"])
    def test_whitespace_refused(self, key):
        self.refused(key)

    @pytest.mark.parametrize("key", ["odd:name", ":age", "age:"])
    def test_colon_refused(self, key):
        self.refused(key)

    @pytest.mark.parametrize("key", ["", "   "])
    def test_empty_refused(self, key):
        self.refused(key)

    @pytest.mark.parametrize("key", ["Age", "Capital Gain", "capital_Gain"])
    def test_uppercase_refused(self, key):
        self.refused(key)

    def test_refused_when_read_from_json(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({"classes": ["yes", "no"], "weights": {"Capital Gain": 2.0}}))
        with pytest.raises(ConfigError, match="'Capital Gain'.*the key 'capital_gain'"):
            SyntheticOracleSpec.from_json(path)

    def test_field_keys_load(self):
        keys = ["age", "capital_gain", "native_country", "x1", "a-b.c", "\u00e9t\u00e9"]
        spec = SyntheticOracleSpec(classes=("yes", "no"), weights=dict.fromkeys(keys, 1.0))
        assert list(spec.weights) == keys

    def test_every_benchmark_oracle_loads(self, tmp_path):
        sys.path.insert(0, PERFBENCH)
        try:
            import workloads
        finally:
            sys.path.remove(PERFBENCH)
        for m in (10, 14):
            for seed in range(129):
                data = workloads.oracle_spec(seed, m)
                path = workloads.write_json(tmp_path / "oracle.json", data)
                spec = SyntheticOracleSpec.from_json(path)
                assert spec.to_payload() == data


class TestOracleSpecFile:
    """A spec file is refused, naming itself, unless ``classes`` is a list of
    two distinct strings, ``weights`` an object of finite numbers, ``bias`` a
    finite number and ``link`` the string ``"logistic"``."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"weights": {"a": math.nan}}, "oracle weight 'a' must be a finite number, got nan"),
            ({"weights": {"a": -math.inf}}, "oracle weight 'a' must be a finite number, got -inf"),
            ({"weights": {"a": 10**400}}, "oracle weight 'a' must be a finite number"),
            ({"weights": {"a": True}}, "oracle weight 'a' must be a finite number, got True"),
            ({"weights": {"a": "2.0"}}, "oracle weight 'a' must be a finite number, got '2.0'"),
            ({"weights": [1, 2]}, "oracle weights must map keys to numbers, got [1, 2]"),
            ({"bias": math.inf}, "oracle bias must be a finite number, got inf"),
            ({"bias": "0.5"}, "oracle bias must be a finite number, got '0.5'"),
            ({"classes": "ab"}, "two distinct class strings, got 'ab'"),
            ({"classes": ["yes", 1]}, "two distinct class strings, got ['yes', 1]"),
            ({"link": ["logistic"]}, "unsupported link ['logistic']"),
        ],
        ids=["nan", "-inf", "huge-int", "bool", "string-weight", "weights-list", "inf-bias",
             "string-bias", "classes-string", "class-number", "link-list"],
    )
    def test_refused_naming_the_file(self, change, message, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({"classes": ["yes", "no"], "weights": {"a": 1.0}, **change}))
        with pytest.raises(ConfigError) as err:
            SyntheticOracleSpec.from_json(path)
        assert str(err.value).startswith(f"malformed oracle spec {path}: ")
        assert message in str(err.value)

    def test_numbers_load_as_floats(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text('{"classes": ["yes", "no"], "weights": {"a": 2, "b": -0.5}, "bias": 1}')
        spec = SyntheticOracleSpec.from_json(path)
        assert spec.weights == {"a": 2.0, "b": -0.5} and spec.bias == 1.0
        assert [type(v) for v in (*spec.weights.values(), spec.bias)] == [float] * 3

    @pytest.mark.parametrize("weight", [-709.0, -720.0, -745.0, -800.0, -1e300])
    def test_score_below_the_exp_range_does_not_overflow(self, weight):
        # 1 / (1 + exp(-score)) overflows below about -709.78; exp(score) is
        # the same value there, to rounding.
        topk = oracle_backend({"a": weight}).query("a:1", 2)
        p_yes = 1.0 / (1.0 + math.exp(-weight)) if weight > -709.78 else math.exp(weight)
        assert topk.tokens == (" no", " yes")
        assert topk.logprobs == (0.0, math.log(p_yes) if p_yes > 0 else -math.inf)


class TestReplayAndRecording:
    def test_record_then_replay_bit_exact(self, tmp_path):
        store = tmp_path / "cache.json"
        live = oracle_backend({"a": 1.0})
        with RecordingBackend(live, store) as recorder:
            first = recorder.query("a:1 b:2", 7)
            second = recorder.query("a:1 b:2", 7)
        assert live.calls == 1  # second hit served from the store
        replay = ReplayBackend(store)
        assert replay.query("a:1 b:2", 7) == first == second
        assert replay.query("a:1 b:2", 7) == replay.query("a:1 b:2", 7)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_recorded_logprob_fails_on_query(self, tmp_path, literal):
        store = tmp_path / "cache.json"
        bad = '{"tokens": [{"token": " yes", "logprob": %s}]}' % literal
        store.write_text('{"%s": %s,\n"%s": %s}\n' % (
            prompt_digest("bad", 3), bad,
            prompt_digest("good", 3), '{"tokens": [{"token": " yes", "logprob": -0.5}]}',
        ))
        replay = ReplayBackend(store)
        assert replay.query("good", 3) == TopKDistribution((" yes",), (-0.5,), 3)
        with pytest.raises(ProtocolError, match="must be finite or -inf"):
            replay.query("bad", 3)
        live = oracle_backend({"a": 1.0})
        with RecordingBackend(live, store) as recorder:
            with pytest.raises(ProtocolError, match="must be finite or -inf"):
                recorder.query("bad", 3)
        assert live.calls == 0

    def test_replay_miss_carries_digest(self, tmp_path):
        store = tmp_path / "cache.json"
        store.write_text("{}")
        replay = ReplayBackend(store)
        with pytest.raises(CacheMissError) as err:
            replay.query("unseen", 3)
        assert err.value.digest == prompt_digest("unseen", 3)

    def test_replay_requires_readable_json(self, tmp_path):
        store = tmp_path / "cache.json"
        store.write_text("{broken")
        with pytest.raises(BackendError):
            ReplayBackend(store)
        with pytest.raises(BackendError):
            ReplayBackend(tmp_path / "missing.json")
        store.write_bytes(b'{"a":\xff}\n')
        with pytest.raises(BackendError, match="cache.json"):
            ReplayBackend(store)

    def test_recording_requires_readable_json(self, tmp_path):
        store = tmp_path / "recording.json"
        store.write_text("{broken")
        with pytest.raises(BackendError, match="recording.json"):
            RecordingBackend(oracle_backend({"a": 1.0}), store)
        store.write_text("[]")
        with pytest.raises(BackendError, match="recording.json"):
            RecordingBackend(oracle_backend({"a": 1.0}), store)


class TestIdentity:
    """Each backend names what its answers come from; the evaluation store
    records that name and refuses another."""

    def test_http_is_its_url_and_a_recording_of_it_the_same(self, tmp_path):
        url = "http://127.0.0.1:9/logprobs"
        assert HttpBackend(url).identity == f"http:{url}"
        assert HttpBackend(url + "2").identity != HttpBackend(url).identity
        with open_backend("http", url, record=str(tmp_path / "recording.json")) as recorder:
            assert isinstance(recorder, RecordingBackend)
            assert recorder.identity == f"http:{url}"

    def test_replay_is_the_sha256_of_the_recording_bytes(self, tmp_path):
        path = tmp_path / "recording.json"
        shutil.copyfile(RECORDING, path)
        digest = hashlib.sha256(RECORDING.read_bytes()).hexdigest()
        assert ReplayBackend(path).identity == f"replay:{digest}"
        _record(path, ["a:1 b:2"])
        assert ReplayBackend(path).identity == (
            f"replay:{hashlib.sha256(path.read_bytes()).hexdigest()}"
        ) != f"replay:{digest}"

    def test_synthetic_is_the_sha256_of_the_spec_payload(self, tmp_path):
        spec = SyntheticOracleSpec(classes=("yes", "no"), weights={"a": 1.0, "b": -0.5})
        markers = {"input_marker": "### Input:", "response_marker": "### Response:"}
        payload = json.dumps({**spec.to_payload(), **markers}, separators=(",", ":")).encode()
        identity = f"synthetic:{hashlib.sha256(payload).hexdigest()}"
        assert SyntheticBackend(spec).identity == identity
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({"weights": {"a": 1, "b": -0.5}, "classes": ["yes", "no"]}))
        assert open_backend("synthetic", str(path)).identity == identity
        others = [{"a": 1.0, "b": -0.25}, {"b": -0.5, "a": 1.0}]
        assert identity not in {
            SyntheticBackend(SyntheticOracleSpec(("yes", "no"), weights)).identity
            for weights in others
        } | {SyntheticBackend(spec, "INPUT:", "### Response:").identity,
             SyntheticBackend(spec, "### Input:", "ANSWER:").identity}

    def test_a_backend_without_one_says_so(self):
        with pytest.raises(NotImplementedError, match="_CountingBackend names no identity"):
            _CountingBackend(oracle_backend({"a": 1.0})).identity


class _CountingBackend(tabattr.Backend):
    """Delegates to an inner backend and keeps every prompt it was asked."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.prompts = []

    def _fetch(self, prompt, k, wait):
        self.prompts.append(prompt)
        return self.inner.query(prompt, k, wait)


def _record(path, prompts):
    with RecordingBackend(oracle_backend({"a": 1.0, "b": -0.5}), path) as recorder:
        return {p: recorder.query(p, 3) for p in prompts}


class TestAppendOnlyRecording:
    PROMPTS = [f"a:{i} b:{i % 7}" for i in range(6)]

    def test_appends_keep_the_file_and_every_earlier_byte(self, tmp_path):
        io_stats = Path("/proc/self/io")
        if not io_stats.exists():
            pytest.skip("needs /proc/self/io to count the bytes this process writes")

        def written() -> int:
            fields = dict(line.split(": ") for line in io_stats.read_text().splitlines())
            return int(fields["wchar"])

        store = tmp_path / "recording.json"
        with RecordingBackend(oracle_backend({"a": 1.0}), store) as recorder:
            recorder.query("a:0", 3)
            inode = store.stat().st_ino
            before = written()
            previous = store.read_bytes()
            for i in range(1, 2000):
                recorder.query(f"a:{i}", 3)
                current = store.read_bytes()
                brace = previous.rindex(b"}")
                assert current[:brace] == previous[:brace]
                assert current.endswith(b"\n}\n")
                previous = current
            total = written() - before
            assert store.stat().st_ino == inode
            # Rewriting the store on every response would write about 1000
            # times the final file size; appending writes it once.
            assert total < 2 * len(previous)
            assert len(json.loads(previous)) == 2000
            replay = ReplayBackend(store)
            assert replay.query("a:1999", 3) == recorder.query("a:1999", 3)

    @pytest.mark.parametrize("damage", ["cut_in_last_line", "closing_brace_missing"])
    def test_torn_last_append_is_repaired_on_open(self, damage, tmp_path):
        store = tmp_path / "recording.json"
        recorded = _record(store, self.PROMPTS)
        data = store.read_bytes()
        body = data[: -len(b"}\n")]
        if damage == "cut_in_last_line":
            last_line_start = body.rindex(b"\n", 0, len(body) - 1) + 1
            store.write_bytes(body[: last_line_start + 40])
            requeried = self.PROMPTS[-1:]
        else:
            store.write_bytes(body)
            requeried = []
        live = _CountingBackend(oracle_backend({"a": 1.0, "b": -0.5}))
        with RecordingBackend(live, store) as recorder:
            for prompt in self.PROMPTS:
                assert recorder.query(prompt, 3) == recorded[prompt]
        assert live.prompts == requeried
        assert len(json.loads(store.read_bytes())) == len(self.PROMPTS)
        replay = ReplayBackend(store)
        assert all(replay.query(p, 3) == recorded[p] for p in self.PROMPTS)

    def test_torn_recording_replays_without_a_write(self, tmp_path):
        store = tmp_path / "recording.json"
        recorded = _record(store, self.PROMPTS)
        body = store.read_bytes()[: -len(b"}\n")]
        last_line_start = body.rindex(b"\n", 0, len(body) - 1) + 1
        torn = body[: last_line_start + 40]
        store.write_bytes(torn)
        replay = ReplayBackend(store)
        for prompt in self.PROMPTS[:-1]:
            assert replay.query(prompt, 3) == recorded[prompt]
        with pytest.raises(CacheMissError):
            replay.query(self.PROMPTS[-1], 3)
        assert store.read_bytes() == torn

    def test_damage_before_the_last_line_is_still_an_error(self, tmp_path):
        store = tmp_path / "recording.json"
        _record(store, self.PROMPTS)
        data = store.read_bytes()
        store.write_bytes(data.replace(b'":{', b'"#{', 1))
        with pytest.raises(BackendError, match="recording.json"):
            RecordingBackend(oracle_backend({"a": 1.0}), store)
        with pytest.raises(BackendError, match="recording.json"):
            ReplayBackend(store)

    def test_appends_to_a_pretty_printed_recording(self, tmp_path):
        store = tmp_path / "recording.json"
        old = oracle_backend({"a": 1.0, "b": -0.5})
        pretty = {prompt_digest(p, 3): old.query(p, 3).to_payload() for p in self.PROMPTS[:3]}
        store.write_text(dump_canonical(pretty), encoding="utf-8")
        live = _CountingBackend(oracle_backend({"a": 1.0, "b": -0.5}))
        with RecordingBackend(live, store) as recorder:
            answers = {p: recorder.query(p, 3) for p in self.PROMPTS}
        assert live.prompts == self.PROMPTS[3:]
        replay = ReplayBackend(store)
        assert {p: replay.query(p, 3) for p in self.PROMPTS} == answers

    def test_concurrent_appends_lose_no_response(self, tmp_path):
        store = tmp_path / "recording.json"
        prompts = [f"a:{i} b:{i % 5}" for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RecordingBackend(oracle_backend({"a": 1.0, "b": -0.5}), store) as recorder:
                answers = evaluate_prompts(recorder, prompts, 3, workers=16)
        finally:
            sys.setswitchinterval(interval)
        replay = ReplayBackend(store)
        assert len(json.loads(store.read_bytes())) == len(prompts)
        assert all(replay.query(p, 3) == answers[p] for p in prompts)

    def test_empty_object_file_takes_appends(self, tmp_path):
        store = tmp_path / "recording.json"
        store.write_text("{}")
        recorded = _record(store, self.PROMPTS[:2])
        replay = ReplayBackend(store)
        assert {p: replay.query(p, 3) for p in self.PROMPTS[:2]} == recorded


class _ScriptedHandler(BaseHTTPRequestHandler):
    script = []  # (status, body_bytes[, headers]) consumed per request
    requests_seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).requests_seen.append(json.loads(self.rfile.read(length)))
        status, body, *headers = self.script.pop(0) if self.script else (200, b"{}")
        self.send_response(status)
        # Scripted headers replace the defaults; a None value leaves one out.
        sent = {"Content-Type": "application/json", "Content-Length": str(len(body))}
        for name, value in {**sent, **(headers[0] if headers else {})}.items():
            if value is not None:
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    _ScriptedHandler.script = []
    _ScriptedHandler.requests_seen = []
    with serving(_ScriptedHandler) as endpoint:
        yield endpoint, _ScriptedHandler


@pytest.fixture
def keep_alive_handler():
    class Handler(KeepAliveHandler):
        pass

    return Handler


def _ok_body(tokens):
    return json.dumps({"tokens": tokens}).encode()


class TestHttpBackend:
    def test_posts_wire_protocol_and_parses(self, http_server):
        endpoint, handler = http_server
        handler.script = [
            (200, _ok_body([{"token": " yes", "logprob": -0.1}, {"token": " no", "logprob": -2.4}]))
        ]
        backend = HttpBackend(endpoint, retries=0)
        topk = backend.query("hello", 2)
        assert handler.requests_seen == [{"prompt": "hello", "top_k": 2}]
        assert topk.tokens == (" yes", " no")

    def test_retries_transient_500_then_succeeds(self, http_server):
        endpoint, handler = http_server
        handler.script = [
            (500, b"boom"),
            (200, _ok_body([{"token": "x", "logprob": -1.0}])),
        ]
        backend = HttpBackend(endpoint, retries=2, backoff=0.01)
        topk = backend.query("p", 1)
        assert topk.tokens[0] == "x"
        assert len(handler.requests_seen) == 2

    def test_unavailable_after_retry_budget(self, http_server):
        endpoint, handler = http_server
        handler.script = [(500, b"boom")] * 3
        backend = HttpBackend(endpoint, retries=1, backoff=0.01)
        with pytest.raises(BackendUnavailableError):
            backend.query("p", 1)

    def test_429_honours_retry_after_then_succeeds(self, http_server):
        endpoint, handler = http_server
        handler.script = [
            (429, b"slow down", {"Retry-After": "0"}),
            (200, _ok_body([{"token": "x", "logprob": -1.0}])),
        ]
        # A backoff step of 30 s would stall the test; Retry-After: 0 replaces it.
        backend = HttpBackend(endpoint, retries=1, backoff=30.0)
        started = time.monotonic()
        assert backend.query("p", 1).tokens[0] == "x"
        assert time.monotonic() - started < 10.0
        assert len(handler.requests_seen) == 2

    def test_persistent_429_exhausts_retry_budget(self, http_server):
        endpoint, handler = http_server
        handler.script = [(429, b"slow down")] * 5
        backend = HttpBackend(endpoint, retries=2, backoff=0.01)
        with pytest.raises(BackendUnavailableError, match="429"):
            backend.query("p", 1)
        assert len(handler.requests_seen) == 3

    def test_4xx_is_protocol_error(self, http_server):
        endpoint, handler = http_server
        handler.script = [(404, b"nope")]
        backend = HttpBackend(endpoint, retries=3, backoff=0.01)
        with pytest.raises(ProtocolError):
            backend.query("p", 1)
        assert len(handler.requests_seen) == 1  # no retry on protocol errors

    def test_non_json_body_is_protocol_error(self, http_server):
        endpoint, handler = http_server
        handler.script = [(200, b"<html>")]
        backend = HttpBackend(endpoint, retries=0)
        with pytest.raises(ProtocolError):
            backend.query("p", 1)

    def test_positive_logprob_is_protocol_error(self, http_server):
        endpoint, handler = http_server
        handler.script = [(200, _ok_body([{"token": "x", "logprob": 0.2}]))]
        backend = HttpBackend(endpoint, retries=0)
        with pytest.raises(ProtocolError):
            backend.query("p", 1)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_json_logprob_is_protocol_error(self, http_server, literal):
        endpoint, handler = http_server
        handler.script = [(200, b'{"tokens": [{"token": "x", "logprob": %s}]}' % literal.encode())]
        backend = HttpBackend(endpoint, retries=2, backoff=0.01)
        with pytest.raises(ProtocolError, match="must be finite or -inf"):
            backend.query("p", 1)
        assert len(handler.requests_seen) == 1

    def test_minus_infinity_json_logprob_is_an_entry(self, http_server):
        endpoint, handler = http_server
        handler.script = [
            (200, b'{"tokens": [{"token": "x", "logprob": 0.0}, '
                  b'{"token": "y", "logprob": -Infinity}]}')
        ]
        topk = HttpBackend(endpoint, retries=0).query("p", 2)
        assert (topk.tokens, topk.logprobs) == (("x", "y"), (0.0, -math.inf))

    def test_recording_wrapper_via_descriptor(self, http_server, tmp_path):
        endpoint, handler = http_server
        handler.script = [
            (200, _ok_body([{"token": "x", "logprob": -1.0}])),
        ]
        record = tmp_path / "rec.json"
        with open_backend(*parse_backend(endpoint), record=str(record)) as backend:
            live = backend.query("p", 1)
            assert ReplayBackend(record).query("p", 1) == live
            # second call replays without touching the network
            assert backend.query("p", 1) == live
        assert len(handler.requests_seen) == 1


class TestPooledConnections:
    def test_sequential_queries_share_one_connection(self, keep_alive_handler):
        with serving(keep_alive_handler) as endpoint, HttpBackend(endpoint, retries=0) as backend:
            answers = [backend.query(f"a:{i}", 2) for i in range(50)]
        assert keep_alive_handler.answered == 50
        assert keep_alive_handler.connections == 1
        assert answers[0] == keep_alive_handler.oracle.query("a:0", 2)

    def test_connection_closed_while_idle_is_replaced_without_a_retry(self, keep_alive_handler):
        keep_alive_handler.close_after_answer = True
        # With no retry budget, a reopen that spent an attempt would fail the
        # query; a backoff sleep would outlast the time limit.
        with serving(keep_alive_handler) as endpoint, \
                HttpBackend(endpoint, retries=0, backoff=60.0) as backend:
            started = time.monotonic()
            for i in range(20):
                assert backend.query(f"a:{i}", 2) == keep_alive_handler.oracle.query(f"a:{i}", 2)
            assert time.monotonic() - started < 30.0
        assert keep_alive_handler.answered == 20
        assert keep_alive_handler.connections == 20

    def test_workers_open_at_most_as_many_connections(self, keep_alive_handler):
        prompts = [f"a:{i}" for i in range(200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serving(keep_alive_handler) as endpoint, \
                    HttpBackend(endpoint, retries=0) as backend:
                answers = evaluate_prompts(backend, prompts, 2, workers=3)
        finally:
            sys.setswitchinterval(interval)
        assert keep_alive_handler.answered == 200
        assert keep_alive_handler.connections <= 3
        assert answers["a:7"] == keep_alive_handler.oracle.query("a:7", 2)

    def test_every_worker_has_a_request_in_flight(self, keep_alive_handler):
        # Each request is answered only once all twelve are in flight at once.
        arrived = threading.Barrier(12, timeout=10.0)
        answer = keep_alive_handler.do_POST

        def do_post_when_all_arrived(self):
            arrived.wait()
            answer(self)

        keep_alive_handler.do_POST = do_post_when_all_arrived
        prompts = [f"a:{i}" for i in range(12)]
        with serving(keep_alive_handler) as endpoint, \
                HttpBackend(endpoint, retries=0, timeout=20.0) as backend:
            answers = evaluate_prompts(backend, prompts, 2, workers=12)
        assert keep_alive_handler.connections == 12
        assert answers["a:11"] == keep_alive_handler.oracle.query("a:11", 2)

    @pytest.mark.parametrize(
        "endpoint",
        ["http:localhost:80", "ftp://host/x", "http://h:x/", "https://u:p@host/",
         "http://h:99999/", "http://h/a b", "http://h/\x7f", f"http://{'a' * 70}.com/"],
    )
    def test_malformed_endpoint_is_a_config_error(self, endpoint):
        with pytest.raises(ConfigError):
            HttpBackend(endpoint)

    @pytest.mark.parametrize(
        "setting, named",
        [({"retries": -1}, "retries=-1"), ({"timeout": 0.0}, "timeout=0.0"),
         ({"timeout": -1.0}, "timeout=-1.0"), ({"timeout": float("nan")}, "timeout=nan"),
         ({"timeout": float("inf")}, "timeout=inf"), ({"timeout": 9.3e9}, "timeout=9300000000.0"),
         ({"backoff": -1.0}, "backoff=-1.0"), ({"backoff": float("nan")}, "backoff=nan"),
         ({"backoff": float("inf")}, "backoff=inf")],
    )
    def test_invalid_setting_is_a_config_error(self, setting, named):
        with pytest.raises(ConfigError, match=named):
            HttpBackend("http://127.0.0.1:9/logprobs", **setting)

    def test_the_longest_timeout_a_socket_takes_is_accepted(self):
        with HttpBackend("http://127.0.0.1:9/logprobs", timeout=threading.TIMEOUT_MAX) as backend:
            assert backend.timeout == threading.TIMEOUT_MAX


@pytest.fixture
def retry_handler(keep_alive_handler):
    class Handler(keep_alive_handler):
        """Sends the failures scripted for a prompt at once, then oracle
        answers held ``hold`` seconds, and logs each arrival and answer."""

        script: dict[str, list[tuple]] = {}  # prompt -> [(status, body[, headers])]
        hold = 0.0
        in_flight = 0
        # (monotonic time, prompt, status or None for an arrival, requests in flight)
        events: list[tuple[float, str, int | None, int]] = []

        def answer(self, request):
            cls, prompt = type(self), request["prompt"]
            with self.counts_lock:
                cls.in_flight += 1
                cls.events.append((time.monotonic(), prompt, None, cls.in_flight))
                failure = self.script[prompt].pop(0) if self.script.get(prompt) else None
            if failure is None:
                time.sleep(self.hold)
            # Counted out before the answer goes out, so the client cannot
            # have sent its next request yet.
            with self.counts_lock:
                cls.in_flight -= 1
                status = 200 if failure is None else failure[0]
                cls.events.append((time.monotonic(), prompt, status, cls.in_flight))
            if failure is None:
                super().answer(request)
            else:
                self.reply(*failure)

    return Handler


def _attempts(events, prompt) -> list[tuple[float, int | None]]:
    """(time, status or None for an arrival) of each event of ``prompt``, in order."""
    return [(t, status) for t, p, status, _ in events if p == prompt]


_BUSY = (503, b"busy")


class TestSlotsDuringBackoff:
    """``workers`` bounds the requests in flight; a query waiting to retry holds no slot."""

    def test_a_backoff_holds_no_slot(self, retry_handler):
        backoff = 0.6
        retry_handler.script = {"a:0": [_BUSY]}
        retry_handler.hold = 0.03
        prompts = [f"a:{i}" for i in range(80)]
        with serving(retry_handler) as endpoint, \
                HttpBackend(endpoint, retries=1, backoff=backoff) as backend:
            answers = evaluate_prompts(backend, prompts, 2, workers=2)
        assert answers["a:0"] == retry_handler.oracle.query("a:0", 2)
        (_, _), (failed, status), (retried, _), (_, _) = _attempts(retry_handler.events, "a:0")
        assert status == 503
        assert retried - failed >= backoff
        # While a:0 waits, the other prompts keep both slots busy.
        arrivals = [(t, n) for t, _, status, n in retry_handler.events if status is None]
        assert max(n for t, n in arrivals if failed < t < retried) == 2
        # Once the wait is over, the retry takes the next free slot, ahead of
        # the prompts not yet started (the second half of them here).
        assert sum(failed + backoff < t < retried for t, _ in arrivals) <= 6

    def test_workers_bound_requests_in_flight_through_retries(self, retry_handler):
        retry_handler.script = {
            "a:1": [_BUSY], "a:4": [_BUSY, _BUSY], "a:9": [_BUSY],
            "a:13": [(429, b"slow down", {"Retry-After": "1"})],
        }
        retry_handler.hold = 0.02
        prompts = [f"a:{i}" for i in range(60)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serving(retry_handler) as endpoint, \
                    HttpBackend(endpoint, retries=2, backoff=0.1) as backend:
                answers = evaluate_prompts(backend, prompts, 2, workers=3)
        finally:
            sys.setswitchinterval(interval)
        events = retry_handler.events
        assert max(n for *_, n in events) <= 3
        assert retry_handler.connections <= 3
        assert answers == {p: retry_handler.oracle.query(p, 2) for p in prompts}
        assert sorted(p for _, p, status, _ in events if status == 200) == sorted(prompts)
        # The same attempts as a serial run: one more per scripted failure.
        assert sum(status is None for _, _, status, _ in events) == len(prompts) + 5
        # Each retry waits out its backoff step, or the Retry-After instead.
        for prompt, waits in (("a:1", [0.1]), ("a:4", [0.1, 0.2]), ("a:13", [1.0])):
            times = [t for t, _ in _attempts(events, prompt)]
            # arrival, failure, arrival, ..., answer: each failure to the next arrival
            assert [later - answered >= wait for answered, later, wait
                    in zip(times[1::2], times[2::2], waits)] == [True] * len(waits)

    @pytest.mark.parametrize(
        "failures, error",
        [([(404, b"nope")], ProtocolError), ([_BUSY] * 2, BackendUnavailableError)],
    )
    def test_a_failed_query_raises_and_cancels_the_prompts_not_started(
        self, retry_handler, failures, error
    ):
        retry_handler.script = {"a:0": failures}
        retry_handler.hold = 0.2
        prompts = [f"a:{i}" for i in range(60)]
        with serving(retry_handler) as endpoint, \
                HttpBackend(endpoint, retries=1, backoff=0.05) as backend:
            with pytest.raises(error):
                evaluate_prompts(backend, prompts, 2, workers=3)
        started = {p for _, p, status, _ in retry_handler.events if status is None}
        assert "a:0" in started
        assert len(started) < len(prompts) // 2


class _Hooked(Backend):
    """Oracle answers, each after ``hook(prompt, wait)``; records the prompts
    started and the answers given, in order."""

    def __init__(self, hook, weights=None):
        super().__init__()
        self.oracle = oracle_backend(weights or {"a": 1.0})
        self.hook = hook
        self.started: list[str] = []
        self.answered: list[str] = []

    def _fetch(self, prompt, k, wait):
        self.started.append(prompt)
        self.hook(prompt, wait)
        self.answered.append(prompt)
        return self.oracle.query(prompt, k)


def _watched(backend, prompts, workers) -> tuple[dict | None, BaseException | None]:
    """``evaluate_prompts`` run in a thread; fails the test if it has not
    returned within 10 s. Its answers, or the error it raised."""
    outcome = []

    def run():
        try:
            outcome.append((evaluate_prompts(backend, prompts, 2, workers), None))
        except BaseException as exc:
            outcome.append((None, exc))

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=10.0)
    assert not caller.is_alive(), "evaluate_prompts hung"
    return outcome[0]


class TestQueryBatch:
    """One thread per slot; a pause lends the slot; the first failure ends the batch."""

    def test_a_failure_during_another_querys_pause_ends_the_batch(self):
        # a:1 fails once a:2 has started on the slot a:0 lent for its pause;
        # a:2 finishes 50 ms after the failure.
        lent, failed = threading.Event(), threading.Event()

        def hook(prompt, wait):
            if prompt == "a:0":
                wait(0.3)
            elif prompt == "a:1":
                assert lent.wait(5.0)
                failed.set()
                raise BackendError("a:1 failed")
            else:
                lent.set()
                assert failed.wait(5.0)
                time.sleep(0.05)

        backend = _Hooked(hook)
        answers, error = _watched(backend, [f"a:{i}" for i in range(100)], workers=2)
        assert answers is None
        assert isinstance(error, BackendError) and str(error) == "a:1 failed"
        # The running and the paused query finished; no new prompt started.
        assert sorted(backend.started) == ["a:0", "a:1", "a:2"]
        assert sorted(backend.answered) == ["a:0", "a:2"]

    def test_a_query_back_from_a_pause_after_the_rest_finished_completes(self):
        def hook(prompt, wait):
            if prompt == "a:0":
                wait(0.3)

        backend = _Hooked(hook)
        prompts = [f"a:{i}" for i in range(6)]
        answers, error = _watched(backend, prompts, workers=3)
        assert error is None
        assert answers == {p: backend.oracle.query(p, 2) for p in prompts}
        assert backend.answered[-1] == "a:0"

    def test_one_thread_per_prompt_when_workers_exceed_them(self):
        # Each query waits until all three run at once; the barrier's action
        # runs while all three are alive.
        alive = []
        together = threading.Barrier(3, action=lambda: alive.append(query_threads()),
                                     timeout=10.0)
        backend = _Hooked(lambda prompt, wait: together.wait())
        prompts = ["a:0", "a:1", "a:2"]
        answers = evaluate_prompts(backend, prompts, 2, workers=10**6)
        assert alive == [["tabattr-query-0", "tabattr-query-1", "tabattr-query-2"]]
        assert list(answers) == prompts

    def test_threaded_answers_equal_the_serial_ones(self):
        keys = [f"f{j}" for j in range(8)]
        weights = {key: 0.5 - j / 4 for j, key in enumerate(keys)}
        prompts = [" ".join(f"{key}:1" for j, key in enumerate(keys) if i >> j & 1)
                   for i in range(1, 201)]
        backend = _Hooked(lambda prompt, wait: None, weights)
        serial = evaluate_prompts(backend, prompts + prompts[::3], 2, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = evaluate_prompts(backend, prompts + prompts[::3], 2, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert list(threaded.items()) == list(serial.items())
        assert backend.calls == 2 * len(prompts)

    def test_an_interrupted_caller_stops_new_prompts(self, monkeypatch):
        release = threading.Event()
        backend = _Hooked(lambda prompt, wait: release.wait(10.0))
        join = threading.Thread.join

        def interrupted(self, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(threading.Thread, "join", interrupted)
        with pytest.raises(KeyboardInterrupt):
            evaluate_prompts(backend, [f"a:{i}" for i in range(50)], 2, workers=2)
        monkeypatch.undo()
        release.set()
        for thread in threading.enumerate():
            if thread.name in query_threads():
                join(thread, timeout=10.0)
                assert not thread.is_alive()
        assert sorted(backend.answered) == ["a:0", "a:1"]


def _recorded_digests(path: Path) -> list[str]:
    """The digests of a recording's lines, in file order."""
    return re.findall(r'"([0-9a-f]{64})":', path.read_text(encoding="utf-8"))


class TestReadAfterReceive:
    """A batch is received first and read after: each answer is decoded,
    checked and recorded on the calling thread, in prompt order, also when
    the batch fails."""

    PROMPTS = [f"a:{i}" for i in range(12)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_batch_records_what_it_received(self, retry_handler, workers, tmp_path):
        retry_handler.script = {"a:3": [_BUSY, _BUSY]}
        retry_handler.hold = 0.01
        store = tmp_path / "recording.json"
        with serving(retry_handler) as endpoint:
            live = HttpBackend(endpoint, retries=1, backoff=0.05)
            with RecordingBackend(live, store) as recorder:
                with pytest.raises(BackendUnavailableError):
                    evaluate_prompts(recorder, self.PROMPTS, 2, workers)
            answered = {p for _, p, status, _ in retry_handler.events if status == 200}
            assert answered and "a:3" not in answered
            assert _recorded_digests(store) == [
                prompt_digest(p, 2) for p in self.PROMPTS if p in answered
            ]
            # A second run requests only what the first did not receive.
            retry_handler.events.clear()
            with RecordingBackend(HttpBackend(endpoint, retries=0), store) as recorder:
                answers = evaluate_prompts(recorder, self.PROMPTS, 2, workers)
        assert answers == {p: retry_handler.oracle.query(p, 2) for p in self.PROMPTS}
        requested = [p for _, p, status, _ in retry_handler.events if status is None]
        assert sorted(requested) == sorted(set(self.PROMPTS) - answered)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_malformed_answer_is_refused_after_the_batch_and_not_recorded(
        self, retry_handler, workers, tmp_path
    ):
        retry_handler.script = {"a:3": [(200, b"<html>")]}
        store = tmp_path / "recording.json"
        with serving(retry_handler) as endpoint:
            with RecordingBackend(HttpBackend(endpoint, retries=0), store) as recorder:
                with pytest.raises(ProtocolError, match=re.escape(f"{endpoint} returned non-JSON")):
                    evaluate_prompts(recorder, self.PROMPTS, 2, workers)
        requested = [p for _, p, status, _ in retry_handler.events if status is None]
        assert sorted(requested) == sorted(self.PROMPTS)
        assert _recorded_digests(store) == [
            prompt_digest(p, 2) for p in self.PROMPTS if p != "a:3"
        ]

    def test_an_interrupted_batch_records_what_it_received(self, monkeypatch, tmp_path):
        release = threading.Event()
        backend = _Hooked(lambda prompt, wait: prompt in ("a:0", "a:1") or release.wait(10.0))
        join = threading.Thread.join

        def interrupted(self, timeout=None):
            # Once both slots have moved on to a:2 and a:3, a:0 and a:1 are received.
            deadline = time.monotonic() + 10.0
            while len(backend.started) < 4 and time.monotonic() < deadline:
                time.sleep(0.001)
            raise KeyboardInterrupt

        store = tmp_path / "recording.json"
        with RecordingBackend(backend, store) as recorder:
            monkeypatch.setattr(threading.Thread, "join", interrupted)
            with pytest.raises(KeyboardInterrupt):
                evaluate_prompts(recorder, [f"a:{i}" for i in range(50)], 2, workers=2)
            monkeypatch.undo()
            assert _recorded_digests(store) == [prompt_digest(p, 2) for p in ("a:0", "a:1")]
            release.set()
            for thread in threading.enumerate():
                if thread.name in query_threads():
                    join(thread, timeout=10.0)
                    assert not thread.is_alive()
        assert sorted(backend.started) == ["a:0", "a:1", "a:2", "a:3"]


@pytest.fixture
def opened(monkeypatch):
    """Every socket the client under test opens, in order."""
    sockets = []
    create = socket.create_connection

    def recording(*args, **kwargs):
        sockets.append(create(*args, **kwargs))
        return sockets[-1]

    monkeypatch.setattr(socket, "create_connection", recording)
    return sockets


class _FakeSocket:
    """A connected socket's stand-in: keeps what is sent and answers with
    canned bytes, then with no bytes as a closed connection does. With
    ``split`` each receive brings 1 to 3 bytes at most."""

    def __init__(self, response: bytes, split: bool = False):
        self.response = io.BytesIO(response)
        self.sizes = itertools.cycle((1, 3, 2)) if split else None
        self.sent: list[bytes] = []
        self.closed = False

    def setsockopt(self, *args):
        pass

    def sendall(self, data):
        self.sent.append(bytes(data))

    def recv_into(self, buffer):
        most = len(buffer) if self.sizes is None else next(self.sizes)
        return self.response.readinto(memoryview(buffer)[:most])

    def close(self):
        self.closed = True


@pytest.fixture
def fake_sockets(monkeypatch):
    """Make each connection the client opens a :class:`_FakeSocket` answering
    with the next of the given responses, split or not; returns those
    sockets."""

    def install(*responses, split=False):
        sockets = [_FakeSocket(r, split) for r in responses]
        pending = iter(sockets)
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: next(pending))
        return sockets

    return install


def _chunked(body: bytes, size: int = 7) -> bytes:
    """``body`` in chunked transfer coding, with chunk extensions and a trailer."""
    chunks = (body[i:i + size] for i in range(0, len(body), size))
    return b"".join(b"%x;n=1\r\n%s\r\n" % (len(c), c) for c in chunks) + b"0\r\nX-Sum: 1\r\n\r\n"


_ANSWER = [{"token": " yes", "logprob": -0.1}, {"token": " no", "logprob": -2.4}]


class TestResponseFraming:
    """Bodies framed by length, by chunks and by the server closing; broken framing."""

    def test_chunked_bodies_on_one_kept_alive_connection(self, http_server, opened):
        _, handler = http_server

        class Http11(handler):
            protocol_version = "HTTP/1.1"

        handler.script = [
            (200, _chunked(_ok_body(_ANSWER)), {"Transfer-Encoding": "chunked",
                                                "Content-Length": None}),
        ] * 2
        with serving(Http11) as endpoint, HttpBackend(endpoint, retries=0) as backend:
            answers = [backend.query(f"p{i}", 2) for i in range(2)]
        assert answers[1].tokens == (" yes", " no")
        assert answers[0] == answers[1]
        assert len(opened) == 1

    def test_close_delimited_http_1_0_body(self, http_server, opened):
        endpoint, handler = http_server
        handler.script = [(200, _ok_body(_ANSWER), {"Content-Length": None})] * 2
        with HttpBackend(endpoint, retries=0) as backend:
            assert backend.query("p", 2).tokens == (" yes", " no")
            assert opened[0].fileno() == -1
            backend.query("q", 2)
        assert len(opened) == 2

    def test_connection_close_opens_a_new_connection_without_a_retry(
        self, http_server, opened
    ):
        _, handler = http_server

        class Http11(handler):
            protocol_version = "HTTP/1.1"

        handler.script = [(200, _ok_body(_ANSWER), {"Connection": "close"})] * 3
        # With no retry budget a spent attempt fails the query; a backoff sleep
        # would outlast the time limit.
        with serving(Http11) as endpoint, \
                HttpBackend(endpoint, retries=0, backoff=60.0) as backend:
            started = time.monotonic()
            for i in range(3):
                backend.query(f"p{i}", 2)
                # Closed on reading the header, not kept idle until it fails.
                assert [s.fileno() for s in opened] == [-1] * (i + 1)
            assert time.monotonic() - started < 30.0
        assert len(handler.requests_seen) == 3

    @pytest.mark.parametrize(
        "headers",
        [{"Content-Length": "4096"}, {"X-Long": "a" * 70_000},
         {f"X-Field-{i}": "1" for i in range(101)}],
        ids=["short_body", "line_over_64_KiB", "over_100_headers"],
    )
    def test_broken_framing_is_retried_then_unavailable(self, headers, http_server, opened):
        endpoint, handler = http_server
        handler.script = [(200, _ok_body(_ANSWER), headers)] * 2
        started = time.monotonic()
        with HttpBackend(endpoint, retries=1, backoff=0.01, timeout=20.0) as backend:
            with pytest.raises(BackendUnavailableError):
                backend.query("p", 2)
        assert time.monotonic() - started < 15.0
        assert len(handler.requests_seen) == 2
        assert len(opened) == 2

    @pytest.mark.parametrize(
        "response",
        [b"HTTP/1.1 OK\r\n\r\n", b"ICY 200 OK\r\n\r\n", b"HTTP/1.1 2000 OK\r\n\r\n",
         b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
         b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
         b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\nabc",
         b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\nabc"],
    )
    def test_malformed_response_is_retried(self, response, fake_sockets):
        sockets = fake_sockets(response, response)
        with HttpBackend("http://tabattr.invalid/x", retries=1, backoff=0.0) as backend:
            with pytest.raises(BackendUnavailableError):
                backend.query("p", 2)
        assert all(s.sent and s.closed for s in sockets)

    def test_a_head_cut_by_the_close_is_retried(self, fake_sockets):
        body = _ok_body(_ANSWER)
        cut = b"HTTP/1.1 200 OK\r\nX-Any: 1\r\nContent-Le"
        good = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        sockets = fake_sockets(cut, good)
        with HttpBackend("http://tabattr.invalid/x", retries=1, backoff=0.0) as backend:
            assert backend.query("p", 2).tokens == (" yes", " no")
        assert all(s.sent for s in sockets) and sockets[0].closed

    def test_a_head_that_never_ends_is_refused_at_its_101st_header(self, fake_sockets):
        response = b"HTTP/1.1 200 OK\r\n" + b"X-Any: 1\r\n" * 200
        sockets = fake_sockets(response, response, split=True)
        with HttpBackend("http://tabattr.invalid/x", retries=1, backoff=0.0) as backend:
            with pytest.raises(BackendUnavailableError, match="more than 100 headers"):
                backend.query("p", 2)
        # Refused before the server closes: the rest of the head is never received.
        assert all(s.closed and s.response.tell() < len(response) for s in sockets)

    def test_interim_response_is_skipped(self, fake_sockets):
        body = _ok_body(_ANSWER)
        response = b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
        fake_sockets(response % (len(body), body))
        with HttpBackend("http://tabattr.invalid/x", retries=0) as backend:
            assert backend.query("p", 2).tokens[0] == " yes"

    @pytest.mark.parametrize(
        "head, body, kept",
        [(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", None, True),
         (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", _chunked, True),
         (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n", None, False),
         (b"HTTP/1.1 100 Continue\r\nX-Wait: 1\r\n\r\n"
          b"HTTP/1.1 200 OK\nContent-Length: %d\n\n", None, True)],
        ids=["content_length", "chunked", "close_delimited", "interim_then_bare_lf"],
    )
    def test_responses_split_across_receives(self, head, body, kept, fake_sockets):
        content = _ok_body(_ANSWER)
        framed = body(content) if body else content
        response = (head % len(content) if b"%d" in head else head) + framed
        (sock,) = fake_sockets(response, split=True)
        with HttpBackend("http://tabattr.invalid/x", retries=0) as backend:
            assert backend.query("p", 2).tokens == (" yes", " no")
            assert sock.closed is not kept

    @pytest.mark.parametrize("length, refused", [(65536, False), (65537, True)])
    def test_line_limit_holds_across_split_receives(self, length, refused, fake_sockets):
        # The header line is ``length`` bytes with its CRLF.
        content = _ok_body(_ANSWER)
        line = b"X-Long: " + b"a" * (length - 10) + b"\r\n"
        response = b"HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\n\r\n%s" % (
            line, len(content), content)
        sockets = fake_sockets(response, response, split=True)
        with HttpBackend("http://tabattr.invalid/x", retries=1, backoff=0.0) as backend:
            if refused:
                with pytest.raises(BackendUnavailableError, match="line longer than 64 KiB"):
                    backend.query("p", 2)
                assert all(s.closed for s in sockets)
            else:
                assert backend.query("p", 2).tokens == (" yes", " no")

    def test_request_bodies_are_the_json_dumps_bytes(self, fake_sockets):
        prompts = ['say "hi"', "back\\slash \\n", "ctl \x00\x01\t\n\r\x1f\x7f end",
                   "caf\u00e9 \u00fc \u2028 \ufeff", "astral \U0001f600 \U0001d11e", "\ud800 lone"]
        content = _ok_body(_ANSWER)
        response = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(content), content)
        (sock,) = fake_sockets(response * len(prompts))
        head = (b"POST /x HTTP/1.1\r\nHost: tabattr.invalid\r\nAccept-Encoding: identity\r\n"
                b"Content-Type: application/json\r\nContent-Length: ")
        expected = []
        with HttpBackend("http://tabattr.invalid/x", retries=0) as backend:
            for prompt, k in zip(prompts, itertools.cycle((2, 5, 17))):
                backend.query(prompt, k)
                body = json.dumps({"prompt": prompt, "top_k": k}).encode()
                expected.append(head + b"%d\r\n\r\n" % len(body) + body)
        assert sock.sent == expected

    def test_each_request_is_one_write(self, fake_sockets):
        body = _ok_body(_ANSWER)
        response = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        (sock,) = fake_sockets(response * 3)
        with HttpBackend("http://tabattr.invalid:8080/v1/x?a=1", retries=0) as backend:
            for i in range(3):
                backend.query(f"prompt {i}", 2)
        assert len(sock.sent) == 3
        for i, request in enumerate(sock.sent):
            head, _, sent_body = request.partition(b"\r\n\r\n")
            lines = head.split(b"\r\n")
            assert lines[0] == b"POST /v1/x?a=1 HTTP/1.1"
            assert b"Host: tabattr.invalid:8080" in lines
            assert b"Accept-Encoding: identity" in lines
            assert b"Content-Length: %d" % len(sent_body) in lines
            assert json.loads(sent_body) == {"prompt": f"prompt {i}", "top_k": 2}


def _random_response(rng: random.Random) -> tuple[bytes, bool, int]:
    """A response head, now and then an interim one before it, and a body,
    cut short at a random byte in some; any of them may be malformed.

    Also whether the cut falls inside a head that a reader reads as one, and
    how many of the three head rules (a good status line, no line over
    64 KiB, at most 100 header lines) the last head it reads breaks."""

    def head() -> tuple[bytes, int]:
        status = rng.choice([
            b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 100 Continue", b"HTTP/1.1 204 No",
            b"HTTP/1.1 304 Same", b"HTTP/1.1 429 Slow", b"ICY 200 OK", b"HTTP/1.1 2000",
            b"HTTP/1.1 200", b"", b"\r", b"HTTP/1.1 200\tOK", b"H" * 65536])
        lines = [status]
        count = rng.choice([0, 1, 2, 3, 5, 100, 101])
        for _ in range(count):
            name, values = rng.choice(_HEADER_VALUES[: -1 if count > 5 else None])
            lines.append(name + b":" + rng.choice(values))
        lines = [line + rng.choice([b"\r\n", b"\n"]) for line in lines + [b""]]
        faults = (status in _BAD_STATUS) + any(len(line) > 65536 for line in lines) + (count > 100)
        return b"".join(lines), faults

    parts = [head()] if rng.random() < 0.8 else [head(), head()]
    content = rng.choice([b"", b"hello", b"0123456789abcdefghij"])
    # After an interim head, the body is read as a head too, with a bad status line.
    parts.append((_chunked(content, 3) if rng.random() < 0.3 else content, 1))
    # Where each part read as a head starts and ends, one byte past the data
    # if no empty line ends it, and its faults: the first part, and each one
    # after an interim head that is not refused.
    data, heads, interim = b"", [], True
    for part, part_faults in parts:
        if interim and part:
            end = len(data) + len(part) + (not part.endswith((b"\n\n", b"\n\r\n")))
            heads.append((len(data), end, part_faults))
            interim = part.startswith(b"HTTP/1.1 100 ") and not part_faults
        data += part
    cut = rng.randrange(len(data) + 1) if rng.random() < 0.3 else len(data)
    cut_head, faults = False, 0
    for start, end, head_faults in heads:
        if start < cut:  # read, from what is left
            cut_head, faults = cut < end, head_faults
    return data[:cut], cut_head, faults


_BAD_STATUS = (b"ICY 200 OK", b"HTTP/1.1 2000", b"", b"\r", b"H" * 65536)
_HEADER_VALUES = [
    (b"Content-Length", [b"5", b" 5 ", b"0", b"20", b"ten", b"-1", b"", b"99"]),
    (b"CONTENT-length", [b"5", b"12"]),
    (b" Content-Length", [b"5"]),
    (b"Transfer-Encoding", [b"chunked", b" Chunked", b"gzip, chunked", b"chunked, gzip", b"x"]),
    (b"Connection", [b"close", b"keep-alive", b"Keep-Alive, x", b" CLOSE ", b"x"]),
    (b"Retry-After", [b"1", b" 2 ", b"x"]),
    (b"X-Any", [b"v", b""]),
    # With ``X-Long:`` and the line end, 65535 to 65538 bytes: either side of the limit.
    (b"X-Long", [b"a" * 65527, b"a" * 65528, b"a" * 65529]),
]


class TestReaderMatchesLineReference:
    """The buffered reader returns and refuses what a line-by-line one does,
    with the same message, when every head it reads is complete and breaks at
    most one rule. A head cut short by the server's close, and one that
    breaks two rules, it refuses too, but may say why otherwise."""

    @staticmethod
    def _outcome(read, source):
        try:
            return read(source)
        except (_MalformedResponse, ConnectionResetError) as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("seed", range(32))
    def test_random_responses_in_any_split(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            data, cut_head, faults = _random_response(rng)
            expected = self._outcome(read_response_by_lines, io.BufferedReader(io.BytesIO(data)))
            # Lines near 64 KiB split in 1-3 bytes are left to the line limit test.
            for split in (False, True) if len(data) < 8192 else (False,):
                outcome = self._outcome(_read_response, _Connection(_FakeSocket(data, split)))
                if cut_head or faults > 1:
                    assert outcome[0] is _MalformedResponse, data[:80]
                else:
                    assert outcome == expected, data[:80]


@pytest.fixture(scope="module")
def tls_server(tmp_path_factory):
    """A throwaway self-signed certificate for 127.0.0.1 and a server-side
    context that presents it."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("needs the openssl command to make a certificate")
    folder = tmp_path_factory.mktemp("tls")
    cert, key = folder / "cert.pem", folder / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=60,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    return cert, context


class TestHttps:
    def test_round_trip_to_a_trusted_local_server(
        self, keep_alive_handler, tls_server, monkeypatch
    ):
        cert, context = tls_server
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        with serving(keep_alive_handler, tls=context) as endpoint, \
                HttpBackend(endpoint, retries=0) as backend:
            answers = [backend.query(f"a:{i}", 2) for i in range(3)]
        assert answers[2] == keep_alive_handler.oracle.query("a:2", 2)
        assert keep_alive_handler.connections == 1

    def test_untrusted_certificate_is_unavailable(
        self, keep_alive_handler, tls_server, monkeypatch
    ):
        _, context = tls_server
        monkeypatch.setenv("SSL_CERT_FILE", os.devnull)
        monkeypatch.setenv("SSL_CERT_DIR", os.devnull)
        with serving(keep_alive_handler, tls=context) as endpoint, \
                HttpBackend(endpoint, retries=0) as backend:
            with pytest.raises(BackendUnavailableError, match="CERTIFICATE_VERIFY_FAILED"):
                backend.query("a:1", 2)
        assert keep_alive_handler.answered == 0


def test_import_loads_no_http_library_and_ssl_only_for_https():
    script = (
        "import sys, tabattr.cli\n"
        "loaded = lambda: sorted({'http.client', 'email', 'ssl'} & set(sys.modules))\n"
        "print(loaded())\n"
        "tabattr.HttpBackend('http://127.0.0.1:9/x')\n"
        "print(loaded())\n"
        "tabattr.HttpBackend('https://127.0.0.1:9/x')\n"
        "print(loaded())\n"
    )
    src = str(Path(tabattr.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.split("\n") == ["[]", "[]", "['ssl']", ""]


class TestBackendDescriptor:
    """``kind:target`` specs, split by ``parse_backend`` and opened by ``open_backend``."""

    def test_parse_kinds(self, tmp_path):
        oracle = tmp_path / "o.json"
        oracle.write_text(json.dumps({"classes": ["yes", "no"], "weights": {"a": 1.0}}))
        assert parse_backend(f"synthetic:{oracle}") == ("synthetic", str(oracle))
        assert isinstance(open_backend(*parse_backend(f"synthetic:{oracle}")), SyntheticBackend)
        assert parse_backend("http://host:1234/x") == ("http", "http://host:1234/x")
        assert parse_backend("https://host/x") == ("http", "https://host/x")
        assert parse_backend("http:https://host/x") == ("http", "https://host/x")
        assert parse_backend("replay:some.json") == ("replay", "some.json")
        assert parse_backend("replay:c:/runs/a.json") == ("replay", "c:/runs/a.json")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend kind 'grpc'"):
            parse_backend("grpc:somewhere")

    def test_missing_separator_rejected(self):
        with pytest.raises(ConfigError, match="'justaword' must look like kind:target"):
            parse_backend("justaword")

    def test_empty_target_rejected(self):
        with pytest.raises(ConfigError, match="backend target must be non-empty"):
            parse_backend("synthetic:")

    def test_record_only_for_http(self, tmp_path):
        for kind in ("replay", "synthetic"):
            with pytest.raises(ConfigError, match="recording applies to the http backend only"):
                open_backend(kind, "x.json", record=str(tmp_path / "y.json"))
        assert not (tmp_path / "y.json").exists()


class TestEndpointOverride:
    """``TABATTR_ENDPOINT`` replaces the target of an http backend and of no other kind."""

    @staticmethod
    def _argv(tmp_path, backend, out):
        dataset = tmp_path / "data.csv"
        dataset.write_text("a,b\n1,2\n3,4\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"a": "numeric", "b": "numeric"}))
        vmap = tmp_path / "vmap.json"
        vmap.write_text(json.dumps({"yes": ["yes"], "no": ["no"]}))
        return ["attribute", "--dataset", str(dataset), "--schema", str(schema), "--verbalizer",
                str(vmap), "--backend", backend, "--retries", "0", "--indices", "0,1",
                "--out", str(tmp_path / out)]

    def test_replaces_the_target_of_an_http_backend(
        self, keep_alive_handler, tmp_path, monkeypatch, capsys
    ):
        # Nothing listens on the discard port: the spec's own target fails.
        dead = "http://127.0.0.1:9/logprobs"
        monkeypatch.delenv(cli.ENDPOINT_ENV, raising=False)
        assert cli.main(self._argv(tmp_path, dead, "unset")) == 1
        assert "unreachable" in capsys.readouterr().err
        with serving(keep_alive_handler) as endpoint:
            monkeypatch.setenv(cli.ENDPOINT_ENV, endpoint)
            assert cli.main(self._argv(tmp_path, dead, "set")) == 0
        # Two rows of M=2: the full prompt and two single-field coalitions each.
        assert keep_alive_handler.answered == 6
        manifest = json.loads((tmp_path / "set" / "run_manifest.json").read_text())
        assert manifest["config"]["backend"] == dead

    def test_leaves_a_synthetic_backend_alone(self, tmp_path, monkeypatch, capsys):
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps({"classes": ["yes", "no"], "weights": {"a": 1.0}}))
        monkeypatch.setenv(cli.ENDPOINT_ENV, "http://127.0.0.1:9/logprobs")
        assert cli.main(self._argv(tmp_path, f"synthetic:{oracle}", "out")) == 0
        assert (tmp_path / "out" / "results_jsd.json").exists()
