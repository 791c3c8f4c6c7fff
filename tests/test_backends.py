from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tabattr import (
    BackendDescriptor,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    SyntheticBackend,
    SyntheticOracleSpec,
    TokenLogprob,
    TopKDistribution,
    build_backend,
    prompt_digest,
)
from tabattr.errors import (
    BackendError,
    BackendUnavailableError,
    CacheMissError,
    ConfigError,
    ProtocolError,
)
from conftest import logistic, oracle_backend


class TestWireTypes:
    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TokenLogprob("x", 0.1)

    def test_entries_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            TopKDistribution(
                entries=(TokenLogprob("a", -2.0), TokenLogprob("b", -1.0)), k=5
            )

    def test_entries_exceeding_k_rejected(self):
        entries = tuple(TokenLogprob(str(i), -1.0 - i) for i in range(3))
        with pytest.raises(ValueError, match="exceed"):
            TopKDistribution(entries=entries, k=2)

    def test_mass_above_one_rejected(self):
        entries = (TokenLogprob("a", math.log(0.7)), TokenLogprob("b", math.log(0.7)))
        with pytest.raises(ValueError, match="exceeding 1"):
            TopKDistribution(entries=entries, k=5)

    def test_payload_round_trip(self):
        dist = TopKDistribution.from_probabilities({" yes": 0.6, " no": 0.2}, k=4)
        again = TopKDistribution.from_payload(dist.to_payload(), k=4)
        assert again == dist

    def test_malformed_payload_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            TopKDistribution.from_payload({"tokens": [{"token": "x"}]}, k=3)
        with pytest.raises(ProtocolError):
            TopKDistribution.from_payload({"tokens": [{"token": "x", "logprob": 0.5}]}, k=3)

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
        p_yes = math.exp(topk.entries[0].logprob)
        assert topk.entries[0].token == " yes"
        assert p_yes == pytest.approx(logistic(2.0), abs=1e-12)
        assert p_yes == pytest.approx(0.8808, abs=1e-4)

    def test_absent_feature_contributes_zero(self):
        backend = oracle_backend({"a": 2.0})
        topk = backend.query("b:2 c:3", 10)
        probs = {e.token: math.exp(e.logprob) for e in topk.entries}
        assert probs[" yes"] == pytest.approx(0.5, abs=1e-12)

    def test_markers_restrict_parsing_to_input_block(self):
        backend = oracle_backend({"a": 2.0})
        prompt = "mentions a:1 here\n\n### Input:\nb:2\n\n### Response:\n"
        probs = {e.token: math.exp(e.logprob) for e in backend.query(prompt, 10).entries}
        assert probs[" yes"] == pytest.approx(0.5, abs=1e-12)

    def test_deterministic(self):
        backend = oracle_backend({"a": 2.0}, bias=-0.3)
        assert backend.query("a:1", 10) == backend.query("a:1", 10)

    def test_k_one_truncates(self):
        backend = oracle_backend({"a": 2.0})
        topk = backend.query("a:1", 1)
        assert len(topk.entries) == 1

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


class TestReplayAndRecording:
    def test_record_then_replay_bit_exact(self, tmp_path):
        store = tmp_path / "cache.json"
        live = oracle_backend({"a": 1.0})
        recorder = RecordingBackend(live, store)
        first = recorder.query("a:1 b:2", 7)
        second = recorder.query("a:1 b:2", 7)
        assert live.calls == 1  # second hit served from the store
        replay = ReplayBackend(store)
        assert replay.query("a:1 b:2", 7) == first == second
        assert replay.query("a:1 b:2", 7) == replay.query("a:1 b:2", 7)

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

    def test_recording_requires_readable_json(self, tmp_path):
        store = tmp_path / "recording.json"
        store.write_text("{broken")
        with pytest.raises(BackendError, match="recording.json"):
            RecordingBackend(oracle_backend({"a": 1.0}), store)
        store.write_text("[]")
        with pytest.raises(BackendError, match="recording.json"):
            RecordingBackend(oracle_backend({"a": 1.0}), store)


class _ScriptedHandler(BaseHTTPRequestHandler):
    script = []  # (status, body_bytes[, headers]) consumed per request
    requests_seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).requests_seen.append(json.loads(self.rfile.read(length)))
        status, body, *headers = self.script.pop(0) if self.script else (200, b"{}")
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ScriptedHandler.script = []
    _ScriptedHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}/logprobs", _ScriptedHandler
    server.shutdown()
    server.server_close()


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
        assert [e.token for e in topk.entries] == [" yes", " no"]

    def test_retries_transient_500_then_succeeds(self, http_server):
        endpoint, handler = http_server
        handler.script = [
            (500, b"boom"),
            (200, _ok_body([{"token": "x", "logprob": -1.0}])),
        ]
        backend = HttpBackend(endpoint, retries=2, backoff=0.01)
        topk = backend.query("p", 1)
        assert topk.entries[0].token == "x"
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
        assert backend.query("p", 1).entries[0].token == "x"
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

    def test_recording_wrapper_via_descriptor(self, http_server, tmp_path):
        endpoint, handler = http_server
        handler.script = [
            (200, _ok_body([{"token": "x", "logprob": -1.0}])),
        ]
        record = tmp_path / "rec.json"
        backend = build_backend(
            BackendDescriptor.parse(endpoint, record_path=str(record))
        )
        live = backend.query("p", 1)
        assert ReplayBackend(record).query("p", 1) == live
        # second call replays without touching the network
        assert backend.query("p", 1) == live
        assert len(handler.requests_seen) == 1


class TestBackendDescriptor:
    def test_parse_kinds(self, tmp_path):
        oracle = tmp_path / "o.json"
        oracle.write_text(json.dumps({"classes": ["yes", "no"], "weights": {"a": 1.0}}))
        descriptor = BackendDescriptor.parse(f"synthetic:{oracle}")
        assert descriptor.kind == "synthetic"
        assert isinstance(build_backend(descriptor), SyntheticBackend)
        assert BackendDescriptor.parse("http://host:1234/x").kind == "http"
        assert BackendDescriptor.parse("replay:some.json").kind == "replay"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            BackendDescriptor.parse("grpc:somewhere")

    def test_missing_separator_rejected(self):
        with pytest.raises(ConfigError):
            BackendDescriptor.parse("justaword")

    def test_record_only_for_http(self):
        with pytest.raises(ConfigError):
            BackendDescriptor(kind="replay", target="x.json", record_path="y.json")
