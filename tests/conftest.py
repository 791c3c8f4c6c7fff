from __future__ import annotations

import itertools
import json
import math
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from tabattr import (
    Backend,
    FeatureField,
    PromptTemplate,
    SyntheticBackend,
    SyntheticOracleSpec,
    TabularInstance,
    TopKDistribution,
    VerbalizerMap,
    evaluate,
    score,
)
from tabattr.errors import BackendError
from reference import build_prompt, class_distribution, fields_at, similarity

ADULT_KEYS = (
    "age",
    "workclass",
    "fnlwgt",
    "education",
    "education_num",
    "marital_status",
    "occupation",
    "relationship",
    "race",
    "sex",
    "capital_gain",
    "capital_loss",
    "hours_per_week",
    "native_country",
)


def make_instance(index: int, keys, values=None, label=None) -> TabularInstance:
    values = values or [str(i + 1) for i in range(len(keys))]
    fields = tuple(
        FeatureField(key=k, value=str(v), raw_value=str(v)) for k, v in zip(keys, values)
    )
    return TabularInstance(index=index, fields=fields, label=label)


def adult_like_instance(index: int, rng: np.random.Generator) -> TabularInstance:
    values = [str(int(rng.integers(0, 1000))) for _ in ADULT_KEYS]
    # exercise values with underscores and an interior colon
    values[1] = "self_emp_not_inc"
    values[5] = "never_married"
    values[13] = "united_states:mainland"
    return make_instance(index, ADULT_KEYS, values)


def logistic(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def query_threads() -> list[str]:
    """The names of the live ``tabattr-query-<n>`` threads of
    :func:`~tabattr.evaluate_prompts`, sorted."""
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("tabattr-query-"))


@pytest.fixture(autouse=True)
def no_query_thread_left():
    """Fails a test that leaves a query thread alive."""
    yield
    left = query_threads()
    if left:
        pytest.fail(f"query threads left alive: {left}")


@pytest.fixture
def template() -> PromptTemplate:
    return PromptTemplate()


@pytest.fixture
def yes_no_vmap() -> VerbalizerMap:
    return VerbalizerMap.from_mapping({"yes": ["yes"], "no": ["no"]})


@pytest.fixture
def built_rows(monkeypatch) -> list[int]:
    """The index of every ``TabularInstance`` built while the test runs, in order."""
    built: list[int] = []
    check = TabularInstance.__post_init__

    def counting(self):
        built.append(self.index)
        check(self)

    monkeypatch.setattr(TabularInstance, "__post_init__", counting)
    return built


def topk_from(probs: dict[str, float], k: int) -> TopKDistribution:
    """Top-k candidates from token -> probability, most probable first."""
    ranked = sorted(probs.items(), key=lambda item: -item[1])
    return TopKDistribution(
        tuple(t for t, _ in ranked),
        tuple(math.log(p) if p > 0 else float("-inf") for _, p in ranked),
        k,
    )


def attribute(instance, backend, template, vmap, config, metric="jsd", workers=1):
    """One instance evaluated, then scored under ``metric``."""
    return score(evaluate(instance, backend, template, vmap, config, workers), metric)


def oracle_backend(weights: dict[str, float], bias: float = 0.0) -> SyntheticBackend:
    spec = SyntheticOracleSpec(classes=("yes", "no"), weights=weights, bias=bias)
    return SyntheticBackend(spec)


class FlakyBackend(Backend):
    """Delegates to an inner backend but fails for prompts containing a marker string."""

    def __init__(self, inner: Backend, poison: str):
        super().__init__()
        self.inner = inner
        self.poison = poison

    def _fetch(self, prompt, k, wait):
        if self.poison in prompt:
            raise BackendError(f"injected failure for {self.poison!r}")
        return self.inner.query(prompt, k, wait)


def brute_force_raw_phi(instance, backend, template, vmap, metric="jsd"):
    """Independent enumeration of every non-empty coalition, plain loops."""
    m = instance.num_features
    full_prompt = build_prompt(template, instance.fields)
    full_dist, _ = class_distribution(backend.query(full_prompt, 10), vmap)
    sims = {}
    for r in range(1, m + 1):
        for subset in itertools.combinations(range(m), r):
            prompt = build_prompt(template, fields_at(instance, subset))
            dist, _ = class_distribution(backend.query(prompt, 10), vmap)
            sims[frozenset(subset)] = similarity(metric, full_dist, dist)
    raw = []
    for j in range(m):
        with_j = [v for s, v in sims.items() if j in s]
        without_j = [v for s, v in sims.items() if j not in s]
        raw.append(sum(with_j) / len(with_j) - sum(without_j) / len(without_j))
    return np.array(raw)


class KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 oracle answers; counts the TCP connections it accepts."""

    protocol_version = "HTTP/1.1"
    oracle = oracle_backend({"a": 1.0})
    connections = 0
    answered = 0
    close_after_answer = False
    counts_lock = threading.Lock()

    def setup(self):
        super().setup()
        # Headers and body go out in two writes; without this the body waits
        # for the client's delayed acknowledgement.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.counts_lock:
            type(self).connections += 1

    def do_POST(self):
        self.answer(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        # Close without a "Connection: close" header, as an idle timeout would.
        self.close_connection = self.close_after_answer

    def answer(self, request: dict) -> None:
        """Send the oracle's answer to one decoded request body."""
        topk = self.oracle.query(request["prompt"], request["top_k"])
        self.reply(200, json.dumps(topk.to_payload()).encode())
        with self.counts_lock:
            type(self).answered += 1

    def reply(self, status: int, body: bytes, headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        for name, value in {"Content-Type": "application/json",
                            "Content-Length": str(len(body)), **(headers or {})}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _Server(ThreadingHTTPServer):
    # socketserver listens with a backlog of 5; a test with more connections
    # opening at once would wait out dropped SYNs.
    request_queue_size = 64


@contextmanager
def serving(handler, tls=None):
    """Serve ``handler`` on a localhost port; ``tls`` is a server-side
    ``ssl.SSLContext`` that makes it an https endpoint."""
    server = _Server(("127.0.0.1", 0), handler)
    scheme = "http"
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
        scheme = "https"
    # shutdown() waits for serve_forever to notice it, up to one poll interval.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"{scheme}://127.0.0.1:{server.server_address[1]}/logprobs"
    finally:
        server.shutdown()
        server.server_close()
