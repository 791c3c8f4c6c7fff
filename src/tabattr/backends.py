"""Uniform "prompt -> top-K next-token logprobs" contract.

Three interchangeable implementations sit behind one query interface:

* :class:`HttpBackend` posts ``{"prompt": ..., "top_k": ...}`` to a remote
  service and expects ``{"tokens": [{"token": ..., "logprob": ...}, ...]}``
  with natural-log probabilities;
* :class:`ReplayBackend` serves previously recorded responses from a JSON
  file keyed by prompt digest, read-only;
* :class:`SyntheticBackend` is an analytic logistic oracle used for tests
  and demos, with no network at all.

Wrapping any live backend in :class:`RecordingBackend` persists every
response so the run can later be replayed bit-exactly.
"""

from __future__ import annotations

import abc
import hashlib
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import requests

from ._json_io import atomic_write_json
from .errors import (
    BackendError,
    BackendUnavailableError,
    CacheMissError,
    ConfigError,
    ProtocolError,
)

_EXP_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TokenLogprob:
    """One next-token candidate, surface form preserved exactly."""

    token: str
    logprob: float

    def __post_init__(self):
        if not math.isfinite(self.logprob) and self.logprob != float("-inf"):
            raise ValueError(f"logprob for {self.token!r} must be finite or -inf")
        if self.logprob > 0:
            raise ValueError(f"logprob for {self.token!r} is positive: {self.logprob}")


@dataclass(frozen=True)
class TopKDistribution:
    """Top-k next-token candidates, sorted non-increasing by logprob."""

    entries: tuple[TokenLogprob, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.entries) > self.k:
            raise ValueError(f"{len(self.entries)} entries exceed k={self.k}")
        logprobs = [e.logprob for e in self.entries]
        if any(a < b for a, b in zip(logprobs, logprobs[1:])):
            raise ValueError("entries must be sorted non-increasing by logprob")
        total = sum(math.exp(lp) for lp in logprobs)
        if total > 1.0 + _EXP_SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, exceeding 1")

    def to_payload(self) -> dict:
        return {"tokens": [{"token": e.token, "logprob": e.logprob} for e in self.entries]}

    @classmethod
    def from_payload(cls, payload: Mapping, k: int) -> "TopKDistribution":
        """Build from the wire shape; raises :class:`ProtocolError` on malformed data."""
        try:
            tokens = payload["tokens"]
            entries = tuple(
                TokenLogprob(token=str(item["token"]), logprob=float(item["logprob"]))
                for item in tokens
            )
            return cls(entries=entries, k=k)
        except ProtocolError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed top-k payload: {exc}") from exc

    @classmethod
    def from_probabilities(cls, probs: Mapping[str, float], k: int) -> "TopKDistribution":
        """Convenience: build from token -> probability, sorted descending."""
        entries = tuple(
            TokenLogprob(token=t, logprob=math.log(p) if p > 0 else float("-inf"))
            for t, p in sorted(probs.items(), key=lambda item: -item[1])
        )
        return cls(entries=entries, k=k)


def prompt_digest(prompt: str, k: int) -> str:
    """Cryptographic digest of the exact prompt bytes plus k; the replay cache key."""
    h = hashlib.sha256()
    h.update(str(k).encode("ascii"))
    h.update(b"\x00")
    h.update(prompt.encode("utf-8"))
    return h.hexdigest()


class Backend(abc.ABC):
    """Common query contract. Subclasses implement :meth:`_fetch`.

    ``calls`` counts completed queries; replay and synthetic backends are
    otherwise immutable and safe to share across threads.
    """

    def __init__(self):
        self._calls = 0
        self._calls_lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self._calls

    def query(self, prompt: str, k: int) -> TopKDistribution:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        if k < 1:
            raise ValueError("k must be >= 1")
        result = self._fetch(prompt, k)
        with self._calls_lock:
            self._calls += 1
        return result

    @abc.abstractmethod
    def _fetch(self, prompt: str, k: int) -> TopKDistribution:
        ...


@dataclass(frozen=True)
class SyntheticOracleSpec:
    """Analytic test double: a logistic model over PRESENT feature keys.

    The positive-class probability is ``logistic(bias + sum of weights whose
    key appears in the prompt)``; absent features contribute exactly 0.
    """

    classes: tuple[str, str]
    weights: Mapping[str, float]
    bias: float = 0.0
    link: str = "logistic"

    def __post_init__(self):
        if len(self.classes) != 2 or len(set(self.classes)) != 2:
            raise ConfigError("a logistic oracle needs exactly two distinct classes")
        if self.link != "logistic":
            raise ConfigError(f"unsupported link {self.link!r}")
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "weights", dict(self.weights))

    def positive_probability(self, present_keys: Iterable[str]) -> float:
        # Summed in weights order: a set's order follows the string-hash seed.
        present = set(present_keys)
        score = self.bias + sum(w for key, w in self.weights.items() if key in present)
        return 1.0 / (1.0 + math.exp(-score))

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticOracleSpec":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            return cls(
                classes=tuple(data["classes"]),
                weights={str(k): float(v) for k, v in data["weights"].items()},
                bias=float(data.get("bias", 0.0)),
                link=data.get("link", "logistic"),
            )
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed oracle spec {path}: {exc}") from exc

    def to_payload(self) -> dict:
        return {
            "classes": list(self.classes),
            "weights": dict(self.weights),
            "bias": self.bias,
            "link": self.link,
        }


class SyntheticBackend(Backend):
    """Deterministic oracle backend emitting one ``" class"`` token per class.

    Feature presence is read from the prompt: the text between the input and
    response markers (the whole prompt if the markers are absent) is split on
    whitespace and each ``key:value`` token contributes its key.
    """

    def __init__(
        self,
        spec: SyntheticOracleSpec,
        input_marker: str = "### Input:",
        response_marker: str = "### Response:",
    ):
        super().__init__()
        self.spec = spec
        self.input_marker = input_marker
        self.response_marker = response_marker

    def present_keys(self, prompt: str) -> set[str]:
        block = prompt
        start = prompt.find(self.input_marker)
        if start >= 0:
            start += len(self.input_marker)
            end = prompt.find(self.response_marker, start)
            block = prompt[start:end] if end >= 0 else prompt[start:]
        return {tok.partition(":")[0] for tok in block.split() if ":" in tok}

    def _fetch(self, prompt: str, k: int) -> TopKDistribution:
        p_pos = self.spec.positive_probability(self.present_keys(prompt))
        pos, neg = self.spec.classes
        ranked = sorted(
            ((f" {pos}", p_pos), (f" {neg}", 1.0 - p_pos)), key=lambda item: -item[1]
        )
        entries = tuple(
            TokenLogprob(token=t, logprob=math.log(p) if p > 0 else float("-inf"))
            for t, p in ranked[:k]
        )
        return TopKDistribution(entries=entries, k=k)


def _read_store(path: Path) -> dict[str, dict]:
    """Load a digest -> response JSON file; every failure names the file."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BackendError(f"cannot read replay cache {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BackendError(f"replay cache {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise BackendError(f"replay cache {path} must be a JSON object")
    return raw


class ReplayBackend(Backend):
    """Read-only backend serving a recorded digest -> response JSON file."""

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        self._store = _read_store(self.path)

    def _fetch(self, prompt: str, k: int) -> TopKDistribution:
        digest = prompt_digest(prompt, k)
        payload = self._store.get(digest)
        if payload is None:
            raise CacheMissError(digest)
        return TopKDistribution.from_payload(payload, k=k)


class RecordingBackend(Backend):
    """Wraps a live backend and persists every response for later replay.

    One writer; appends are serialized through a lock and each write is
    atomic (temp file + rename), so a crash never leaves a torn cache.
    """

    def __init__(self, inner: Backend, path: str | Path):
        super().__init__()
        self.inner = inner
        self.path = Path(path)
        self._write_lock = threading.Lock()
        self._store = _read_store(self.path) if self.path.exists() else {}

    def _fetch(self, prompt: str, k: int) -> TopKDistribution:
        digest = prompt_digest(prompt, k)
        with self._write_lock:
            cached = self._store.get(digest)
        if cached is not None:
            return TopKDistribution.from_payload(cached, k=k)
        result = self.inner.query(prompt, k)
        with self._write_lock:
            self._store[digest] = result.to_payload()
            atomic_write_json(self.path, self._store)
        return result


class HttpBackend(Backend):
    """POST client for the logprob service, with bounded in-flight requests.

    Retries transport failures, 5xx and 429 responses with exponential
    backoff; a 429 whose ``Retry-After`` gives delta-seconds waits that long
    instead, at most ``timeout``. Other 4xx responses and malformed bodies
    raise :class:`ProtocolError` immediately. A query that fails after all
    retries raises :class:`BackendUnavailableError`.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retries: int = 2,
        max_in_flight: int = 8,
        backoff: float = 0.25,
        session: requests.Session | None = None,
    ):
        super().__init__()
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._session = session or requests.Session()

    def _fetch(self, prompt: str, k: int) -> TopKDistribution:
        body = {"prompt": prompt, "top_k": k}
        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                step = self.backoff * 2 ** (attempt - 1)
                time.sleep(step if retry_after is None else retry_after)
                retry_after = None
            try:
                with self._slots:
                    response = self._session.post(self.endpoint, json=body, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code == 429 or 500 <= response.status_code < 600:
                last_error = BackendError(f"server returned {response.status_code}")
                delay = response.headers.get("Retry-After", "").strip()
                if response.status_code == 429 and delay.isdecimal():
                    retry_after = min(float(delay), self.timeout)
                continue
            if response.status_code != 200:
                raise ProtocolError(
                    f"{self.endpoint} answered {response.status_code}: {response.text[:200]}"
                )
            try:
                payload = response.json()
            except ValueError as exc:
                raise ProtocolError(f"{self.endpoint} returned non-JSON body") from exc
            return TopKDistribution.from_payload(payload, k=k)
        raise BackendUnavailableError(
            f"{self.endpoint} unreachable after {self.retries + 1} attempts: {last_error}"
        )


@dataclass(frozen=True)
class BackendDescriptor:
    """Declarative backend selection: exactly one kind is active."""

    kind: str
    target: str
    timeout: float = 30.0
    retries: int = 2
    max_in_flight: int = 8
    record_path: str | None = None

    KINDS = ("http", "replay", "synthetic")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown backend kind {self.kind!r}; expected one of {self.KINDS}")
        if not self.target:
            raise ConfigError("backend target must be non-empty")
        if self.record_path and self.kind != "http":
            raise ConfigError("recording applies to the http backend only")

    @classmethod
    def parse(cls, text: str, **kwargs) -> "BackendDescriptor":
        """Parse ``kind:target`` strings; bare http(s) URLs imply the http kind."""
        if text.startswith(("http://", "https://")):
            return cls(kind="http", target=text, **kwargs)
        kind, sep, target = text.partition(":")
        if not sep:
            raise ConfigError(f"backend spec {text!r} must look like kind:target")
        return cls(kind=kind, target=target, **kwargs)


def build_backend(descriptor: BackendDescriptor) -> Backend:
    """Materialize a backend from its descriptor."""
    if descriptor.kind == "synthetic":
        return SyntheticBackend(SyntheticOracleSpec.from_json(descriptor.target))
    if descriptor.kind == "replay":
        return ReplayBackend(descriptor.target)
    backend: Backend = HttpBackend(
        descriptor.target,
        timeout=descriptor.timeout,
        retries=descriptor.retries,
        max_in_flight=descriptor.max_in_flight,
    )
    if descriptor.record_path:
        backend = RecordingBackend(backend, descriptor.record_path)
    return backend


def evaluate_prompts(
    backend: Backend, prompts: Sequence[str], k: int, workers: int = 1
) -> dict[str, TopKDistribution]:
    """Query each distinct prompt once, optionally with a bounded thread pool.

    The result is keyed by prompt, so aggregation downstream is independent
    of completion order.
    """
    unique = list(dict.fromkeys(prompts))
    if workers <= 1 or len(unique) <= 1:
        return {p: backend.query(p, k) for p in unique}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda p: backend.query(p, k), unique))
    return dict(zip(unique, results))
