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

A recording is one JSON object mapping prompt digest to response. Each new
response is appended as one compact line, ``"<digest>":{...}`` (with a
leading comma after the first), written over the closing brace together
with a new ``}\n``; the file is never rewritten, so N responses cost O(N)
bytes. Recordings in any other JSON layout, such as pretty-printed ones,
are read and appended to the same way.

:class:`HttpBackend` speaks HTTP/1.1 through the standard library's
``http.client`` over a pool of kept-alive connections. Unlike a full HTTP
client it ignores ``HTTP_PROXY``, ``HTTPS_PROXY``, ``NO_PROXY`` and
``.netrc``, and it follows no redirects: a 3xx answer is a
:class:`ProtocolError`.
"""

from __future__ import annotations

import abc
import hashlib
import http.client
import json
import math
import ssl
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from urllib.parse import urlsplit

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

    def close(self) -> None:
        """Release what the backend holds open, such as pooled connections."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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


def _parse_recording(path: Path) -> tuple[dict[str, dict], str, int]:
    """Read a recording: its digest -> response store, its text, and the
    length of its body, the text before the closing brace.

    A last line cut short by a process killed mid-append is left out of the
    store and the body; any other damage is a :class:`BackendError` naming the
    file. The file is only read."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BackendError(f"cannot read recording {path}: {exc}") from exc
    try:
        store = json.loads(text)
    except ValueError as exc:
        body = text.rfind("\n") + 1
        try:
            store = json.loads(text[:body] + "}\n")
        except ValueError:
            raise BackendError(f"recording {path} is not valid JSON: {exc}") from exc
    else:
        body = text.rfind("}")
    if not isinstance(store, dict):
        raise BackendError(f"recording {path} must be a JSON object")
    return store, text, body


class ReplayBackend(Backend):
    """Read-only backend serving a recording, a digest -> response JSON file.

    A recording whose last line was torn by a killed record run serves every
    complete response; the file is left as it is."""

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        self._store, _, _ = _parse_recording(self.path)

    def _fetch(self, prompt: str, k: int) -> TopKDistribution:
        digest = prompt_digest(prompt, k)
        payload = self._store.get(digest)
        if payload is None:
            raise CacheMissError(digest)
        return TopKDistribution.from_payload(payload, k=k)


def _open_recording(path: Path) -> tuple[dict[str, dict], int | None]:
    """Load a recording for appending: its store and the offset of its closing
    brace, or ``None`` when the file does not exist yet. A torn last line is
    cut off and the brace closed again."""
    if not path.exists():
        return {}, None
    store, text, body = _parse_recording(path)
    tail = "}\n" if text.endswith("\n", 0, body) else "\n}\n"
    offset = len(text[:body].encode("utf-8"))  # the body's length in bytes
    if text[body:] != tail:
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(tail.encode("ascii"))
            handle.truncate()
    return store, offset + len(tail) - 2


class RecordingBackend(Backend):
    """Wraps a live backend and persists every response for later replay.

    Appends are serialized through a lock. Each is one write of one line over
    the closing brace, at an offset tracked here, so earlier bytes are never
    touched and a crash can tear at most the last line, which the next open
    drops.
    """

    def __init__(self, inner: Backend, path: str | Path):
        super().__init__()
        self.inner = inner
        self.path = Path(path)
        self._write_lock = threading.Lock()
        self._store, self._brace = _open_recording(self.path)

    def _fetch(self, prompt: str, k: int) -> TopKDistribution:
        digest = prompt_digest(prompt, k)
        with self._write_lock:
            cached = self._store.get(digest)
        if cached is not None:
            return TopKDistribution.from_payload(cached, k=k)
        result = self.inner.query(prompt, k)
        payload = result.to_payload()
        with self._write_lock:
            if digest not in self._store:
                self._append(digest, payload)
                self._store[digest] = payload
        return result

    def _append(self, digest: str, payload: dict) -> None:
        if self._brace is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_bytes(b"{\n}\n")
            self._brace = 2
        line = json.dumps({digest: payload}, separators=(",", ":"))[1:-1].encode("ascii")
        data = (b"," if self._store else b"") + line + b"\n}\n"
        with open(self.path, "r+b") as handle:
            handle.seek(self._brace)
            handle.write(data)
        self._brace += len(data) - 2

    def close(self) -> None:
        self.inner.close()


class HttpBackend(Backend):
    """POST client for the logprob service.

    Each request runs on a kept-alive connection from an idle pool that grows
    to the number of threads querying at once; the caller bounds those, as
    :func:`evaluate_prompts` does with ``workers``. Retries transport failures, 5xx
    and 429 responses with exponential backoff; a 429 whose ``Retry-After``
    gives delta-seconds waits that long instead, at most ``timeout``. Other
    non-200 responses and malformed bodies raise :class:`ProtocolError`
    immediately. A query that fails after all retries raises
    :class:`BackendUnavailableError`.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        super().__init__()
        if retries < 0 or not timeout > 0:
            raise ConfigError(
                "http backend needs retries >= 0 and timeout > 0, got "
                f"retries={retries}, timeout={timeout}"
            )
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname or url.username is not None:
            raise ConfigError(
                f"http backend needs an http(s) URL without credentials, got {endpoint!r}"
            )
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._host = url.netloc
        self._context = ssl.create_default_context() if url.scheme == "https" else None
        try:
            self._idle = [self._connection()]
        except http.client.InvalidURL as exc:
            raise ConfigError(f"malformed http endpoint {endpoint!r}: {exc}") from exc

    def _connection(self) -> http.client.HTTPConnection:
        """A new, not yet connected, connection to the endpoint's host."""
        if self._context is None:
            return http.client.HTTPConnection(self._host, timeout=self.timeout)
        return http.client.HTTPSConnection(self._host, timeout=self.timeout, context=self._context)

    def _exchange(self, conn: http.client.HTTPConnection, body: bytes) -> tuple[int, str, bytes]:
        conn.request("POST", self._path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.getheader("Retry-After", "").strip(), response.read()

    def _post(self, body: bytes) -> tuple[int, str, bytes]:
        """One POST on a pooled connection: status, ``Retry-After`` and body.

        A kept-alive connection that the server closed while it sat idle fails
        on first use; it is reopened at once, not counted as a failed attempt.
        """
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connection()
        try:
            reused = conn.sock is not None
            try:
                return self._exchange(conn, body)
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                conn.close()
                return self._exchange(conn, body)
        except BaseException:
            conn.close()
            raise
        finally:
            self._idle.append(conn)

    def _fetch(self, prompt: str, k: int) -> TopKDistribution:
        body = json.dumps({"prompt": prompt, "top_k": k}).encode("utf-8")
        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                step = self.backoff * 2 ** (attempt - 1)
                time.sleep(step if retry_after is None else retry_after)
                retry_after = None
            try:
                status, delay, content = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status == 429 or 500 <= status < 600:
                last_error = BackendError(f"server returned {status}")
                if status == 429 and delay.isdecimal():
                    retry_after = min(float(delay), self.timeout)
                continue
            if status != 200:
                text = content.decode("utf-8", "replace")
                raise ProtocolError(f"{self.endpoint} answered {status}: {text[:200]}")
            try:
                payload = json.loads(content)
            except ValueError as exc:
                raise ProtocolError(f"{self.endpoint} returned non-JSON body") from exc
            return TopKDistribution.from_payload(payload, k=k)
        raise BackendUnavailableError(
            f"{self.endpoint} unreachable after {self.retries + 1} attempts: {last_error}"
        )

    def close(self) -> None:
        for conn in self._idle:
            conn.close()


BACKEND_KINDS = ("http", "replay", "synthetic")


def parse_backend(text: str) -> tuple[str, str]:
    """Split a ``kind:target`` backend spec; a bare http(s) URL is the http kind.

    Raises:
        ConfigError: no ``:`` separator, an unknown kind or an empty target.
    """
    if text.startswith(("http://", "https://")):
        return "http", text
    kind, sep, target = text.partition(":")
    if not sep:
        raise ConfigError(f"backend spec {text!r} must look like kind:target")
    if kind not in BACKEND_KINDS:
        raise ConfigError(f"unknown backend kind {kind!r}; expected one of {BACKEND_KINDS}")
    if not target:
        raise ConfigError("backend target must be non-empty")
    return kind, target


def open_backend(
    kind: str, target: str, timeout: float = 30.0, retries: int = 2, record: str | None = None
) -> Backend:
    """The backend a parsed spec names; ``record`` wraps an http backend in a
    :class:`RecordingBackend` writing to that file."""
    if record and kind != "http":
        raise ConfigError("recording applies to the http backend only")
    if kind == "synthetic":
        return SyntheticBackend(SyntheticOracleSpec.from_json(target))
    if kind == "replay":
        return ReplayBackend(target)
    backend: Backend = HttpBackend(target, timeout=timeout, retries=retries)
    if record:
        backend = RecordingBackend(backend, record)
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
