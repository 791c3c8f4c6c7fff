"""Uniform "prompt -> top-K next-token logprobs" contract.

Three interchangeable implementations sit behind one query interface:

* :class:`HttpBackend` posts ``{"prompt": ..., "top_k": ...}`` to a remote
  service and expects ``{"tokens": [{"token": ..., "logprob": ...}, ...]}``
  with natural-log probabilities;
* :class:`ReplayBackend` serves previously recorded responses from a JSON
  file keyed by prompt digest, read-only;
* :class:`SyntheticBackend` is an analytic logistic oracle used for tests
  and demos, with no network at all.

Every answer is a :class:`TopKDistribution`: the candidates' ``tokens`` and
their ``logprobs``, two tuples of equal length, and ``k``. Its constructor
checks it once, whoever builds it: the oracle, or
:meth:`TopKDistribution.from_payload` reading an HTTP body or a recording
served by replay or by a recording's cache hit. The oracle finds a feature
key by its ``" key:"`` needle in the prompt's input block, normalized once
per prompt.

Wrapping any live backend in :class:`RecordingBackend` persists every
response so the run can later be replayed bit-exactly.

An answer is taken in two steps: a backend's ``_fetch`` receives it, and its
``_read`` decodes, checks and, in a recording, records it (see
:class:`Backend`). :func:`evaluate_prompts` receives a batch with at most
``workers`` requests in flight, then reads every answer on the calling
thread in one pass, in prompt order. With more than one worker, each slot is
a thread, and a request waiting out a backoff step or a ``Retry-After``
before its retry lends its slot to a newly started thread, through the
``wait`` callable its query is given; with one, that pause holds the slot.

A recording is one JSON object mapping prompt digest to response. Each new
response is appended as one compact line, ``"<digest>":{...}`` (with a
leading comma after the first), written over the closing brace together
with a new ``}\n``; the file is never rewritten, so N responses cost O(N)
bytes. Recordings in any other JSON layout, such as pretty-printed ones,
are read and appended to the same way.

:class:`HttpBackend` speaks a minimal HTTP/1.1 over a pool of kept-alive
sockets, TLS-wrapped for ``https``: one write per request, its JSON body
formatted directly, sent with ``Accept-Encoding: identity``. Each connection
receives into its own buffer. A response's head is received whole, up to
its empty line, then checked once with ``http.client``'s limits (see
:func:`_read_response`): a head that the server's close cuts short is
refused and retried (RFC 9112 section 8), and one that breaks two rules is
refused for the first in the order checked. The body follows from the same
buffer, framed by ``Content-Length``, by chunked transfer coding or by the
server closing. Unlike a full HTTP client it ignores ``HTTP_PROXY``,
``HTTPS_PROXY``, ``NO_PROXY`` and ``.netrc``, and it follows no redirects:
a 3xx answer is a :class:`ProtocolError`.
"""

from __future__ import annotations

import abc
import hashlib
import itertools
import json
import math
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Mapping, Sequence
from urllib.parse import urlsplit

from .errors import (
    BackendError,
    BackendUnavailableError,
    CacheMissError,
    ConfigError,
    NormalizationError,
    ProtocolError,
)
from .tabular import PromptTemplate, normalize_key

_EXP_SUM_TOLERANCE = 1e-6
_NEG_INF = float("-inf")


@dataclass(frozen=True)
class TopKDistribution:
    """Top-k candidates for the next token: ``tokens[i]`` has the natural-log
    probability ``logprobs[i]``, most probable first, surface forms exact.

    The constructor checks the answer, whoever builds it: the oracle, an HTTP
    body or a recording read by :meth:`from_payload`. The two tuples must be
    of equal length; then one loop over the entries checks each logprob,
    finite or ``-inf`` and at most 0, and the whole answer after it, in this
    order: ``k >= 1``, at most ``k`` entries, entries non-increasing, and a
    mass (their probabilities summed in entry order) of at most ``1 + 1e-6``.
    A failure is a :class:`ValueError`.
    """

    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]
    k: int

    def __post_init__(self):
        if len(self.tokens) != len(self.logprobs):
            raise ValueError(f"{len(self.tokens)} tokens but {len(self.logprobs)} logprobs")
        previous, total, unsorted = 0.0, 0, False
        for token, logprob in zip(self.tokens, self.logprobs):
            if not logprob <= 0.0:
                if not math.isfinite(logprob):
                    raise ValueError(f"logprob for {token!r} must be finite or -inf")
                raise ValueError(f"logprob for {token!r} is positive: {logprob}")
            if logprob > previous:
                unsorted = True
            previous = logprob
            total += math.exp(logprob)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.tokens) > self.k:
            raise ValueError(f"{len(self.tokens)} entries exceed k={self.k}")
        if unsorted:
            raise ValueError("entries must be sorted non-increasing by logprob")
        if total > 1.0 + _EXP_SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, exceeding 1")

    def to_payload(self) -> dict:
        pairs = zip(self.tokens, self.logprobs)
        return {"tokens": [{"token": t, "logprob": lp} for t, lp in pairs]}

    @classmethod
    def from_payload(cls, payload: Mapping, k: int) -> "TopKDistribution":
        """Build from the wire shape; raises :class:`ProtocolError` on malformed data.

        Entries are converted in turn, and reading stops at the first bad
        logprob, so the constructor reports it before any later entry that
        cannot be converted."""
        tokens, logprobs = [], []
        try:
            for item in payload["tokens"]:
                tokens.append(str(item["token"]))
                logprobs.append(logprob := float(item["logprob"]))
                if not logprob <= 0.0:
                    break
            return cls(tuple(tokens), tuple(logprobs), k)
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
    """Common query contract. Subclasses implement :meth:`_fetch`, and
    :meth:`_read` if what they receive is not yet the answer.

    A query takes its answer in two steps. :meth:`_fetch` receives it: the
    round trip, the status check and the retries, or whatever else brings
    the answer in. :meth:`_read` reads what was received into the
    :class:`TopKDistribution`: it decodes and checks it, and a
    :class:`RecordingBackend` records it. :meth:`query` does both in turn;
    with ``read=False`` it only receives, and :func:`evaluate_prompts` reads
    a whole batch on the calling thread once its last answer is in.

    ``calls`` counts completed receives; replay and synthetic backends are
    otherwise immutable and safe to share across threads. A query that has to
    pause between attempts, as :class:`HttpBackend` does before a retry, calls
    the ``wait`` it was given with the seconds to pause instead of sleeping
    itself, so a caller can lend its concurrency slot out for the pause.
    """

    def __init__(self):
        self._calls = 0
        self._calls_lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self._calls

    def query(
        self, prompt: str, k: int, wait: Callable[[float], None] = time.sleep, *, read: bool = True
    ):
        """The answer to ``prompt``, or with ``read=False`` what was received
        for it, which :meth:`_read` turns into the answer."""
        if not prompt:
            raise ValueError("prompt must be non-empty")
        if k < 1:
            raise ValueError("k must be >= 1")
        received = self._fetch(prompt, k, wait)
        with self._calls_lock:
            self._calls += 1
        return self._read(received, k) if read else received

    @abc.abstractmethod
    def _fetch(self, prompt: str, k: int, wait: Callable[[float], None]):
        """Receive the answer to ``prompt``, in whatever form :meth:`_read` reads."""

    def _read(self, received, k: int) -> TopKDistribution:
        """The answer :meth:`_fetch` received; here it is the answer itself."""
        return received

    @property
    def identity(self) -> str:
        """What this backend's answers come from, as ``kind:value``; the
        evaluation store records it and refuses another (see
        :mod:`tabattr.cache`)."""
        raise NotImplementedError(f"{type(self).__name__} names no identity")

    def close(self) -> None:
        """Release what the backend holds open, such as pooled connections."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _finite_number(name: str, value) -> float:
    """``value`` as a float, if it is a finite int or float; a bool, a string
    or anything else is a :class:`ConfigError`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SyntheticOracleSpec:
    """Analytic test double: a logistic model over PRESENT feature keys.

    The positive-class probability is ``logistic(bias + sum of weights whose
    key appears in the prompt)``, summed in ``weights`` order; absent
    features contribute exactly 0. ``classes`` are two distinct strings,
    every weight and the bias finite numbers, and ``link`` is
    ``"logistic"``. Each key must be a field key as a dataset column would
    give it, unchanged by :func:`~tabattr.tabular.normalize_key`: nonempty,
    lowercase, without whitespace or ``:``. Any other key could never appear
    in a prompt. Whatever breaks these rules is refused with a
    :class:`ConfigError`.
    """

    classes: tuple[str, str]
    weights: Mapping[str, float]
    bias: float = 0.0
    link: str = "logistic"

    def __post_init__(self):
        classes = self.classes
        if not (
            isinstance(classes, (list, tuple))
            and all(isinstance(c, str) for c in classes)
            and len(set(classes)) == len(classes) == 2
        ):
            raise ConfigError(
                f"a logistic oracle needs a list of two distinct class strings, got {classes!r}"
            )
        if self.link != "logistic":
            raise ConfigError(f"unsupported link {self.link!r}")
        if not isinstance(self.weights, Mapping):
            raise ConfigError(f"oracle weights must map keys to numbers, got {self.weights!r}")
        weights = {}
        for key, weight in self.weights.items():
            try:
                field_key = normalize_key(key)
            except NormalizationError:
                field_key = None
            if field_key != key:
                hint = f"; a column named {key!r} has the key {field_key!r}" if field_key else ""
                raise ConfigError(
                    f"oracle weight key {key!r} can never appear in a prompt: field keys "
                    f"are nonempty, lowercase and without whitespace or ':'{hint}"
                )
            weights[key] = _finite_number(f"oracle weight {key!r}", weight)
        object.__setattr__(self, "classes", tuple(classes))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", _finite_number("oracle bias", self.bias))

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticOracleSpec":
        """The spec in a JSON object with ``classes``, ``weights`` and optional
        ``bias`` and ``link``; any fault is a :class:`ConfigError` naming
        ``path``."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            return cls(
                classes=data["classes"],
                weights=data["weights"],
                bias=data.get("bias", 0.0),
                link=data.get("link", "logistic"),
            )
        except (OSError, KeyError, TypeError, ValueError, ConfigError) as exc:
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

    Feature presence is read from the prompt's input block: the text after
    the first input marker, up to the first response marker after it if there
    is one, or the whole prompt if there is no input marker. A key is present
    when some whitespace-separated token of the block starts with ``key:``.
    The block is normalized once per prompt, its tokens joined by single
    spaces after a leading one, and a key is present exactly when its needle
    ``" key:"`` occurs in that text; this holds because a key carries no
    whitespace and no ``:`` (:class:`SyntheticOracleSpec` refuses any other).
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
        self._needles = tuple((f" {key}:", weight) for key, weight in spec.weights.items())
        pos, neg = spec.classes
        self._tokens = (f" {pos}", f" {neg}")

    @property
    def identity(self) -> str:
        """``synthetic:`` and the sha256 of the spec's payload, its weights in
        the order the oracle sums them, with the two markers it reads the
        input block between."""
        payload = self.spec.to_payload()
        payload.update(input_marker=self.input_marker, response_marker=self.response_marker)
        text = json.dumps(payload, separators=(",", ":"))
        return "synthetic:" + hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _fetch(self, prompt: str, k: int, wait: Callable[[float], None]) -> TopKDistribution:
        block = prompt
        start = prompt.find(self.input_marker)
        if start >= 0:
            start += len(self.input_marker)
            end = prompt.find(self.response_marker, start)
            block = prompt[start:end] if end >= 0 else prompt[start:]
        text = " " + " ".join(block.split())
        # Summed in weights order: the same floats in the same order every run.
        score = self.spec.bias + sum([w for needle, w in self._needles if needle in text])
        try:
            p_pos = 1.0 / (1.0 + math.exp(-score))
        except OverflowError:  # score below about -709: the same value, to rounding
            p_pos = math.exp(score)
        p_neg = 1.0 - p_pos
        pos, neg = self._tokens
        # The more probable class first, the positive one on a tie.
        if p_pos < p_neg:
            tokens, probs = (neg, pos), (p_neg, p_pos)
        else:
            tokens, probs = (pos, neg), (p_pos, p_neg)
        logprobs = tuple([math.log(p) if p > 0 else _NEG_INF for p in probs[:k]])
        return TopKDistribution(tokens[:k], logprobs, k)


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
        self._store, text, _ = _parse_recording(self.path)
        # Read with newline="", the text encodes back to the file's bytes.
        self._identity = "replay:" + hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def identity(self) -> str:
        """``replay:`` and the sha256 of the recording's bytes."""
        return self._identity

    def _fetch(self, prompt: str, k: int, wait: Callable[[float], None]) -> dict:
        digest = prompt_digest(prompt, k)
        payload = self._store.get(digest)
        if payload is None:
            raise CacheMissError(digest)
        return payload

    def _read(self, received: dict, k: int) -> TopKDistribution:
        return TopKDistribution.from_payload(received, k=k)


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

    A prompt already recorded is answered from the recording; any other is
    received from the live backend. A response is appended when it is read,
    after the live backend's own read, so :func:`evaluate_prompts` appends a
    batch's new responses in prompt order, whatever order they arrived in,
    and a recording made with any ``workers`` has the same bytes. A response
    that does not read as an answer is not appended.

    Appends are serialized through a lock. Each is one write of one line over
    the closing brace, at an offset tracked here, so earlier bytes are never
    touched and a crash can tear at most the last line, which the next open
    drops. The file stays open, unbuffered, from the first append until
    :meth:`close`.
    """

    def __init__(self, inner: Backend, path: str | Path):
        super().__init__()
        self.inner = inner
        self.path = Path(path)
        self._write_lock = threading.Lock()
        self._store, self._brace = _open_recording(self.path)
        self._file = None

    @property
    def identity(self) -> str:
        """The recorded backend's: a recording adds no answer of its own."""
        return self.inner.identity

    def _fetch(self, prompt: str, k: int, wait: Callable[[float], None]) -> tuple:
        """The prompt's digest, and its recorded payload or else what the live
        backend received for it."""
        digest = prompt_digest(prompt, k)
        with self._write_lock:
            cached = self._store.get(digest)
        if cached is not None:
            return digest, cached, None
        return digest, None, self.inner.query(prompt, k, wait, read=False)

    def _read(self, received: tuple, k: int) -> TopKDistribution:
        digest, cached, live = received
        if cached is not None:
            return TopKDistribution.from_payload(cached, k=k)
        result = self.inner._read(live, k)
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
        if self._file is None:
            self._file = open(self.path, "r+b", buffering=0)
        line = json.dumps({digest: payload}, separators=(",", ":"))[1:-1].encode("ascii")
        data = (b"," if self._store else b"") + line + b"\n}\n"
        self._file.seek(self._brace)
        if self._file.write(data) != len(data):
            raise BackendError(f"short write to recording {self.path}")
        self._brace += len(data) - 2

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self.inner.close()


#: Longest status, header or chunk-size line read, and most header lines per
#: response; the limits ``http.client`` applies.
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: Most bytes one receive takes from the socket: the buffer size of a
#: buffered socket reader, so each connection's zero-filled chunk is small.
_RECEIVE_SIZE = 8192


class _MalformedResponse(Exception):
    """A response whose framing cannot be read; retried like a dropped connection."""


def _line_too_long() -> _MalformedResponse:
    return _MalformedResponse("response line longer than 64 KiB")


class _Connection:
    """One socket to the endpoint and the bytes received on it but not yet read.

    Each receive appends what one ``recv_into`` brings to ``buffer``; what is
    read is cut from its front. A receive of no bytes means the server has
    closed the connection.
    """

    __slots__ = ("sock", "buffer", "_chunk")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = bytearray()
        self._chunk = memoryview(bytearray(_RECEIVE_SIZE))

    def receive(self) -> bool:
        """Append one receive to ``buffer``; false if the server has closed."""
        size = self.sock.recv_into(self._chunk)
        self.buffer += self._chunk[:size]
        return size > 0

    def take(self, size: int) -> bytes:
        """The next ``size`` bytes, or fewer if the server closes first."""
        buffer = self.buffer
        while len(buffer) < size and self.receive():
            pass
        data = bytes(buffer[:size])
        del buffer[:size]
        return data

    def take_line(self) -> bytes:
        """The next line, ``\\n`` included, or the rest up to the close; at most 64 KiB."""
        buffer = self.buffer
        searched = 0
        while not (end := buffer.find(b"\n", searched) + 1):
            if len(buffer) > _MAX_LINE:
                raise _line_too_long()
            searched = len(buffer)
            if not self.receive():
                return self.take(searched)
        if end > _MAX_LINE:
            raise _line_too_long()
        return self.take(end)

    def take_head(self) -> bytes:
        """The next response head, through the empty line (CRLF or bare LF)
        that ends it. More than 101 line ends or an unterminated line over
        64 KiB refuse it while it is incomplete, and more than 100 header
        lines or a line over 64 KiB once it is. A close before the empty line
        is a :class:`_MalformedResponse`, or with no byte received a
        :class:`ConnectionResetError`."""
        buffer = self.buffer
        if not buffer and not self.receive():
            raise ConnectionResetError("server closed the connection without a response")
        # Bytes before ``new`` are searched: ``lines`` line ends are among
        # them, and their last line starts at ``last``.
        new = lines = last = 0
        while True:
            start = new - 2 if new > 2 else 0  # an empty line may start there
            crlf = buffer.find(b"\n\r\n", start)
            bare = buffer.find(b"\n\n", start, crlf + 1 if crlf >= 0 else len(buffer))
            end = bare + 2 if bare >= 0 else crlf + 3 if crlf >= 0 else 0
            # The status line's and the headers' line ends: all before the empty line's.
            lines += buffer.count(b"\n", new, end - 1 if end else len(buffer))
            if lines > _MAX_HEADERS + 1:
                raise _MalformedResponse(f"more than {_MAX_HEADERS} headers")
            if end:
                break
            last = buffer.rfind(b"\n", new) + 1 or last
            new = len(buffer)
            if new - last > _MAX_LINE:
                raise _line_too_long()
            if not self.receive():
                raise _MalformedResponse("server closed the connection inside a response head")
        if end > _MAX_LINE and max(map(len, buffer[:end].split(b"\n"))) >= _MAX_LINE:
            raise _line_too_long()
        return self.take(end)

    def take_rest(self) -> bytes:
        """Every byte up to the server's close."""
        while self.receive():
            pass
        return self.take(len(self.buffer))

    def close(self) -> None:
        self.sock.close()


def _read_chunked(conn: _Connection) -> bytes:
    chunks = []
    while True:
        line = conn.take_line()
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise _MalformedResponse(f"bad chunk size line {line[:40]!r}")
        if not size:
            break
        chunk = conn.take(size + 2)  # the data and its CRLF
        if len(chunk) < size + 2:
            raise _MalformedResponse("chunked body ended early")
        chunks.append(chunk[:size])
    while conn.take_line() not in (b"\r\n", b"\n", b""):  # trailer fields
        pass
    return b"".join(chunks)


def _read_response(conn: _Connection) -> tuple[int, str, bytes, bool]:
    """One response from ``conn``: its status, ``Retry-After``, body, and
    whether the connection can carry another request.

    Each head is received whole (:meth:`_Connection.take_head`), which
    refuses one cut short by the server's close, then checked once: at most
    100 header lines, no line over 64 KiB, a good status line. A head that
    breaks two of these rules is refused for the first, in whatever order its
    lines come. Interim 1xx responses are skipped. Only the last line of each
    header that frames the body or that the retry policy reads is looked at."""
    while True:
        head = conn.take_head()
        line = head[: head.find(b"\n") + 1]
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not (version.startswith(b"HTTP/1.") and code.isdigit() and rest[3:4].isspace()):
            raise _MalformedResponse(f"bad status line {line[:40]!r}")
        status = int(code)
        if status >= 200:
            break
    lower = head.lower()
    # Just past the colon of each header's last line; one less than its
    # needle's length if the head has no such line.
    length = lower.rfind(b"\ncontent-length:") + 16
    encoding = lower.rfind(b"\ntransfer-encoding:") + 19
    connection = lower.rfind(b"\nconnection:") + 12
    retry_after = lower.rfind(b"\nretry-after:") + 13
    keep_alive = version != b"HTTP/1.0"
    if connection > 11:
        tokens = {t.strip() for t in lower[connection : lower.find(b"\n", connection)].split(b",")}
        keep_alive = b"close" not in tokens and (keep_alive or b"keep-alive" in tokens)
    if status in (204, 304):
        content = b""
    elif encoding > 18:
        coding = lower[encoding : lower.find(b"\n", encoding)].rpartition(b",")[2]
        if coding.strip() == b"chunked":
            content = _read_chunked(conn)
        else:
            content, keep_alive = conn.take_rest(), False
    elif length > 15:
        length = head[length : head.find(b"\n", length)].strip()
        if not length.isdigit():
            raise _MalformedResponse(f"bad Content-Length {length[:40]!r}")
        size = int(length)
        content = conn.take(size)
        if len(content) < size:
            raise _MalformedResponse(f"body ended after {len(content)} of {size} bytes")
    else:
        content, keep_alive = conn.take_rest(), False
    if retry_after > 12:
        retry_after = head[retry_after : head.find(b"\n", retry_after)].strip().decode("latin-1")
    else:
        retry_after = ""
    return status, retry_after, content, keep_alive


class HttpBackend(Backend):
    """POST client for the logprob service, speaking HTTP/1.1 over sockets.

    Each request is one write of a head built once plus the JSON body, the
    bytes ``json.dumps`` would give, sent with ``Accept-Encoding: identity``
    on a kept-alive connection from an idle pool that grows to the number of
    requests in flight at once; the caller bounds those, as
    :func:`evaluate_prompts` does with ``workers``. A connection reads each
    response from its own receive buffer: the head received whole, up to its
    empty line, and checked (see :func:`_read_response`), interim 1xx heads
    skipped, then the body from the same buffer by ``Content-Length``, by
    ``Transfer-Encoding: chunked``, or until the server closes;
    ``Connection: close``, and an HTTP/1.0 answer without ``keep-alive``, end
    the connection. Retries transport failures, malformed framing (a head
    cut short by the server's close among them), 5xx and 429 responses with
    exponential backoff; a 429 whose ``Retry-After`` gives delta-seconds
    waits that long instead, at most ``timeout``. Each pause is one call of
    the query's ``wait``, during which no connection is held. Other non-200
    responses, 3xx included, raise :class:`ProtocolError` immediately. A
    query that fails after all retries raises
    :class:`BackendUnavailableError`.

    :meth:`_fetch` receives a 200 body as bytes, and :meth:`_read` decodes
    it: a body that is not JSON, or not a top-k answer, is a
    :class:`ProtocolError` there. So in :func:`evaluate_prompts` such a body
    is refused when the batch is read, after the batch's other requests, not
    when it arrives.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        super().__init__()
        # ``threading.TIMEOUT_MAX`` is also the longest timeout a socket takes.
        if retries < 0 or not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(
                f"http backend needs retries >= 0 and 0 < timeout <= {threading.TIMEOUT_MAX:.0f}, "
                f"got retries={retries}, timeout={timeout}"
            )
        if not 0 <= backoff < math.inf:  # ``time.sleep`` refuses a negative or non-finite wait
            raise ConfigError(f"http backend needs a finite backoff >= 0, got backoff={backoff}")
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname or url.username is not None:
            raise ConfigError(
                f"http backend needs an http(s) URL without credentials, got {endpoint!r}"
            )
        default_port = 443 if url.scheme == "https" else 80
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        try:
            port = default_port if url.port is None else url.port
            if not (path.isascii() and path.isprintable()) or " " in path:
                raise ValueError("the path must be printable ASCII without spaces")
            host = url.hostname.encode("idna").decode("ascii")
        except ValueError as exc:
            raise ConfigError(f"malformed http endpoint {endpoint!r}: {exc}") from exc
        self._address = (url.hostname, port)
        if ":" in host:
            host = f"[{host}]"
        if port != default_port:
            host = f"{host}:{port}"
        self._head = (
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        self._tls = None
        if url.scheme == "https":
            import ssl  # only https endpoints pay for importing it

            self._tls = ssl.create_default_context()
        self._idle: list[_Connection] = []

    @property
    def identity(self) -> str:
        """``http:`` and the endpoint URL."""
        return f"http:{self.endpoint}"

    def _connect(self) -> _Connection:
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _exchange(self, conn: _Connection, request: bytes) -> tuple[int, str, bytes]:
        """Send ``request`` and read the answer; ``conn`` goes back to the idle
        pool if it can carry another request and is closed otherwise."""
        try:
            conn.sock.sendall(request)
            status, retry_after, content, keep_alive = _read_response(conn)
        except BaseException:
            conn.close()
            raise
        if keep_alive:
            self._idle.append(conn)
        else:
            conn.close()
        return status, retry_after, content

    def _post(self, body: bytes) -> tuple[int, str, bytes]:
        """One POST on a pooled connection: status, ``Retry-After`` and body.

        A kept-alive connection that the server closed while it sat idle fails
        on first use; it is reopened at once, not counted as a failed attempt.
        """
        request = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)
        try:
            conn = self._idle.pop()
        except IndexError:
            pass
        else:
            try:
                return self._exchange(conn, request)
            except (BrokenPipeError, ConnectionResetError):
                pass
        return self._exchange(self._connect(), request)

    def _fetch(self, prompt: str, k: int, wait: Callable[[float], None]) -> bytes:
        # Byte for byte what json.dumps({"prompt": prompt, "top_k": k}) gives.
        body = b'{"prompt": %s, "top_k": %d}' % (encode_basestring_ascii(prompt).encode(), k)
        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                step = self.backoff * 2 ** (attempt - 1)
                wait(step if retry_after is None else retry_after)
                retry_after = None
            try:
                status, delay, content = self._post(body)
            except (OSError, _MalformedResponse) as exc:
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
            return content
        raise BackendUnavailableError(
            f"{self.endpoint} unreachable after {self.retries + 1} attempts: {last_error}"
        )

    def _read(self, received: bytes, k: int) -> TopKDistribution:
        try:
            payload = json.loads(received)
        except ValueError as exc:
            raise ProtocolError(f"{self.endpoint} returned non-JSON body") from exc
        return TopKDistribution.from_payload(payload, k=k)

    def close(self) -> None:
        while self._idle:
            self._idle.pop().close()


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
    kind: str,
    target: str,
    timeout: float = 30.0,
    retries: int = 2,
    record: str | None = None,
    template: PromptTemplate = PromptTemplate(),
) -> Backend:
    """The backend a parsed spec names; ``record`` wraps an http backend in a
    :class:`RecordingBackend` writing to that file. The synthetic oracle reads
    the input block between ``template``'s markers."""
    if record and kind != "http":
        raise ConfigError("recording applies to the http backend only")
    if kind == "synthetic":
        spec = SyntheticOracleSpec.from_json(target)
        return SyntheticBackend(spec, template.input_marker, template.response_marker)
    if kind == "replay":
        return ReplayBackend(target)
    backend: Backend = HttpBackend(target, timeout=timeout, retries=retries)
    if record:
        backend = RecordingBackend(backend, record)
    return backend


class _Batch:
    """One receive per prompt on threads that each hold one slot.

    :meth:`run` starts one thread per first prompt; a thread pulls the next
    prompt not yet started once its receive is done, and puts what it
    received into ``received``. A query that pauses lends its slot to a
    newly started thread for the pause; back from it, the query takes a free
    slot, or else waits for the slot the next finishing query gives up, ahead
    of the prompts not yet started. The first failure stops new prompts; the
    queries already running or waiting finish, and the failure is raised by
    :meth:`run`.
    """

    def __init__(self, backend: Backend, k: int, pending: Sequence[str], received: dict):
        self._backend = backend
        self._k = k
        self._pending = iter(pending)
        self._lock = threading.Lock()
        # One held lock per query back from a pause, released to hand it a slot.
        self._returning: deque = deque()
        self._free = 0
        self._error: BaseException | None = None
        self._threads: list[threading.Thread] = []
        self._names = itertools.count()
        self._received = received

    def run(self, first: Sequence[str]) -> None:
        try:
            for prompt in first:
                self._start(prompt)
            # Iterates over threads started meanwhile too: a thread that starts
            # another lists it before it ends.
            for thread in self._threads:
                thread.join()
        except BaseException as exc:
            with self._lock:
                self._error = self._error or exc
            raise
        if self._error is not None:
            raise self._error

    def _start(self, prompt: str) -> None:
        thread = threading.Thread(
            target=self._work, args=(prompt,), name=f"tabattr-query-{next(self._names)}"
        )
        thread.start()
        self._threads.append(thread)

    def _work(self, prompt: str | None) -> None:
        while prompt is not None:
            error = None
            try:
                received = self._backend.query(prompt, self._k, self._pause, read=False)
            except BaseException as exc:
                error = exc
            with self._lock:
                if error is None:
                    self._received[prompt] = received
                else:
                    self._error = self._error or error
                prompt = self._pass_slot()

    def _pass_slot(self) -> str | None:
        """Give up the calling query's slot, with the lock held: to the first
        query back from a pause, else to the next prompt not yet started, which
        is returned for the caller to query; else the slot is free."""
        if self._returning:
            self._returning.popleft().release()
            return None
        if self._error is None:
            prompt = next(self._pending, None)
            if prompt is not None:
                return prompt
        self._free += 1
        return None

    def _pause(self, seconds: float) -> None:
        with self._lock:
            prompt = self._pass_slot()
        if prompt is not None:
            self._start(prompt)
        time.sleep(seconds)
        with self._lock:
            if self._free:
                self._free -= 1
                return
            turn = threading.Lock()
            turn.acquire()
            self._returning.append(turn)
        turn.acquire()


def _read_received(
    backend: Backend, prompts: Sequence[str], received: dict, k: int
) -> tuple[dict[str, TopKDistribution], Exception | None]:
    """Read what was received for each of ``prompts``, in their order: the
    answers read, and the first error reading one. An answer that fails to
    read is left out, and the rest are still read."""
    answers = {}
    error = None
    for prompt in prompts:
        try:
            answers[prompt] = backend._read(received[prompt], k)
        except (BackendError, OSError) as exc:
            error = error or exc
    return answers, error


def evaluate_prompts(
    backend: Backend, prompts: Sequence[str], k: int, workers: int = 1
) -> dict[str, TopKDistribution]:
    """Query each distinct prompt once, with at most ``workers`` requests in flight.

    Each answer is taken in two steps (see :class:`Backend`). First every
    prompt's answer is received, through one ``backend.query(..., read=False)``
    per distinct prompt. With one worker the prompts are received in turn in
    the calling thread, and a query pausing before a retry holds the one
    slot: the threads below would free it, but starting them makes an
    801-prompt oracle batch about 10% slower (4.4 -> 5.0 ms median on a
    2-vCPU Xeon VM). With more, one thread per slot, ``min(workers,
    distinct prompts)`` of them, named ``tabattr-query-<n>``, each receives
    the next prompt not yet started until none is left. A query holds its
    slot while it runs, but not while it waits out a backoff step or a
    ``Retry-After`` between attempts: it lends the slot to a newly started
    thread for the wait, so another prompt uses it meanwhile, and takes a
    slot back before it retries, ahead of the prompts not yet started.

    Then, once the last receive is done, the calling thread reads every
    received answer in one pass, in prompt order: it decodes and checks
    each, and a :class:`RecordingBackend` appends each new one, so a
    recording's bytes do not depend on ``workers``. An answer that does not
    read raises its error after the others are read.

    A receive that raises stops the prompts not yet started; the queries
    already running or waiting finish. The answers received by then are read,
    and so recorded, in prompt order, any that fails to read skipped, and the
    receive's error is raised here. The same holds when the caller is
    interrupted while the batch runs.

    The result is keyed by prompt, so aggregation downstream is independent
    of completion order.
    """
    unique = list(dict.fromkeys(prompts))
    received: dict = {}
    try:
        if workers <= 1 or len(unique) <= 1:
            for prompt in unique:
                received[prompt] = backend.query(prompt, k, read=False)
        else:
            _Batch(backend, k, unique[workers:], received).run(unique[:workers])
    except BaseException:
        # Threads still running may add to ``received``; read what is there now.
        _read_received(backend, [p for p in unique if p in received], received, k)
        raise
    answers, error = _read_received(backend, unique, received, k)
    if error is not None:
        raise error
    return answers
