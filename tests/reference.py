"""Per-item reference implementations of the batched layers.

``tabattr`` builds every prompt of an instance in one ``build_prompts``
call, verbalizes every answer in one ``class_distributions`` call and scores
every coalition in one ``similarity_rows`` call. The plain one-prompt,
one-answer and one-pair versions below are what those calls must reproduce
bit for bit; tests compare against them and check the metric properties
through them.

``tabattr.load_dataset`` validates a CSV in one pass and builds each row's
instance when it is read; :func:`load_dataset_eagerly` builds every instance
at load, and is what the lazy loader must match row for row and error for
error.

``SyntheticBackend`` finds a feature key by its ``" key:"`` needle in the
input block normalized once; :class:`ReferenceOracle` splits the block into
a set of present keys, sums the weights of those in the set and computes
each entry's logprob on its own, and the production oracle must answer
exactly as it does.

``HttpBackend`` reads each response from its connection's receive buffer,
each head received whole and then checked; :func:`read_response_by_lines`
reads it one line at a time from a buffered reader. Where every head is
complete and breaks at most one rule, the buffered reader must return what
it returns and refuse what it refuses, with the same message.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from tabattr import (
    Backend,
    FeatureField,
    PromptTemplate,
    SyntheticBackend,
    SyntheticOracleSpec,
    TabularInstance,
    TopKDistribution,
    VerbalizerMap,
)
from tabattr.backends import _MalformedResponse
from tabattr.divergence import _SUM_TOLERANCE, KL_EPSILON, LN2, METRICS
from tabattr.errors import DatasetError, NormalizationError, SerializationError
from tabattr.tabular import CATEGORICAL, LABEL, MISSING_VALUE, normalize_key, normalize_value


def fields_at(instance: TabularInstance, members: Iterable[int]) -> tuple[FeatureField, ...]:
    """The instance's fields at the given index set, in instance order."""
    picked = sorted(set(members))
    if picked and (picked[0] < 0 or picked[-1] >= instance.num_features):
        raise ValueError(f"feature indices {picked} out of range for M={instance.num_features}")
    return tuple(instance.fields[i] for i in picked)


def fields_without_keys(instance: TabularInstance, removed: Iterable[str]) -> tuple[FeatureField, ...]:
    """The instance's fields left after removing the given keys, in instance order."""
    gone = set(removed)
    unknown = gone - set(instance.keys)
    if unknown:
        raise ValueError(f"keys not in instance {instance.index}: {sorted(unknown)}")
    return tuple(f for f in instance.fields if f.key not in gone)


def serialize_features(coalition_fields: Sequence[FeatureField]) -> str:
    """Concatenate fields into the space-delimited ``k1:v1 k2:v2 ...`` string;
    an empty field list raises :class:`SerializationError`."""
    if not coalition_fields:
        raise SerializationError("cannot serialize an empty coalition")
    return " ".join(f.serialized for f in coalition_fields)


def build_prompt(template: PromptTemplate, coalition_fields: Sequence[FeatureField]) -> str:
    """Embed one serialized coalition into the fixed template."""
    return (
        f"{template.instruction}\n\n{template.input_marker}\n"
        + serialize_features(coalition_fields)
        + f"\n\n{template.response_marker}{template.suffix}"
    )


class NormalizedDistribution(NamedTuple):
    """A class distribution plus the zero-mass degeneracy flag."""

    probs: np.ndarray
    degenerate: bool


def aggregate_raw(topk: TopKDistribution, vmap: VerbalizerMap) -> np.ndarray:
    """Raw class masses: sum exp(logprob) over entries whose canonical token
    belongs to the class; entries matching no class are ignored."""
    index = {label: i for i, label in enumerate(vmap.classes)}
    raw = np.zeros(len(vmap.classes))
    for token, logprob in zip(topk.tokens, topk.logprobs):
        label = vmap.class_of(token)
        if label is not None:
            raw[index[label]] += np.exp(logprob)
    return raw


def normalize_classes(raw: np.ndarray) -> NormalizedDistribution:
    """Normalize raw masses over the class subspace; zero total mass falls
    back to the uniform distribution with ``degenerate=True``."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("raw masses must be a non-empty 1-D vector")
    if np.any(raw < 0):
        raise ValueError("raw masses must be non-negative")
    total = raw.sum()
    if total > 0:
        return NormalizedDistribution(raw / total, False)
    return NormalizedDistribution(np.full(raw.size, 1.0 / raw.size), True)


def class_distribution(topk: TopKDistribution, vmap: VerbalizerMap) -> NormalizedDistribution:
    """Aggregate then normalize one answer."""
    return normalize_classes(aggregate_raw(topk, vmap))


def _checked_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"distributions must be 1-D and same length, got {p.shape} vs {q.shape}")
    if p.size == 0:
        raise ValueError("distributions must be non-empty")
    for name, vec in (("p", p), ("q", q)):
        if np.any(vec < 0):
            raise ValueError(f"{name} has negative entries")
        if abs(vec.sum() - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"{name} sums to {vec.sum()}, not 1")
    return p, q


def _kl_terms(p: np.ndarray, q: np.ndarray) -> float:
    # 0 * ln(0/x) = 0 by convention; terms where q underflowed to 0 are dropped.
    mask = (p > 0) & (q > 0)
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def jsd_nat(p, q) -> float:
    """Jensen-Shannon divergence in nats, via the mixture m = (p + q) / 2."""
    p, q = _checked_pair(p, q)
    m = 0.5 * (p + q)
    return max(0.0, 0.5 * _kl_terms(p, m) + 0.5 * _kl_terms(q, m))


def kl_nat(p, q, eps: float = KL_EPSILON) -> float:
    """KL(p || q) in nats after adding ``eps`` to every entry of q and
    renormalizing; identical inputs give exactly 0."""
    p, q = _checked_pair(p, q)
    if np.array_equal(p, q):
        return 0.0
    q_smooth = (q + eps) / (1.0 + eps * q.size)
    return max(0.0, _kl_terms(p, q_smooth))


def l1(p, q) -> float:
    """Total variation style L1 distance, in [0, 2]."""
    p, q = _checked_pair(p, q)
    return float(np.abs(p - q).sum())


def similarity(metric: str, p_full, p_s) -> float:
    """Bounded similarity of one coalition distribution to the full-input one."""
    if metric == "jsd":
        return 1.0 - min(jsd_nat(p_full, p_s) / LN2, 1.0)
    if metric == "kl":
        return 1.0 - min(kl_nat(p_full, p_s) / LN2, 1.0)
    if metric == "l1":
        return 1.0 - min(l1(p_full, p_s) / 2.0, 1.0)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def load_dataset_eagerly(path: str | Path, schema: Mapping[str, str]) -> list[TabularInstance]:
    """Load a header-rowed CSV, building every row's instance at load."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a header row") from None
        header = [column.strip() for column in header]
        missing = [column for column in schema if column not in header]
        if missing:
            raise DatasetError(f"{path}: schema columns missing from header: {missing}")
        unknown = [column for column in header if column not in schema]
        if unknown:
            raise DatasetError(f"{path}: header columns not in schema: {unknown}")

        feature_columns = [c for c in header if schema[c] != LABEL]
        label_column = next((c for c in header if schema[c] == LABEL), None)
        keys = [normalize_key(c) for c in feature_columns]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise DatasetError(f"{path}: columns normalize to duplicate keys: {dupes}")
        positions = {c: header.index(c) for c in header}

        instances: list[TabularInstance] = []
        for row_number, row in enumerate(reader):
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {row_number + 2} has {len(row)} cells, expected {len(header)}"
                )
            fields = []
            for column, key in zip(feature_columns, keys):
                raw = row[positions[column]]
                if not raw.strip():
                    value = MISSING_VALUE
                else:
                    try:
                        value = normalize_value(raw, schema[column], column=column)
                    except NormalizationError as exc:
                        raise DatasetError(f"{path}: row {row_number + 2}: {exc}") from exc
                fields.append(FeatureField(key=key, value=value, raw_value=raw))
            label = None
            if label_column is not None:
                raw_label = row[positions[label_column]]
                if raw_label.strip():
                    label = normalize_value(raw_label, CATEGORICAL)
            instances.append(TabularInstance(index=row_number, fields=tuple(fields), label=label))
    return instances


def present_keys(prompt: str, input_marker: str, response_marker: str) -> set[str]:
    """The key of each ``key:value`` token of the prompt's input block: the
    text between the input and response markers, or the whole prompt if the
    input marker is absent."""
    block = prompt
    start = prompt.find(input_marker)
    if start >= 0:
        start += len(input_marker)
        end = prompt.find(response_marker, start)
        block = prompt[start:end] if end >= 0 else prompt[start:]
    return {tok.partition(":")[0] for tok in block.split() if ":" in tok}


def positive_probability(spec: SyntheticOracleSpec, present: Iterable[str]) -> float:
    """``logistic(bias + the weights of the present keys)``, summed in weights order."""
    present = set(present)
    score = spec.bias + sum(w for key, w in spec.weights.items() if key in present)
    return 1.0 / (1.0 + math.exp(-score))


class ReferenceOracle(Backend):
    """The synthetic oracle answering through :func:`present_keys`,
    :func:`positive_probability` and one logprob computed per entry."""

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

    @property
    def identity(self) -> str:
        """The synthetic oracle's of the same spec, whose answers it gives."""
        return SyntheticBackend(self.spec).identity

    def _fetch(self, prompt: str, k: int, wait) -> TopKDistribution:
        present = present_keys(prompt, self.input_marker, self.response_marker)
        p_pos = positive_probability(self.spec, present)
        pos, neg = self.spec.classes
        ranked = sorted(
            ((f" {pos}", p_pos), (f" {neg}", 1.0 - p_pos)), key=lambda item: -item[1]
        )
        tokens = tuple(t for t, _ in ranked[:k])
        logprobs = tuple(math.log(p) if p > 0 else float("-inf") for _, p in ranked[:k])
        return TopKDistribution(tokens=tokens, logprobs=logprobs, k=k)


_MAX_LINE = 65536
_MAX_HEADERS = 100


def _read_line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _MalformedResponse("response line longer than 64 KiB")
    return line


def _read_chunked(reader) -> bytes:
    chunks = []
    while True:
        line = _read_line(reader)
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise _MalformedResponse(f"bad chunk size line {line[:40]!r}")
        if not size:
            break
        # In bounded reads: a size line of random bytes may name more than memory holds.
        chunk = b""
        while len(chunk) < size + 2 and (piece := reader.read(min(size + 2 - len(chunk), 1 << 20))):
            chunk += piece
        if len(chunk) < size + 2:
            raise _MalformedResponse("chunked body ended early")
        chunks.append(chunk[:size])
    while _read_line(reader) not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


def read_response_by_lines(reader) -> tuple[int, str, bytes, bool]:
    """One response read line by line from a buffered ``reader``: status,
    ``Retry-After``, body and whether the connection can carry another."""
    while True:
        line = _read_line(reader)
        if not line:
            raise ConnectionResetError("server closed the connection without a response")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not (version.startswith(b"HTTP/1.") and code.isdigit() and rest[3:4].isspace()):
            raise _MalformedResponse(f"bad status line {line[:40]!r}")
        length = encoding = None
        connection, retry_after, count = b"", b"", 0
        while (line := _read_line(reader)) not in (b"\r\n", b"\n", b""):
            count += 1
            if count > _MAX_HEADERS:
                raise _MalformedResponse(f"more than {_MAX_HEADERS} headers")
            name, _, value = line.partition(b":")
            name = name.lower()
            if name == b"content-length":
                length = value.strip()
            elif name == b"transfer-encoding":
                encoding = value.strip().lower()
            elif name == b"connection":
                connection = value.lower()
            elif name == b"retry-after":
                retry_after = value.strip()
        status = int(code)
        if status >= 200:
            break
    tokens = {token.strip() for token in connection.split(b",")}
    keep_alive = b"close" not in tokens and (version != b"HTTP/1.0" or b"keep-alive" in tokens)
    if status in (204, 304):
        content = b""
    elif encoding is not None and encoding.rpartition(b",")[2].strip() == b"chunked":
        content = _read_chunked(reader)
    elif length is not None and encoding is None:
        if not length.isdigit():
            raise _MalformedResponse(f"bad Content-Length {length[:40]!r}")
        size = int(length)
        content = reader.read(size)
        if len(content) < size:
            raise _MalformedResponse(f"body ended after {len(content)} of {size} bytes")
    else:
        content, keep_alive = reader.read(), False
    return status, retry_after.decode("latin-1"), content, keep_alive
