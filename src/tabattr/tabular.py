"""Tabular ingestion and deterministic key:value prompt serialization.

A row is normalized into an ordered list of ``key:value`` fields and embedded
into a fixed instruction template. Serialization is pure and byte-stable:
the same instance always yields the same prompt, and any subset (coalition)
of its fields yields a prompt that differs from the full one only inside the
input block.

:func:`load_dataset` validates the whole file when it is loaded (header,
schema, duplicate keys, row arity and every numeric cell) and returns a
:class:`TabularDataset` that builds a row's :class:`TabularInstance` only
when that row is read, so a command that reads one row of a large file
builds one instance.

:func:`build_prompts` takes an instance and a bool membership matrix, one
row per coalition, and builds every row's prompt in one pass, framing the
template and rendering each ``key:value`` once.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import DatasetError, NormalizationError, SerializationError

NUMERIC = "numeric"
CATEGORICAL = "categorical"
LABEL = "label"
COLUMN_KINDS = (NUMERIC, CATEGORICAL, LABEL)

#: Value substituted for cells that are empty after trimming.
MISSING_VALUE = "unknown"

DEFAULT_INSTRUCTION = (
    "Classify the record given below. Answer with a single word naming the class."
)

_WS_RUN = re.compile(r"\s+")


def normalize_key(name: str) -> str:
    """Normalize a column name into a serializable field key.

    Lowercases, collapses whitespace runs to single underscores, and replaces
    colons with underscores so the serialized ``key:value`` token stays
    parseable at its first colon.
    """
    key = _WS_RUN.sub("_", name.strip().lower()).replace(":", "_")
    if not key:
        raise NormalizationError(f"column name {name!r} normalizes to an empty key")
    return key


def normalize_value(raw: str, kind: str, column: str | None = None) -> str:
    """Normalize a raw cell value for serialization.

    Numeric values are rendered as integer text with the fractional part
    truncated toward zero; categorical values are lowercased with every
    whitespace run replaced by a single underscore.

    Raises:
        NormalizationError: if ``raw`` is empty after trimming or a numeric
            cell does not parse, naming ``column`` when given.
    """
    trimmed = raw.strip()
    if not trimmed:
        raise NormalizationError(f"empty value{_in_column(column)}")
    if kind == NUMERIC:
        try:
            number = float(trimmed)
            return str(int(number))
        except (ValueError, OverflowError) as exc:
            raise NormalizationError(
                f"cannot parse numeric value {raw!r}{_in_column(column)}"
            ) from exc
    if kind == CATEGORICAL:
        return _WS_RUN.sub("_", trimmed.lower())
    raise ValueError(f"unknown column kind {kind!r}")


def _in_column(column: str | None) -> str:
    return f" in column {column!r}" if column else ""


@dataclass(frozen=True)
class FeatureField:
    """One normalized ``key:value`` field of an instance.

    ``raw_value`` keeps the pre-normalization cell text for reporting.
    """

    key: str
    value: str
    raw_value: str = ""

    def __post_init__(self):
        if not self.key or self.key != self.key.lower():
            raise ValueError(f"field key {self.key!r} must be non-empty lowercase")
        if _WS_RUN.search(self.key) or ":" in self.key:
            raise ValueError(f"field key {self.key!r} may not contain whitespace or ':'")
        if not self.value:
            raise ValueError(f"field {self.key!r} has an empty value")
        if _WS_RUN.search(self.value):
            raise ValueError(f"value {self.value!r} of field {self.key!r} contains whitespace")

    @property
    def serialized(self) -> str:
        return f"{self.key}:{self.value}"


@dataclass(frozen=True)
class TabularInstance:
    """One dataset row: an ordered tuple of fields plus an optional label."""

    index: int
    fields: tuple[FeatureField, ...]
    label: str | None = None

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("instance index must be non-negative")
        if not self.fields:
            raise ValueError("an instance needs at least one field")
        keys = [f.key for f in self.fields]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate field keys: {', '.join(dupes)}")

    @property
    def num_features(self) -> int:
        return len(self.fields)

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(f.key for f in self.fields)


@dataclass(frozen=True)
class PromptTemplate:
    """Fixed framing around the serialized feature string.

    The built prompt is::

        {instruction}\\n\\n{input_marker}\\n{features}\\n\\n{response_marker}{suffix}

    Everything outside the feature string is byte-identical across all
    coalitions of an instance. ``suffix`` makes the bytes after the response
    marker exactly configurable (some deployments end flush at the marker,
    others expect a trailing newline).
    """

    instruction: str = DEFAULT_INSTRUCTION
    input_marker: str = "### Input:"
    response_marker: str = "### Response:"
    suffix: str = "\n"

    def __post_init__(self):
        if not self.input_marker or not self.response_marker:
            raise ValueError("markers must be non-empty")
        if self.input_marker in self.response_marker or self.response_marker in self.input_marker:
            raise ValueError("markers must not contain each other")
        for name, text in (("instruction", self.instruction), ("suffix", self.suffix)):
            if self.input_marker in text or self.response_marker in text:
                raise ValueError(f"{name} must not contain a marker")


def build_prompts(
    template: PromptTemplate, instance: TabularInstance, membership: np.ndarray
) -> list[str]:
    """The prompt of each row of an N x M bool ``membership``.

    Row i keeps the fields whose entry is true, in instance order, joined as
    the space-delimited ``k1:v1 k2:v2 ...`` string inside the template.
    Absent features leave no residue: no double spaces, no dangling
    separators.

    Raises:
        SerializationError: a row keeps no field.
        ValueError: ``membership`` is not M columns wide.
    """
    serialized = [f.serialized for f in instance.fields]
    if membership.ndim != 2 or membership.shape[1] != len(serialized):
        raise ValueError(f"membership of shape {membership.shape} does not fit M={len(serialized)}")
    head = f"{template.instruction}\n\n{template.input_marker}\n"
    tail = f"\n\n{template.response_marker}{template.suffix}"
    prompts = []
    for row in membership.tolist():
        if not any(row):
            raise SerializationError("cannot serialize an empty coalition")
        prompts.append(head + " ".join(compress(serialized, row)) + tail)
    return prompts


def load_schema(path: str | Path) -> dict[str, str]:
    """Load a column-kind schema: JSON mapping column name -> numeric|categorical|label."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read schema {path}: {exc}") from exc
    try:
        schema = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"schema {path} is not valid JSON: {exc}") from exc
    if not isinstance(schema, dict) or not schema:
        raise DatasetError(f"schema {path} must be a non-empty JSON object")
    bad = {c: k for c, k in schema.items() if k not in COLUMN_KINDS}
    if bad:
        raise DatasetError(f"schema {path} has unknown kinds: {bad}")
    labels = [c for c, k in schema.items() if k == LABEL]
    if len(labels) > 1:
        raise DatasetError(f"schema {path} declares multiple label columns: {labels}")
    return dict(schema)


class TabularDataset(Sequence[TabularInstance]):
    """The data rows of a CSV that :func:`load_dataset` has validated.

    Indexing row ``i`` (negative indices count from the end) builds its
    :class:`TabularInstance`, with its :class:`FeatureField` checks, each
    time it is read; out-of-range indices raise :class:`IndexError`.
    """

    def __init__(
        self,
        rows: list[list[str]],
        features: list[tuple[str, str, str, int]],
        label_position: int | None,
    ):
        self._rows = rows
        self._features = features  # (column, key, kind, position) in CSV order
        self._label_position = label_position

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> TabularInstance:
        index = range(len(self))[index]
        row = self._rows[index]
        fields = []
        for column, key, kind, position in self._features:
            raw = row[position]
            value = normalize_value(raw, kind, column=column) if raw.strip() else MISSING_VALUE
            fields.append(FeatureField(key=key, value=value, raw_value=raw))
        label = None
        if self._label_position is not None:
            raw_label = row[self._label_position]
            if raw_label.strip():
                label = normalize_value(raw_label, CATEGORICAL)
        return TabularInstance(index=index, fields=tuple(fields), label=label)


def load_dataset(path: str | Path, schema: Mapping[str, str]) -> TabularDataset:
    """Load and validate a header-rowed CSV in one pass.

    Every check runs on the whole file here, whichever rows are read later;
    a row's instance is built when it is read (see :class:`TabularDataset`).
    Field order is the CSV column order (never sorted); instance index equals
    data-row position. Cells empty after trimming become ``unknown``.

    Raises:
        DatasetError: unreadable file, header/schema mismatch, duplicate
            normalized keys, row arity mismatch or an unparseable numeric
            cell (reported with row number), in file order.
        ValueError: the schema has no feature column and the file has a row.
    """
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
        features = [
            (column, key, schema[column], header.index(column))
            for column, key in zip(feature_columns, keys)
        ]
        # Only a numeric cell can fail once it is non-empty.
        numeric = [(column, position) for column, _, kind, position in features if kind == NUMERIC]

        rows = []
        for row in reader:
            if len(row) != len(header):
                _check_numeric_cells(path, rows, numeric)
                raise DatasetError(
                    f"{path}: row {len(rows) + 2} has {len(row)} cells, expected {len(header)}"
                )
            if not features:  # TabularInstance refuses a row with no field
                raise ValueError("an instance needs at least one field")
            rows.append(row)
    _check_numeric_cells(path, rows, numeric)
    label_position = None if label_column is None else header.index(label_column)
    return TabularDataset(rows, features, label_position)


def _check_numeric_cells(
    path: str | Path, rows: list[list[str]], numeric: list[tuple[str, int]]
) -> None:
    """Raise the first bad numeric cell of ``rows``, in file order.

    A cell that ``float`` reads as a finite number normalizes and an empty
    cell is missing, so each column's other cells are first parsed whole in
    one ``map``. Only a column with some other cell (blank but not empty,
    padded with what ``str.strip`` drops but ``float`` refuses, such as
    U+001C, or not a finite number) checks those cells one by one, by
    :func:`normalize_value`.
    """
    suspects = []
    for order, (column, position) in enumerate(numeric):
        cells = [row[position] for row in rows]
        try:
            if np.isfinite(np.fromiter(map(float, filter(None, cells)), float)).all():
                continue
        except ValueError:
            pass
        suspects += [(r, order) for r, raw in enumerate(cells) if not _finite_number(raw)]
    for r, order in sorted(suspects):
        column, position = numeric[order]
        raw = rows[r][position]
        if raw.strip():
            try:
                normalize_value(raw, NUMERIC, column=column)
            except NormalizationError as exc:
                raise DatasetError(f"{path}: row {r + 2}: {exc}") from exc


def _finite_number(raw: str) -> bool:
    try:
        return math.isfinite(float(raw))
    except ValueError:
        return False


def load_template(path: str | Path) -> PromptTemplate:
    """Load a prompt template.

    ``.json`` files may set any of ``instruction``, ``input_marker``,
    ``response_marker``, ``suffix``; any other file supplies the instruction
    text verbatim (UTF-8, trailing newline stripped) with default markers.
    """
    if str(path).endswith(".json"):
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise DatasetError(f"template {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DatasetError(f"template {path} must be a JSON object")
        allowed = {"instruction", "input_marker", "response_marker", "suffix"}
        unknown = set(data) - allowed
        if unknown:
            raise DatasetError(f"template {path} has unknown keys: {sorted(unknown)}")
        return PromptTemplate(**data)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"template {path} is not UTF-8 text: {exc}") from exc
    return PromptTemplate(instruction=text.rstrip("\n"))
