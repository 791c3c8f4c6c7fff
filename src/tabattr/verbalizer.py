"""Class aggregation of top-K token probabilities.

A verbalizer maps each class label to the set of token surface forms that
count as that class. An answer is a
:class:`~tabattr.backends.TopKDistribution`, checked when it was built; its
``tokens`` and ``logprobs`` are read side by side.

:func:`class_masses` verbalizes all the answers of an instance in one pass,
one lookup per distinct token and one ``exp`` over the matched logprobs,
into raw class masses: sums of ``exp(logprob)`` over matching top-K entries.
The evaluation store keeps these. When a run is scored,
:func:`normalize_masses` turns them into the class distributions the
attribution divergences compare; a row with zero total mass becomes uniform,
flagged degenerate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .backends import TopKDistribution
from .errors import ConfigError


def canonicalize_token(token: str) -> str:
    """Strip surrounding whitespace and lowercase; no stemming, no reassembly."""
    return token.strip().lower()


@dataclass(frozen=True)
class VerbalizerMap:
    """Ordered class labels plus their (canonicalized, disjoint) surface sets."""

    classes: tuple[str, ...]
    surface_sets: Mapping[str, frozenset[str]]

    def __post_init__(self):
        if not self.classes:
            raise ConfigError("verbalizer needs at least one class")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigError("duplicate class labels in verbalizer")
        if set(self.surface_sets) != set(self.classes):
            raise ConfigError("surface_sets must cover exactly the class labels")
        seen: dict[str, str] = {}
        for label in self.classes:
            forms = self.surface_sets[label]
            if not forms:
                raise ConfigError(f"class {label!r} has an empty surface set")
            for form in forms:
                if form != canonicalize_token(form):
                    raise ConfigError(f"surface form {form!r} is not canonical")
                if form in seen:
                    raise ConfigError(
                        f"surface form {form!r} claimed by both {seen[form]!r} and {label!r}"
                    )
                seen[form] = label

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[str]]) -> "VerbalizerMap":
        """Build from ``{class: [surface forms...]}``, canonicalizing each form.

        A class whose forms are not a list of strings, a bare string
        included, is a :class:`ConfigError` naming the class."""
        surface_sets = {}
        for label, forms in mapping.items():
            if not (isinstance(forms, (list, tuple)) and all(isinstance(f, str) for f in forms)):
                raise ConfigError(
                    f"class {label!r} needs a list of surface-form strings, got {forms!r}"
                )
            surface_sets[label] = frozenset(canonicalize_token(f) for f in forms)
        return cls(classes=tuple(mapping), surface_sets=surface_sets)

    @classmethod
    def from_json(cls, path: str | Path) -> "VerbalizerMap":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load verbalizer {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"verbalizer {path} must be a JSON object")
        return cls.from_mapping(data)

    def class_of(self, token: str) -> str | None:
        canon = canonicalize_token(token)
        for label in self.classes:
            if canon in self.surface_sets[label]:
                return label
        return None

    def to_payload(self) -> dict:
        return {label: sorted(self.surface_sets[label]) for label in self.classes}


def class_masses(topks: Sequence[TopKDistribution], vmap: VerbalizerMap) -> np.ndarray:
    """Raw class masses (N x C) of N top-K answers.

    Each distinct token is canonicalized and looked up once. A row's masses
    are exp(logprob) of its matching entries, added in entry order.
    """
    column = {label: i for i, label in enumerate(vmap.classes)}
    lookup: dict[str, int] = {}
    rows, cols, logprobs = [], [], []
    for row, topk in enumerate(topks):
        for token, logprob in zip(topk.tokens, topk.logprobs):
            col = lookup.get(token)
            if col is None:
                col = lookup[token] = column.get(vmap.class_of(token), -1)
            if col >= 0:
                rows.append(row)
                cols.append(col)
                logprobs.append(logprob)
    raw = np.zeros((len(topks), len(vmap.classes)))
    masses = np.exp(np.array(logprobs, dtype=float))
    np.add.at(raw, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)), masses)
    return raw


def normalize_masses(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class distributions (N x C) and zero-mass flags (N) of raw class masses.

    Each row is divided by its total; a row with zero total mass becomes
    uniform and is flagged.
    """
    totals = masses.sum(axis=1)
    degenerate = ~(totals > 0)
    probs = np.full(masses.shape, 1.0 / masses.shape[1])
    probs[~degenerate] = masses[~degenerate] / totals[~degenerate, None]
    return probs, degenerate
