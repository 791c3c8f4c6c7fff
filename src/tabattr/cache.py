"""The instance-index manifest and the evaluation store of an output directory.

Ablation runs must score the SAME instances: the first run records its
selected indices in a manifest, and every later run (any metric) is rejected
loudly if it asks for a different index set.

All runs in a directory share one store of :class:`Evaluation` lines. Line 1
is a header, ``{"fingerprint": ..., "backend": ...}``. The fingerprint hashes
everything that changes prompts or their answers, and the store's line
format. ``backend`` is the identity of the backend that filled the store
(:attr:`~tabattr.backends.Backend.identity`):

* for http, ``http:`` and the URL actually used, after ``TABATTR_ENDPOINT``
  replaced it; a run recording with ``--record`` has the identity of the URL
  it records;
* for a replay, ``replay:`` and the sha256 of the recording's bytes, so a
  replay fills no store a live run made, and a recording that has grown
  since is another identity;
* for the synthetic oracle, ``synthetic:`` and the sha256 of its spec's
  payload.

A URL does not identify the model behind it: a model swapped behind the
same URL keeps the identity, and its answers mix with the old model's.

A mismatch of either is an explicit :class:`StaleCacheError`, never a silent
recompute; ``compare`` opens no backend and checks the fingerprint alone. So
is a stored instance over other feature keys, or other values, than the
dataset's row of that index: each line carries the digest of its instance's
content (:func:`content_digest`). The metric is not part of the header:
it only scores an evaluation after the backend has answered, so one store
serves every metric. Each instance's line is appended and flushed as soon as
it is evaluated, so a killed run keeps every instance it finished. A last
line torn by a kill mid-append is dropped on open; damage anywhere else is a
:class:`CorruptCacheError` with its byte offset.

Each evaluation line is one JSON object over N coalitions of M features and
C classes. Its arrays are raw bytes in standard base64 (``+/``, padded)::

    instance_index   int
    content          str, the instance's content_digest
    feature_keys     [str] * M
    membership       base64, N x ceil(M/8) bytes: each row's bits packed
                     little-bit-order (bit j of the row is feature j)
    class_dists      base64, N x C little-endian float64, row-major
    degenerate       [int], the zero-mass rows' positions, strictly increasing
    full_dist        base64, C little-endian float64
    full_degenerate  bool

so an array reads back, bit for bit, as::

    full_dist = np.frombuffer(base64.b64decode(entry["full_dist"]), "<f8")
    class_dists = np.frombuffer(base64.b64decode(entry["class_dists"]), "<f8").reshape(-1, C)
    membership = np.unpackbits(
        np.frombuffer(base64.b64decode(entry["membership"]), np.uint8).reshape(N, -1),
        axis=1, count=M, bitorder="little").view(bool)
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._json_io import atomic_write_json, dump_canonical
from .attribution import Evaluation, SamplingConfig
from .errors import (
    CacheError,
    CorruptCacheError,
    IndexSetError,
    MalformedManifestError,
    StaleCacheError,
)
from .tabular import PromptTemplate, TabularInstance
from .verbalizer import VerbalizerMap

STORE_NAME = "evaluations.jsonl"
MANIFEST_NAME = "index_manifest.json"
#: Names the line format of :func:`_encode`; the fingerprint covers it, so a
#: store written in another format is stale.
STORE_FORMAT = "base64-float64le+content-sha256"


def content_digest(instance: TabularInstance) -> str:
    """sha256 of the instance's ``key:value`` fields, space-joined in field
    order as the full prompt holds them."""
    serialized = " ".join(f.serialized for f in instance.fields)
    return hashlib.sha256(serialized.encode("utf-8")).hexdigest()


def config_fingerprint(
    config: SamplingConfig, template: PromptTemplate, vmap: VerbalizerMap
) -> str:
    """Hash of everything that changes prompts or their answers, and of
    :data:`STORE_FORMAT`, the format the store's lines are written in."""
    payload = {
        "store_format": STORE_FORMAT,
        "sampling": config.to_payload(),
        "template": {
            "instruction": template.instruction,
            "input_marker": template.input_marker,
            "response_marker": template.response_marker,
            "suffix": template.suffix,
        },
        "verbalizer": {
            "classes": list(vmap.classes),
            "surface_sets": vmap.to_payload(),
        },
    }
    return hashlib.sha256(dump_canonical(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheManifest:
    """The instance subset shared by every metric's run, plus the seed that chose it."""

    selected_test_indices: tuple[int, ...]
    selection_seed: int | None = None

    @classmethod
    def load(cls, path: str | Path) -> "CacheManifest":
        """Raises :class:`MalformedManifestError` for a file that parses but
        holds no non-empty ``selected_test_indices`` list of integers."""
        data = _read_json(Path(path))
        indices = data.get("selected_test_indices") if isinstance(data, dict) else None
        if not isinstance(indices, list) or not indices or any(type(i) is not int for i in indices):
            raise MalformedManifestError(
                f"{path}: not an index manifest: needs non-empty integer selected_test_indices"
            )
        return cls(selected_test_indices=tuple(indices), selection_seed=data.get("selection_seed"))

    def save(self, path: str | Path) -> None:
        atomic_write_json(
            Path(path),
            {
                "selected_test_indices": list(self.selected_test_indices),
                "selection_seed": self.selection_seed,
            },
        )


def ensure_manifest(
    path: str | Path,
    indices: Sequence[int],
    selection_seed: int | None = None,
) -> CacheManifest:
    """Record the index selection on first use; afterwards enforce it exactly.

    Raises:
        IndexSetError: a later run requests indices diverging from the
            recorded ``selected_test_indices``.
    """
    path = Path(path)
    if path.exists():
        manifest = CacheManifest.load(path)
        recorded, requested = set(manifest.selected_test_indices), set(indices)
        if recorded != requested:
            raise IndexSetError(
                f"{path}: requested indices diverge from the recorded selection: "
                f"missing={sorted(recorded - requested)} extra={sorted(requested - recorded)}"
            )
        return manifest
    manifest = CacheManifest(
        selected_test_indices=tuple(int(i) for i in indices),
        selection_seed=selection_seed,
    )
    manifest.save(path)
    return manifest


def _read_json(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CacheError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptCacheError(str(path), exc.pos, exc.msg) from exc


def _encode(evaluation: Evaluation, content: str) -> bytes:
    """One store line, in the format of the module docstring: the instance's
    ``content`` digest, each array's raw bytes in base64 (membership rows as
    little-bit-order packed bits, which hold any M; distributions as
    little-endian float64, so a read-back value is bit-identical) and the
    degenerate rows by position."""
    packed = np.packbits(evaluation.membership, axis=1, bitorder="little")
    entry = {
        "instance_index": evaluation.instance_index,
        "content": content,
        "feature_keys": list(evaluation.feature_keys),
        "membership": _b64(packed),
        "class_dists": _b64(evaluation.class_dists.astype("<f8", copy=False)),
        "degenerate": np.flatnonzero(evaluation.degenerate).tolist(),
        "full_dist": _b64(evaluation.full_dist.astype("<f8", copy=False)),
        "full_degenerate": evaluation.full_degenerate,
    }
    return json.dumps(entry, separators=(",", ":")).encode("ascii") + b"\n"


def _b64(array: np.ndarray) -> str:
    return base64.b64encode(array.tobytes()).decode("ascii")


def _unb64(text: str, dtype: str) -> np.ndarray:
    """The ``dtype`` array whose raw bytes base64 ``text`` holds; a character
    outside the base64 alphabet is refused, not skipped."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)


def _decode(entry: dict, config: SamplingConfig) -> Evaluation:
    keys = tuple(entry["feature_keys"])
    full_dist = _unb64(entry["full_dist"], "<f8").astype(float, copy=False)
    class_dists = _unb64(entry["class_dists"], "<f8").astype(float, copy=False)
    c = full_dist.size
    if c < 1:
        raise ValueError("full_dist holds no class")
    n, rest = divmod(class_dists.size, c)
    if rest:
        raise ValueError(f"class_dists of {class_dists.size} values is not rows of {c}")
    width = -(-len(keys) // 8)
    packed = _unb64(entry["membership"], "u1")
    if packed.size != n * width:
        raise ValueError(f"membership of {packed.size} bytes, expected {n} rows of {width}")
    membership = np.unpackbits(
        packed.reshape(n, width), axis=1, count=len(keys), bitorder="little"
    ).view(bool)
    positions = entry["degenerate"]
    if not (
        isinstance(positions, list)
        and all(type(p) is int and 0 <= p < n for p in positions)
        and positions == sorted(set(positions))
    ):
        raise ValueError(f"degenerate positions {positions!r} are not increasing in [0, {n})")
    degenerate = np.zeros(n, dtype=bool)
    degenerate[positions] = True
    return Evaluation(
        instance_index=int(entry["instance_index"]),
        feature_keys=keys,
        config=config,
        membership=membership,
        class_dists=class_dists.reshape(n, c),
        degenerate=degenerate,
        full_dist=full_dist,
        full_degenerate=bool(entry["full_degenerate"]),
    )


def _read_store(
    path: Path, fingerprint: str, identity: str | None, config: SamplingConfig
) -> dict[int, tuple[Evaluation, str]]:
    """The store's evaluations and their content digests by instance index,
    after dropping a torn last line. ``identity`` ``None`` leaves the header's
    backend unchecked."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise CacheError(f"cannot read {path}: {exc}") from exc
    kept = data[: data.rfind(b"\n") + 1]
    if len(kept) < len(data):
        with open(path, "r+b") as handle:
            handle.truncate(len(kept))
    try:
        text = kept.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptCacheError(str(path), exc.start, "non-ASCII byte") from exc

    stored: dict[int, tuple[Evaluation, str]] = {}
    offset = 0
    for number, line in enumerate(text.split("\n")[:-1]):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptCacheError(str(path), offset + exc.pos, exc.msg) from exc
        if number == 0:
            header = entry if isinstance(entry, dict) else {}
            found = header.get("fingerprint")
            if found != fingerprint:
                raise StaleCacheError(
                    f"{path}: store fingerprint {found!r} does not match the current "
                    f"configuration {fingerprint!r}; refusing to reuse or silently recompute"
                )
            found = header.get("backend")
            if identity is not None and found != identity:
                raise StaleCacheError(
                    f"{path}: store was filled through backend {found!r}, but this run "
                    f"uses {identity!r}; refusing to reuse or silently recompute"
                )
        else:
            try:
                evaluation = _decode(entry, config)
                content = entry["content"]
                if not isinstance(content, str):
                    raise TypeError(f"content {content!r} is not a digest string")
            except (LookupError, TypeError, ValueError) as exc:
                raise CorruptCacheError(str(path), offset, f"not an evaluation: {exc!r}") from exc
            stored[evaluation.instance_index] = evaluation, content
        offset += len(line) + 1
    return stored


def read_evaluations(
    path: str | Path,
    instances: Sequence[TabularInstance],
    config: SamplingConfig,
    fingerprint: str,
    identity: str | None = None,
) -> dict[int, Evaluation]:
    """The evaluations the store at ``path`` holds of ``instances``, by index.

    They are read back under ``config``, which ``fingerprint`` must describe,
    and must come from the backend named ``identity``; ``None`` leaves the
    backend unchecked, for a command that opens none. ``instances`` is the
    whole selection of the output directory (see :func:`ensure_manifest`),
    so a stored instance outside it is refused.

    Raises:
        StaleCacheError: the store was written under another fingerprint or
            backend, or a stored instance has other feature keys or values
            than its instance in ``instances``.
        CorruptCacheError: damage before the store's last line.
        CacheError: the store holds instances outside the selection.
    """
    path = Path(path)
    stored = _read_store(path, fingerprint, identity, config)
    by_index = {instance.index: instance for instance in instances}
    stray = sorted(set(stored) - set(by_index))
    if stray:
        raise CacheError(f"{path}: entries outside selected_test_indices: {stray}")
    for index, (evaluation, content) in stored.items():
        instance = by_index[index]
        if evaluation.feature_keys != instance.keys:
            raise StaleCacheError(
                f"{path}: instance {index} was evaluated over features "
                f"{list(evaluation.feature_keys)}, but the dataset has {list(instance.keys)}; "
                f"refusing to reuse it"
            )
        if content != content_digest(instance):
            raise StaleCacheError(
                f"{path}: instance {index} was evaluated over other values than the "
                f"dataset's row {index} holds now; refusing to reuse it"
            )
    return {index: evaluation for index, (evaluation, _) in stored.items()}


def load_or_evaluate(
    path: str | Path,
    instances: Sequence[TabularInstance],
    evaluate_fn: Callable[[TabularInstance], Evaluation],
    config: SamplingConfig,
    fingerprint: str,
    identity: str | None = None,
) -> list[Evaluation]:
    """Return evaluations of ``instances`` from the store at ``path``,
    evaluating only the missing ones.

    The stored ones are checked as :func:`read_evaluations` checks them; each
    missing one comes from ``evaluate_fn`` and is appended at once, so an
    error or a kill keeps every instance finished before it. A new store's
    header records ``fingerprint`` and ``identity``.

    Raises:
        StaleCacheError, CorruptCacheError, CacheError: as
            :func:`read_evaluations` raises them.
        ValueError: empty ``instances``, or two of the same index.
    """
    indices = [instance.index for instance in instances]
    if not indices:
        raise ValueError("instances must be non-empty")
    if len(set(indices)) != len(indices):
        raise ValueError("instances repeat an index")

    path = Path(path)
    stored = read_evaluations(path, instances, config, fingerprint, identity)
    for instance in instances:
        if instance.index in stored:
            continue
        evaluation = evaluate_fn(instance)
        if evaluation.instance_index != instance.index:
            raise ValueError(
                f"evaluate_fn returned instance {evaluation.instance_index} "
                f"for index {instance.index}"
            )
        with open(path, "ab") as handle:
            if handle.tell() == 0:
                header = {"fingerprint": fingerprint, "backend": identity}
                handle.write(json.dumps(header).encode("ascii") + b"\n")
            handle.write(_encode(evaluation, content_digest(instance)))
        stored[instance.index] = evaluation
    return [stored[index] for index in indices]
