"""Sequential-deletion faithfulness curves.

Features are removed from the prompt in ranked order, most important first,
and the probability mass the (re-normalized) class distribution keeps on the
ORIGINALLY predicted class is tracked per step. A ranking is more faithful
when its curve drops faster, i.e. has a lower area under the curve.

Step t removes the top-t ranked fields; step 0 is the unperturbed prompt, so
every ranking source shares identical step-0 values per instance. The step
axis is reported both as an absolute count and as a fraction of the mean
feature count over evaluated instances.

A deletion row is a coalition, so an instance's stored :class:`Evaluation`
may already hold its answer: the full row always, every leave-one-out row,
and any row that was sampled. Those rows are taken from the store, and only
the rest are sent to the backend. A stored distribution reads back bit for
bit, so the curves are the same bytes either way.

A removal order is a tuple of feature keys, most important first; an
external ranking file holds one for all instances, ``{"global": [keys]}``,
or one per instance, ``{"per_instance": {"<index>": [keys]}}``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ._json_io import dump_canonical
from .attribution import Evaluation, row_keys
from .backends import Backend, evaluate_prompts
from .errors import BackendError, RankingError
from .tabular import PromptTemplate, TabularInstance, build_prompts
from .verbalizer import VerbalizerMap, class_distributions

RANKING_SOURCES = ("jsd", "kl", "l1", "external", "random")


class PredictedClass(NamedTuple):
    index: int
    tie: bool


def predicted_class(full_dist) -> PredictedClass:
    """Argmax class; exact ties go to the lowest class index and are flagged."""
    dist = np.asarray(full_dist, dtype=float)
    if dist.ndim != 1 or dist.size == 0:
        raise ValueError("distribution must be a non-empty vector")
    top = int(np.argmax(dist))
    tie = int(np.sum(dist == dist[top])) > 1
    return PredictedClass(top, tie)


def random_order(instance: TabularInstance, seed: int) -> tuple[str, ...]:
    """Uniform random permutation of the instance's keys, seed-reproducible."""
    rng = np.random.default_rng(seed)
    return tuple(instance.keys[i] for i in rng.permutation(instance.num_features))


def load_external_ranking(
    path: str | Path, valid_keys: Sequence[str]
) -> tuple[str, ...] | dict[int, tuple[str, ...]]:
    """Load a ranking file: ``{"global": [keys]}``, one order for every
    instance, returned as a tuple; or ``{"per_instance": {index: [keys]}}``,
    returned as a dict from instance index to tuple.

    Raises:
        RankingError: the file is unreadable or of another shape, or a ranking
            is empty, repeats a key or names one not in ``valid_keys``.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise RankingError(f"cannot load external ranking {path}: {exc}") from exc
    known = set(valid_keys)

    def _check(keys, where: str) -> tuple[str, ...]:
        if not isinstance(keys, list):
            raise RankingError(f"{path}: ranking for {where} must be a list of keys, got {keys!r}")
        keys = tuple(str(k) for k in keys)
        if not keys:
            raise RankingError(f"{path}: empty ranking for {where}")
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        if repeated:
            raise RankingError(f"{path}: repeated keys in ranking for {where}: {repeated}")
        unknown = [k for k in keys if k not in known]
        if unknown:
            raise RankingError(f"{path}: unknown feature keys for {where}: {unknown}")
        return keys

    if isinstance(data, dict) and "global" in data:
        return _check(data["global"], "global")
    if isinstance(data, dict) and "per_instance" in data:
        per_instance = data["per_instance"]
        if not isinstance(per_instance, dict):
            raise RankingError(f"{path}: per_instance must map instance indices to rankings")
        if not per_instance:
            raise RankingError(f"{path}: per_instance ranking is empty")
        bad = [index for index in per_instance if not index.isdecimal()]
        if bad:
            raise RankingError(f"{path}: per_instance keys are not instance indices: {bad}")
        return {int(i): _check(keys, f"instance {i}") for i, keys in per_instance.items()}
    raise RankingError(f"{path}: expected a 'global' or 'per_instance' ranking object")


@dataclass(frozen=True)
class DeletionCurve:
    """Mean predicted-class probability per deletion step, for one source."""

    source: str
    steps: tuple[int, ...]
    fractions: tuple[float, ...]
    mean_probs: tuple[float, ...]
    counts: tuple[int, ...]
    traces: Mapping[int, tuple[float, ...]]
    n_instances: int

    def to_payload(self) -> dict:
        return {
            "source": self.source,
            "steps": list(self.steps),
            "fractions": list(self.fractions),
            "mean_probs": list(self.mean_probs),
            "counts": list(self.counts),
            "n_instances": self.n_instances,
            "traces": {str(i): list(t) for i, t in sorted(self.traces.items())},
        }


@dataclass(frozen=True)
class DeletionRun:
    """All curves of one run plus the symmetric-drop bookkeeping, and the
    distinct rows it took from stored evaluations and the prompts it sent."""

    curves: Mapping[str, DeletionCurve]
    dropped: tuple[int, ...]
    mean_features: float
    tie_count: int
    stored_rows: int
    queried_prompts: int


def curve_auc(curve: DeletionCurve) -> float:
    """Trapezoidal area under mean probability vs. fraction removed.

    Lower is better: a faithful ordering destroys the predicted-class mass
    early.
    """
    if len(curve.steps) < 2:
        raise ValueError("a curve needs at least 2 steps for an area")
    return float(np.trapezoid(curve.mean_probs, curve.fractions))


def run_deletion(
    instances: Sequence[TabularInstance],
    rankings: Mapping[str, Mapping[int, Sequence[str]]],
    backend: Backend,
    template: PromptTemplate,
    vmap: VerbalizerMap,
    max_removals: int = 10,
    top_k: int = 10,
    workers: int = 1,
    stored: Iterable[Evaluation] = (),
) -> DeletionRun:
    """Run the deletion protocol for every source over the same instances.

    ``rankings[source][index]`` is the removal order of instance ``index``;
    every order is checked before any prompt is sent.

    Per instance: the full prompt fixes the predicted class; then for
    t = 1..min(max_removals, M - 1) the top-t ranked features are omitted
    and the new distribution's mass on that original class is recorded.
    The final feature is never deleted (prompts never go empty).

    ``stored`` holds evaluations of some of the instances, made with the
    same template, verbalizer and ``top_k``. A distinct deletion row is
    taken from its instance's evaluation when that holds it, found by its
    packed bytes (the full row is ``full_dist``). The other distinct rows of
    an instance, for every source, are built in one
    :func:`~tabattr.tabular.build_prompts` pass, sent in one
    :func:`~tabattr.backends.evaluate_prompts` call and verbalized in one
    :func:`~tabattr.verbalizer.class_distributions` pass. The curves do not
    depend on which rows were stored.

    An instance whose backend calls fail is dropped from ALL sources
    symmetrically and counted in the run metadata.

    Raises:
        RankingError: an order is missing or empty, repeats a key or names
            a key its instance lacks.
        ValueError: ``max_removals`` < 1, no instances, or a stored
            evaluation over other feature keys or another ``top_k`` than
            its instance's run.
    """
    if max_removals < 1:
        raise ValueError("max_removals must be >= 1")
    if not instances:
        raise ValueError("no instances to evaluate")
    for source, per_instance in rankings.items():
        for instance in instances:
            order, named = per_instance.get(instance.index), f"source {source!r}"
            if not order:
                raise RankingError(f"{named} has no ranking for instance {instance.index}")
            if len(set(order)) != len(order):
                raise RankingError(f"{named} repeats keys for instance {instance.index}: "
                                   f"{list(order)}")
            unknown = [k for k in order if k not in instance.keys]
            if unknown:
                raise RankingError(f"{named} names keys absent from instance {instance.index}: "
                                   f"{unknown}")
    evaluations = {evaluation.instance_index: evaluation for evaluation in stored}
    for instance in instances:
        evaluation = evaluations.get(instance.index)
        if evaluation is not None and (
            evaluation.feature_keys != instance.keys or evaluation.config.top_k != top_k
        ):
            raise ValueError(
                f"stored evaluation of instance {instance.index} is over features "
                f"{list(evaluation.feature_keys)} at top_k={evaluation.config.top_k}; the run "
                f"needs {list(instance.keys)} at top_k={top_k}"
            )

    # traces[source][index] -> [p0, p1, ...]; built per instance so a failure
    # can drop the instance everywhere before anything is recorded.
    traces: dict[str, dict[int, tuple[float, ...]]] = {s: {} for s in rankings}
    dropped: list[int] = []
    tie_count = stored_rows = queried_prompts = 0

    for instance in instances:
        m = instance.num_features
        column = {key: j for j, key in enumerate(instance.keys)}
        # One membership row per deletion step: the full row first, then per
        # source row t - 1 drops the source's top-t keys.
        blocks = [np.ones((1, m), dtype=bool)]
        for source, per_instance in rankings.items():
            order_keys = per_instance[instance.index]
            t_max = min(max_removals, m - 1, len(order_keys))
            block = np.ones((t_max, m), dtype=bool)
            block[:, [column[k] for k in order_keys[:t_max]]] = ~np.tri(t_max, dtype=bool)
            blocks.append(block)
        rows = np.vstack(blocks)
        keys = row_keys(rows)
        first: dict[bytes, int] = {}  # each distinct row's first position
        for i, key in enumerate(keys):
            first.setdefault(key, i)

        dists = _stored_dists(evaluations.get(instance.index), first, keys[0])
        missing = [key for key in first if key not in dists]
        stored_rows += len(dists)
        queried_prompts += len(missing)
        if missing:
            prompts = build_prompts(template, instance, rows[[first[key] for key in missing]])
            try:
                responses = evaluate_prompts(backend, prompts, top_k, workers=workers)
            except BackendError:
                dropped.append(instance.index)
                continue
            fresh, _ = class_distributions([responses[prompt] for prompt in prompts], vmap)
            dists.update(zip(missing, fresh))

        target = predicted_class(dists[keys[0]])
        tie_count += int(target.tie)
        mass = [float(dists[key][target.index]) for key in keys]
        start = 1
        for source, block in zip(rankings, blocks[1:]):
            traces[source][instance.index] = (mass[0], *mass[start : start + len(block)])
            start += len(block)

    kept = [i for i in instances if i.index not in set(dropped)]
    if not kept:
        raise BackendError(f"all {len(instances)} instances failed; no curves to report")
    mean_features = float(np.mean([i.num_features for i in kept]))

    curves = {}
    for source, per_instance_traces in traces.items():
        longest = max(len(t) for t in per_instance_traces.values())
        steps = tuple(range(longest))
        mean_probs = []
        counts = []
        for t in steps:
            at_t = [trace[t] for trace in per_instance_traces.values() if len(trace) > t]
            counts.append(len(at_t))
            mean_probs.append(float(np.mean(at_t)))
        curves[source] = DeletionCurve(
            source=source,
            steps=steps,
            fractions=tuple(t / mean_features for t in steps),
            mean_probs=tuple(mean_probs),
            counts=tuple(counts),
            traces=dict(sorted(per_instance_traces.items())),
            n_instances=len(kept),
        )
    return DeletionRun(
        curves=curves,
        dropped=tuple(dropped),
        mean_features=mean_features,
        tie_count=tie_count,
        stored_rows=stored_rows,
        queried_prompts=queried_prompts,
    )


def _stored_dists(
    evaluation: Evaluation | None, wanted: Mapping[bytes, int], full: bytes
) -> dict[bytes, np.ndarray]:
    """The class distribution of each ``wanted`` row key that ``evaluation``
    holds: the ``full`` row's is its ``full_dist``, a coalition's its row of
    ``class_dists``."""
    if evaluation is None:
        return {}
    dists = {full: evaluation.full_dist}
    for i, key in enumerate(row_keys(evaluation.membership)):
        if key in wanted:
            dists.setdefault(key, evaluation.class_dists[i])
    return dists


def write_curves_csv(run: DeletionRun, path: str | Path) -> None:
    """One row per (source, step): source, step, fraction_removed, mean_prob, n_instances."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["source", "step", "fraction_removed", "mean_prob", "n_instances"])
        for source, curve in run.curves.items():
            rows = zip(curve.steps, curve.fractions, curve.mean_probs, curve.counts)
            writer.writerows([source, t, repr(frac), repr(prob), n] for t, frac, prob, n in rows)


def write_curves_json(run: DeletionRun, path: str | Path) -> None:
    """Full run dump including per-instance traces and the drop bookkeeping."""
    payload = {
        "mean_features": run.mean_features,
        "dropped_instances": list(run.dropped),
        "tie_count": run.tie_count,
        "curves": {source: curve.to_payload() for source, curve in run.curves.items()},
    }
    Path(path).write_text(dump_canonical(payload), encoding="utf-8")
