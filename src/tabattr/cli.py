"""Command-line front end.

Each option is declared once, as a :class:`RunSpec` field, and each
subcommand once, with its handler and help, in ``_SUBCOMMANDS``. A field's
name is its config-file key, its ``run_manifest.json`` key and the ``dest``
of its flag ``--<name with dashes>`` (``max_coalitions``,
``--max-coalitions``), which parses an ``int`` or ``float`` field as one and
any other as a string; the field's metadata holds the flag's help and the
subcommands that take it. Flag values override config-file values, which
override defaults; an unknown key or a wrongly typed value is an error
(exit 2). The effective spec is echoed into ``run_manifest.json`` in the
output directory so every run is reproducible from its artifacts.

``--backend`` takes ``http:URL`` or a bare ``http(s)://`` URL, ``replay:FILE``
(a recording, read-only) or ``synthetic:FILE`` (an oracle spec, whose classes
also serve as the verbalizer when ``--verbalizer`` is not given). The
environment variable ``TABATTR_ENDPOINT`` replaces the URL of an http backend
and leaves other kinds alone. Every command but ``serialize`` loads and checks
all its inputs, the backend last, before it makes the output directory, so a
refused input leaves no ``--out`` behind. ``attribute``, ``deletion-curve``
and ``synth-demo`` open the backend; ``compare`` scores the store alone.
``--workers`` bounds the backend requests in flight at once, and is the only
bound on them. Above 1, each slot is one thread, and a request waiting out a
backoff or ``Retry-After`` before its retry lends its slot to a new thread,
so another request goes out meanwhile; at 1, the requests go out in turn on
the main thread, and a retry's wait holds the one slot. The slots only
receive the answers; once a batch's last one is in, the main thread reads
them all in prompt order, so ``--record`` writes the same bytes at any
``--workers``, and a malformed answer is refused after the batch's other
requests.

``--external`` names a ranking file: ``{"global": [keys]}``, or, for
``deletion-curve`` only, ``{"per_instance": {"<index>": [keys]}}``.
``run_deletion`` checks every source's order for every instance first.

All commands in one output directory use the instances recorded in
``index_manifest.json``: explicit ``--indices`` must match that record (or
become it). Without them, ``attribute`` samples ``--instances`` rows with
``--seed`` and enforces that sample, ``deletion-curve`` reuses the record or
samples one, and ``compare`` reuses the record and fails without one.
Each command checks every row of ``--dataset`` before it starts, and builds
the instances of the selected rows only.

Every command reads and fills the same evaluation store,
``evaluations.jsonl``, once, and scores each metric it needs from it once:
after any ``attribute``, another metric costs no backend call. The store holds each
instance's coalitions and their class distributions as raw bytes (see
:mod:`tabattr.cache`). A store is refused (exit 1) when it was written in
another format or under another configuration, when a stored instance has
other feature keys or values than its dataset row, and, for a command that
opens a backend, when another backend filled it. ``results_{metric}.json``
holds only the scores (phi, raw_phi, the full-input distribution and the
degeneracy flags per instance), which scoring the stored evaluation
reproduces exactly.

Deletion curves take every row the store holds from it and send only the
rest. ``deletion-curve`` with a metric source needs the store and refuses a
stale one; with only ``random`` and ``external`` sources it uses the store
when it matches the run in all of the above, and otherwise sends every row,
as it does for an instance the store lacks. Its summary states the rows
taken from the store and the prompts sent, ``stored=`` and ``queried=``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .attribution import AttributionResult, Evaluation, SamplingConfig, evaluate, score
from .backends import Backend, SyntheticOracleSpec, open_backend, parse_backend
from ._json_io import dump_canonical
from .cache import (
    MANIFEST_NAME,
    STORE_NAME,
    CacheManifest,
    config_fingerprint,
    ensure_manifest,
    load_or_evaluate,
    read_evaluations,
)
from .divergence import METRICS
from .errors import CacheError, ConfigError, StaleCacheError, TabAttrError
from .faithfulness import (
    RANKING_SOURCES,
    DeletionRun,
    curve_auc,
    load_external_ranking,
    random_order,
    run_deletion,
    write_curves_csv,
    write_curves_json,
)
from .rank_compare import GlobalRanking, global_ranking, spearman_rho
from .tabular import (
    FeatureField,
    PromptTemplate,
    TabularInstance,
    build_prompts,
    load_dataset,
    load_schema,
    load_template,
)
from .verbalizer import VerbalizerMap

ENDPOINT_ENV = "TABATTR_ENDPOINT"


def _option(default, help=None, *, commands=None, input_file=False, choices=None):
    """A :class:`RunSpec` field with its flag's help, the subcommands that take
    it (all if ``None``), whether a set value must name a file, and choices."""
    metadata = {"help": help, "commands": commands, "input_file": input_file, "choices": choices}
    return dataclasses.field(default=default, metadata=metadata)


def _typed(key: str, hint, value):
    """``value`` checked against field ``key``'s type; tuples take a list or a comma string."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _typed(key, args[0], value)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, str):
            try:
                return tuple(args[0](v.strip()) for v in value.split(",") if v.strip())
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        if not isinstance(value, list):
            raise ConfigError(f"config key {key!r} must be a list or a comma string, got {value!r}")
        return tuple(_typed(key, args[0], v) for v in value)
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise ConfigError(f"config key {key!r} must be of type {hint.__name__}, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Effective options of one run; each field declares one option and its flag."""

    config: str | None = _option(
        None, "JSON config file; flags override its values", input_file=True
    )
    dataset: str | None = _option(None, "CSV file with a header row", input_file=True)
    schema: str | None = _option(None, "JSON column->kind schema", input_file=True)
    template: str | None = _option(None, "prompt template file (text or .json)", input_file=True)
    verbalizer: str | None = _option(None, "JSON class->surface-forms map", input_file=True)
    backend: str | None = _option(None, "backend spec: http:URL | replay:FILE | synthetic:FILE")
    metric: str = _option("jsd", choices=METRICS)
    ratio: float = _option(0.4, "coalition sampling ratio r in (0,1]")
    max_coalitions: int = _option(800)
    top_k: int = _option(10)
    seed: int = _option(0)
    instances: int = _option(50, "number of instances to sample")
    indices: tuple[int, ...] = _option((), "explicit comma-separated instance indices")
    workers: int = _option(
        1, "most backend requests in flight at once; above 1, one waiting to retry holds no slot"
    )
    max_removals: int = _option(10)
    record: str | None = _option(None, "record live http responses to this replay file")
    timeout: float = _option(30.0, "http timeout in seconds")
    retries: int = _option(2, "http retry count")
    out: str | None = _option(None, "output directory")
    sources: tuple[str, ...] = _option(
        ("jsd", "random"), f"comma list from {RANKING_SOURCES}", commands=("deletion-curve",)
    )
    external: str | None = _option(
        None, "external ranking JSON (global, or per_instance for deletion-curve)",
        commands=("deletion-curve", "compare"), input_file=True,
    )
    oracle: str | None = _option(
        None, "synthetic oracle spec JSON", commands=("synth-demo",), input_file=True
    )
    n_instances: int = _option(12, commands=("synth-demo",))
    index: int = _option(0, "dataset row to serialize (default 0)", commands=("serialize",))
    omit: tuple[str, ...] = _option(
        (), "comma-separated feature keys to leave out", commands=("serialize",)
    )

    @classmethod
    def resolve(cls, args: argparse.Namespace) -> "RunSpec":
        """Merge defaults < ``--config`` file < flags, rejecting unknown keys and
        wrongly typed values with :class:`ConfigError`."""
        values = {}
        if args.config:
            config_path = Path(args.config)
            if not config_path.is_file():
                raise ConfigError(f"config file not found: {config_path}")
            try:
                values = json.loads(config_path.read_text(encoding="utf-8"))
            except ValueError as exc:  # malformed JSON or text that is not UTF-8
                raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
            if not isinstance(values, dict):
                raise ConfigError(f"config file {config_path} must hold a JSON object")
        values.update((k, v) for k, v in vars(args).items() if k != "command" and v is not None)
        unknown = sorted(set(values) - set(_FIELD_TYPES))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        spec = cls(**{key: _typed(key, _FIELD_TYPES[key], value) for key, value in values.items()})
        for count in ("instances", "n_instances", "workers", "max_removals"):
            if getattr(spec, count) < 1:
                raise ConfigError(f"--{count.replace('_', '-')} must be >= 1")
        if spec.metric not in METRICS:
            raise ConfigError(f"unknown metric {spec.metric!r}; expected one of {METRICS}")
        if not spec.sources:
            raise ConfigError(f"--sources must name at least one of {RANKING_SOURCES}")
        for source in spec.sources:
            if source not in RANKING_SOURCES:
                raise ConfigError(f"unknown source {source!r}; expected one of {RANKING_SOURCES}")
        for field in dataclasses.fields(cls):
            value = getattr(spec, field.name)
            if field.metadata["input_file"] and value and not Path(value).is_file():
                raise ConfigError(f"--{field.name} file not found: {value}")
        spec.sampling()  # refuses a ratio, coalition cap or top-k out of range
        return spec

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) in (None, "")]
        if missing:
            raise ConfigError(f"missing required options: {', '.join('--' + n for n in missing)}")

    def sampling(self) -> SamplingConfig:
        return SamplingConfig(self.ratio, self.max_coalitions, self.seed, self.top_k)


_FIELD_TYPES = typing.get_type_hints(RunSpec)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from ``_SUBCOMMANDS``
    and the :class:`RunSpec` fields; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tabattr",
        description="Coalition-sampling feature attribution for prompt-served tabular classifiers",
    )
    parser.add_argument("--version", action="version", version=f"tabattr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for field in dataclasses.fields(RunSpec):
            option, kind = field.metadata, _FIELD_TYPES[field.name]
            if option["commands"] is None or command in option["commands"]:
                p.add_argument(
                    "--" + field.name.replace("_", "-"), help=option["help"],
                    type=kind if kind in (int, float) else None, choices=option["choices"],
                )
    return parser


@dataclasses.dataclass(frozen=True)
class Run:
    """What every writing subcommand opens first: its spec, output directory,
    prompt template, verbalizer, the selected instances, the external ranking
    (``None`` unless required) and the backend (``None`` for ``compare``)."""

    command: str
    spec: RunSpec
    out: Path
    template: PromptTemplate
    vmap: VerbalizerMap
    instances: list[TabularInstance]
    external: tuple[str, ...] | dict[int, tuple[str, ...]] | None
    backend: Backend | None

    @classmethod
    def open(cls, command: str, spec: RunSpec, *required: str) -> "Run":
        """Load and check the options, the template, the verbalizer (or the
        oracle's classes), the instances (selected dataset rows, or synth-demo's
        rows over the oracle's keys), the external ranking if ``required``, the
        evaluation store if the command only reads it (``compare``, and
        ``deletion-curve`` with a metric source) and last the backend, none for
        ``compare``; then make ``--out`` and record the selection."""
        spec.require(*required, "out")
        kind, target = parse_backend(spec.backend) if spec.backend else (None, None)
        if kind == "http":
            target = os.environ.get(ENDPOINT_ENV) or target
        if spec.record and kind not in (None, "http"):
            raise ConfigError("recording applies to the http backend only")
        template = load_template(spec.template) if spec.template else PromptTemplate()
        if spec.verbalizer:
            vmap = VerbalizerMap.from_json(spec.verbalizer)
        elif kind == "synthetic":
            oracle = SyntheticOracleSpec.from_json(target)
            vmap = VerbalizerMap.from_mapping({c: [c] for c in oracle.classes})
        else:
            raise ConfigError("missing required options: --verbalizer")
        out = Path(spec.out)
        if command == "synth-demo":
            instances = synthetic_instances(oracle, spec.n_instances, spec.seed)
        else:
            dataset = load_dataset(spec.dataset, load_schema(spec.schema))
            instances = [dataset[i] for i in select_indices(spec, out, len(dataset), command)]
        keys = instances[0].keys
        if len(keys) < 2:
            raise ConfigError(f"attribution needs at least 2 features, got {list(keys)}")
        if spec.max_coalitions < len(keys):
            raise ConfigError(
                f"--max-coalitions {spec.max_coalitions} is below the {len(keys)} features; "
                "every essential coalition must fit"
            )
        external = load_external_ranking(spec.external, keys) if "external" in required else None
        if command == "compare" and not isinstance(external, tuple):
            raise ConfigError("compare needs a ranking file in the global form")
        reads_store = command == "compare" or (
            command == "deletion-curve" and any(source in METRICS for source in spec.sources)
        )
        store = out / STORE_NAME
        if reads_store and not store.exists():
            raise CacheError(f"no evaluation store at {store}; run `tabattr attribute` first")
        backend = None
        if command != "compare":
            backend = open_backend(kind, target, spec.timeout, spec.retries, spec.record, template)
        try:
            out.mkdir(parents=True, exist_ok=True)
            ensure_manifest(out / MANIFEST_NAME, [i.index for i in instances], spec.seed)
        except BaseException:
            if backend is not None:
                backend.close()
            raise
        return cls(command, spec, out, template, vmap, instances, external, backend)

    def finish(self, summary: str) -> None:
        """Write ``run_manifest.json`` and ``summary.txt``; print the summary."""
        config = dataclasses.asdict(self.spec)
        payload = {"tool": f"tabattr {__version__}", "command": self.command, "config": config}
        (self.out / "run_manifest.json").write_text(dump_canonical(payload), encoding="utf-8")
        (self.out / "summary.txt").write_text(summary, encoding="utf-8")
        sys.stdout.write(summary)


def select_indices(spec: RunSpec, out: Path, dataset_size: int, command: str) -> list[int]:
    """The run's instance indices: explicit ``--indices``, else the selection
    recorded in ``out`` unless ``command`` is ``attribute``, else ``--instances``
    rows sampled with ``--seed``. ``compare`` needs a recorded selection.
    Reads only; :meth:`Run.open` records the selection, or enforces it."""
    if dataset_size == 0:
        raise ConfigError(f"dataset {spec.dataset} has no rows")
    manifest_path = out / MANIFEST_NAME
    if command == "compare" and not manifest_path.exists():
        raise CacheError(f"no index manifest at {manifest_path}; run `tabattr attribute` first")
    if spec.indices:
        indices = list(spec.indices)
        bad = [i for i in indices if not 0 <= i < dataset_size]
        if bad:
            raise ConfigError(f"indices out of range for dataset of {dataset_size} rows: {bad}")
        if len(set(indices)) != len(indices):
            raise ConfigError(f"--indices contain duplicates: {indices}")
    elif command != "attribute" and manifest_path.exists():
        indices = list(CacheManifest.load(manifest_path).selected_test_indices)
        missing = [i for i in indices if not 0 <= i < dataset_size]
        if missing:
            raise ConfigError(f"manifest indices not in dataset: {missing}")
    else:
        count = min(spec.instances, dataset_size)
        rng = np.random.default_rng(spec.seed)
        indices = sorted(int(i) for i in rng.choice(dataset_size, size=count, replace=False))
    return indices


def _store_of(run: Run) -> tuple[Path, SamplingConfig, str, str | None]:
    """The run's store, sampling config, fingerprint and backend identity
    (``None`` when the run opens no backend)."""
    config = run.spec.sampling()
    fingerprint = config_fingerprint(config, run.template, run.vmap)
    identity = run.backend.identity if run.backend is not None else None
    return run.out / STORE_NAME, config, fingerprint, identity


def stored_evaluations(run: Run, evaluate_missing: bool = False) -> list[Evaluation]:
    """Evaluations of the run's instances from its store, which must match
    the run (see :func:`tabattr.cache.read_evaluations`). With
    ``evaluate_missing`` the run's backend evaluates and stores the misses;
    without it, a missing instance is a :class:`CacheError`
    (:meth:`Run.open` has refused a missing store)."""
    path, config, fingerprint, identity = _store_of(run)
    if evaluate_missing:
        def evaluate_fn(instance: TabularInstance) -> Evaluation:
            return evaluate(instance, run.backend, run.template, run.vmap, config, run.spec.workers)
    else:
        def evaluate_fn(instance: TabularInstance) -> Evaluation:
            raise CacheError(
                f"instance {instance.index} missing from {path}; run `tabattr attribute` first"
            )

    return load_or_evaluate(path, run.instances, evaluate_fn, config, fingerprint, identity)


def matching_evaluations(run: Run) -> list[Evaluation]:
    """The stored evaluations of the run's instances if the store matches
    the run in fingerprint, backend and instance content; none if it does
    not, or if there is no store."""
    path, config, fingerprint, identity = _store_of(run)
    try:
        return list(read_evaluations(path, run.instances, config, fingerprint, identity).values())
    except StaleCacheError:
        return []


def attribute_step(run: Run, evaluations: list[Evaluation], metric: str) -> list[AttributionResult]:
    """``evaluations`` scored under ``metric``, written to ``results_{metric}.json``."""
    results = [score(e, metric) for e in evaluations]
    payload = {str(r.instance_index): r.to_payload() for r in results}
    (run.out / f"results_{metric}.json").write_text(dump_canonical(payload), encoding="utf-8")
    return results


def deletion_step(
    run: Run, results: dict[str, list[AttributionResult]], stored: list[Evaluation]
) -> DeletionRun:
    """A removal order per ``--sources`` entry, the deletion protocol over the
    run's instances, then ``curves.csv`` and ``curves.json``. A metric source
    orders each instance by its scores in ``results[metric]``; the external
    source takes ``run.external``, one order for every instance or one per index.
    Deletion rows that the ``stored`` evaluations hold are taken from them."""
    spec, instances, external = run.spec, run.instances, run.external
    rankings: dict[str, dict[int, tuple[str, ...]]] = {}
    for source in spec.sources:
        if source in METRICS:
            rankings[source] = {r.instance_index: r.ranking() for r in results[source]}
        elif source == "random":
            rankings[source] = {i.index: random_order(i, spec.seed + i.index) for i in instances}
        elif isinstance(external, tuple):
            rankings[source] = {i.index: external for i in instances}
        else:
            rankings[source] = external
    deletion = run_deletion(
        instances, rankings, run.backend, run.template, run.vmap,
        max_removals=spec.max_removals, top_k=spec.top_k, workers=spec.workers, stored=stored,
    )
    write_curves_csv(deletion, run.out / "curves.csv")
    write_curves_json(deletion, run.out / "curves.json")
    return deletion


def rank_against(
    results: list[AttributionResult], external: tuple[str, ...]
) -> tuple[GlobalRanking, float, list[str]]:
    """The global ranking of ``results`` and its Spearman rho against the
    ``external`` order, which must cover the same keys."""
    ranking = global_ranking(results)
    if set(external) != set(ranking.keys):
        raise ConfigError("external ranking must cover exactly the dataset's feature keys")
    return ranking, spearman_rho(ranking.scores, external), list(external)


def _write_rank_report(out: Path, ranking: GlobalRanking, rho: float, external: list[str]) -> None:
    report = {
        "metric": ranking.metric,
        "spearman_rho": rho,
        "global_ranking": ranking.to_payload(),
        "external_ranking": external,
    }
    path = out / f"rank_report_{ranking.metric}.json"
    path.write_text(dump_canonical(report), encoding="utf-8")


def _summary_table(rows: list[tuple], header: tuple) -> str:
    table = [header] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    table.insert(1, tuple("-" * w for w in widths))
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def cmd_attribute(spec: RunSpec) -> int:
    run = Run.open("attribute", spec, "dataset", "schema", "backend")
    with run.backend:
        evaluations = stored_evaluations(run, evaluate_missing=True)
    results = attribute_step(run, evaluations, spec.metric)
    rows = [(k, f"{s:.6f}") for k, s in global_ranking(results).entries]
    run.finish(
        f"attribute: metric={spec.metric} instances={len(results)} "
        f"coalitions/instance={len(results[0].membership)}\n"
        + _summary_table(rows, ("feature", "mean_phi"))
    )
    return 0


def cmd_deletion_curve(spec: RunSpec) -> int:
    external_source = ("external",) if "external" in spec.sources else ()
    run = Run.open("deletion-curve", spec, "dataset", "schema", "backend", *external_source)
    with run.backend:
        metrics = [source for source in spec.sources if source in METRICS]
        evaluations = stored_evaluations(run) if metrics else matching_evaluations(run)
        results = {m: [score(e, m) for e in evaluations] for m in metrics}
        deletion = deletion_step(run, results, evaluations)
    rows = [
        (source, f"{curve_auc(curve):.6f}", f"{curve.mean_probs[0]:.6f}")
        for source, curve in deletion.curves.items()
    ]
    run.finish(
        f"deletion-curve: instances={len(run.instances) - len(deletion.dropped)} "
        f"dropped={len(deletion.dropped)} max_removals={spec.max_removals} "
        f"stored={deletion.stored_rows} queried={deletion.queried_prompts}\n"
        + _summary_table(rows, ("source", "auc", "step0_prob"))
    )
    return 1 if deletion.dropped else 0


def cmd_compare(spec: RunSpec) -> int:
    run = Run.open("compare", spec, "dataset", "schema", "external")
    results = [score(e, spec.metric) for e in stored_evaluations(run)]
    ranking, rho, external = rank_against(results, run.external)
    _write_rank_report(run.out, ranking, rho, external)
    rows = [(i + 1, k, e) for i, (k, e) in enumerate(zip(ranking.keys, external))]
    run.finish(
        f"compare: metric={spec.metric} instances={ranking.n_instances} "
        f"spearman_rho={rho:.6f}\n"
        + _summary_table(rows, ("rank", "tabattr", "external"))
    )
    return 0


def synthetic_instances(spec: SyntheticOracleSpec, count: int, seed: int) -> list[TabularInstance]:
    """Deterministic demo rows over the oracle's feature keys."""
    rng = np.random.default_rng(seed)
    keys = list(spec.weights)
    instances = []
    for index in range(count):
        fields = tuple(
            FeatureField(key=k, value=str(int(rng.integers(0, 100))), raw_value=str(k))
            for k in keys
        )
        instances.append(TabularInstance(index=index, fields=fields))
    return instances


def cmd_synth_demo(spec: RunSpec) -> int:
    spec.require("oracle", "out")
    if spec.indices:
        raise ConfigError("synth-demo runs instances 0..n-1; use --n-instances, not --indices")
    spec = dataclasses.replace(
        spec,
        backend=f"synthetic:{spec.oracle}",
        verbalizer=None,
        sources=("jsd", "kl", "l1", "random", "external"),
        external=str(Path(spec.out) / "external_ranking.json"),
    )
    run = Run.open("synth-demo", spec)
    weights = run.backend.spec.weights
    true_order = tuple(sorted(weights, key=lambda k: (-abs(weights[k]), k)))
    run = dataclasses.replace(run, external=true_order)

    with run.backend:
        evaluations = stored_evaluations(run, evaluate_missing=True)
        # Written once the store has matched, so a refused run leaves --out as it was.
        Path(spec.external).write_text(dump_canonical({"global": true_order}), encoding="utf-8")
        results = {metric: attribute_step(run, evaluations, metric) for metric in METRICS}
        deletion = deletion_step(run, results, evaluations)
    ranked = {metric: rank_against(results[metric], true_order) for metric in METRICS}
    _write_rank_report(run.out, *ranked["jsd"])

    auc_rows = [(s, f"{curve_auc(c):.6f}") for s, c in deletion.curves.items()]
    rho_rows = [(m, f"{rho:.6f}") for m, (_, rho, _) in ranked.items()]
    run.finish(
        f"synth-demo: instances={len(run.instances)} seed={spec.seed}\n"
        + _summary_table(rho_rows, ("metric", "rho_vs_true_order"))
        + _summary_table(auc_rows, ("source", "deletion_auc"))
    )
    return 1 if deletion.dropped else 0


def cmd_serialize(spec: RunSpec) -> int:
    spec.require("dataset", "schema")
    dataset = load_dataset(spec.dataset, load_schema(spec.schema))
    if not 0 <= spec.index < len(dataset):
        raise ConfigError(f"--index {spec.index} not in dataset of {len(dataset)} rows")
    instance = dataset[spec.index]
    unknown = set(spec.omit) - set(instance.keys)
    if unknown:
        raise ConfigError(f"keys not in instance {instance.index}: {sorted(unknown)}")
    row = np.array([[key not in spec.omit for key in instance.keys]])
    template = load_template(spec.template) if spec.template else PromptTemplate()
    sys.stdout.write(build_prompts(template, instance, row)[0])
    return 0


# Each subcommand's handler and its line in ``tabattr --help``, in that order.
_SUBCOMMANDS = {
    "attribute": (cmd_attribute, "compute attributions over selected instances"),
    "deletion-curve": (cmd_deletion_curve, "faithfulness curves per removal-order source"),
    "compare": (cmd_compare, "Spearman rho of the global ranking vs. an external one"),
    "synth-demo": (cmd_synth_demo, "end-to-end pipeline on the synthetic oracle"),
    "serialize": (cmd_serialize, "print the prompt built for one instance"),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        handler, _ = _SUBCOMMANDS[args.command]
        return handler(RunSpec.resolve(args))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TabAttrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
