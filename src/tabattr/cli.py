"""Command-line front end.

Subcommands::

    attribute       run the estimator over selected instances, fill caches
    deletion-curve  build removal orders and emit faithfulness curves
    compare         global ranking vs. an external ranking (Spearman rho)
    synth-demo      full no-network pipeline on the analytic oracle
    serialize       debug prompt printer

Flag values override config-file values, which override defaults. Config
keys are the :class:`RunSpec` field names, i.e. the flags' ``dest`` names
(``max_coalitions``); an unknown key or a wrongly typed value is an error
(exit 2). The effective spec is echoed into ``run_manifest.json`` in the
output directory so every run is reproducible from its artifacts. The
environment variable ``TABATTR_ENDPOINT`` overrides the http endpoint.

All commands in one output directory use the instances recorded in
``index_manifest.json``: explicit ``--indices`` must match that record (or
become it). Without them, ``attribute`` samples ``--instances`` rows with
``--seed`` and enforces that sample, ``deletion-curve`` reuses the record or
samples one, and ``compare`` reuses the record and fails without one.
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
from .attribution import AttributionResult, SamplingConfig, compute_attributions, evaluate, score
from .backends import Backend, BackendDescriptor, SyntheticOracleSpec, build_backend
from ._json_io import dump_canonical
from .cache import (
    MANIFEST_NAME,
    CacheManifest,
    config_fingerprint,
    default_cache_name,
    ensure_manifest,
    load_or_compute,
)
from .divergence import METRICS
from .errors import CacheError, ConfigError, TabAttrError
from .faithfulness import (
    RANKING_SOURCES,
    DeletionRun,
    RankingOrder,
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
    build_prompt,
    load_dataset,
    load_schema,
    load_template,
)
from .verbalizer import VerbalizerMap

ENDPOINT_ENV = "TABATTR_ENDPOINT"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--dataset", help="CSV file with a header row")
    parser.add_argument("--schema", help="JSON column->kind schema")
    parser.add_argument("--template", help="prompt template file (text or .json)")
    parser.add_argument("--verbalizer", help="JSON class->surface-forms map")
    parser.add_argument("--backend", help="backend spec: http:URL | replay:FILE | synthetic:FILE")
    parser.add_argument("--metric", choices=METRICS)
    parser.add_argument("--ratio", type=float, help="coalition sampling ratio r in (0,1]")
    parser.add_argument("--max-coalitions", type=int, dest="max_coalitions")
    parser.add_argument("--top-k", type=int, dest="top_k")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--instances", type=int, help="number of instances to sample")
    parser.add_argument("--indices", help="explicit comma-separated instance indices")
    parser.add_argument("--workers", type=int, help="bounded worker pool size")
    parser.add_argument("--max-removals", type=int, dest="max_removals")
    parser.add_argument("--record", help="record live http responses to this replay file")
    parser.add_argument("--timeout", type=float, help="http timeout in seconds")
    parser.add_argument("--retries", type=int, help="http retry count")
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabattr",
        description="Coalition-sampling feature attribution for prompt-served tabular classifiers",
    )
    parser.add_argument("--version", action="version", version=f"tabattr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attribute", help="compute attributions over selected instances")
    _add_common(p)

    p = sub.add_parser("deletion-curve", help="faithfulness curves per removal-order source")
    _add_common(p)
    p.add_argument("--sources", help=f"comma list from {RANKING_SOURCES}")
    p.add_argument("--external", help="external ranking JSON (global or per_instance)")

    p = sub.add_parser("compare", help="Spearman rho of the global ranking vs. an external one")
    _add_common(p)
    p.add_argument("--external", help="external ranking JSON (global form)")

    p = sub.add_parser("synth-demo", help="end-to-end pipeline on the synthetic oracle")
    _add_common(p)
    p.add_argument("--oracle", help="synthetic oracle spec JSON")
    p.add_argument("--n-instances", type=int, dest="n_instances")

    p = sub.add_parser("serialize", help="print the prompt built for one instance")
    _add_common(p)
    p.add_argument("--index", type=int, help="dataset row to serialize (default 0)")
    p.add_argument("--omit", help="comma-separated feature keys to leave out")

    return parser


def _input_file():
    """A path field that must name an existing file when set."""
    return dataclasses.field(default=None, metadata={"input_file": True})


def _typed(key: str, hint, value):
    """``value`` checked against field ``key``'s type; tuples take a list or a comma string."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _typed(key, args[0], value)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, str):
            return tuple(args[0](v.strip()) for v in value.split(",") if v.strip())
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
    """Effective options of one run: one field per flag, named by the flag's
    ``dest``, which is also its config-file key."""

    config: str | None = _input_file()
    dataset: str | None = _input_file()
    schema: str | None = _input_file()
    template: str | None = _input_file()
    verbalizer: str | None = _input_file()
    backend: str | None = None
    metric: str = "jsd"
    ratio: float = 0.4
    max_coalitions: int = 800
    top_k: int = 10
    seed: int = 0
    instances: int = 50
    indices: tuple[int, ...] = ()
    workers: int = 1
    max_removals: int = 10
    record: str | None = None
    timeout: float = 30.0
    retries: int = 2
    out: str | None = None
    sources: tuple[str, ...] = ("jsd", "random")
    external: str | None = _input_file()
    oracle: str | None = _input_file()
    n_instances: int = 12
    index: int = 0
    omit: tuple[str, ...] = ()

    @classmethod
    def resolve(cls, args: argparse.Namespace) -> "RunSpec":
        """Merge defaults < ``--config`` file < flags, rejecting unknown keys and
        wrongly typed values with :class:`ConfigError`."""
        values = {}
        if args.config:
            config_path = Path(args.config)
            if not config_path.is_file():
                raise ConfigError(f"config file not found: {config_path}")
            values = json.loads(config_path.read_text(encoding="utf-8"))
            if not isinstance(values, dict):
                raise ConfigError(f"config file {config_path} must hold a JSON object")
        values.update((k, v) for k, v in vars(args).items() if k != "command" and v is not None)
        hints = typing.get_type_hints(cls)
        unknown = sorted(set(values) - set(hints))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        spec = cls(**{key: _typed(key, hints[key], value) for key, value in values.items()})
        if spec.instances < 1:
            raise ConfigError("--instances must be >= 1")
        for field in dataclasses.fields(cls):
            value = getattr(spec, field.name)
            if field.metadata.get("input_file") and value and not Path(value).is_file():
                raise ConfigError(f"--{field.name} file not found: {value}")
        return spec

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) in (None, "")]
        if missing:
            raise ConfigError(f"missing required options: {', '.join('--' + n for n in missing)}")

    def sampling(self, metric: str) -> SamplingConfig:
        return SamplingConfig(self.ratio, self.max_coalitions, self.seed, metric, self.top_k)


@dataclasses.dataclass(frozen=True)
class Run:
    """What every writing subcommand opens first: its spec, output directory,
    prompt template and verbalizer; the backend is built on demand."""

    command: str
    spec: RunSpec
    out: Path
    template: PromptTemplate
    vmap: VerbalizerMap

    @classmethod
    def open(cls, command: str, spec: RunSpec, *required: str) -> "Run":
        """Check the ``required`` options, create the output directory and load
        the template and verbalizer."""
        spec.require(*required)
        spec.require("out")
        out = Path(spec.out)
        out.mkdir(parents=True, exist_ok=True)
        template = load_template(spec.template) if spec.template else PromptTemplate()
        if spec.verbalizer:
            vmap = VerbalizerMap.from_json(spec.verbalizer)
        elif (spec.backend or "").startswith("synthetic:"):
            oracle = SyntheticOracleSpec.from_json(spec.backend.partition(":")[2])
            vmap = VerbalizerMap.from_mapping({c: [c] for c in oracle.classes})
        else:
            raise ConfigError("missing required options: --verbalizer")
        return cls(command, spec, out, template, vmap)

    def backend(self) -> Backend:
        spec = self.spec
        descriptor = BackendDescriptor.parse(
            spec.backend, timeout=spec.timeout, retries=spec.retries, record_path=spec.record
        )
        endpoint = os.environ.get(ENDPOINT_ENV)
        if endpoint and descriptor.kind == "http":
            descriptor = dataclasses.replace(descriptor, target=endpoint)
        return build_backend(descriptor)

    def finish(self, summary: str) -> None:
        """Write ``run_manifest.json`` and ``summary.txt``; print the summary."""
        config = dataclasses.asdict(self.spec)
        payload = {"tool": f"tabattr {__version__}", "command": self.command, "config": config}
        (self.out / "run_manifest.json").write_text(dump_canonical(payload), encoding="utf-8")
        (self.out / "summary.txt").write_text(summary, encoding="utf-8")
        sys.stdout.write(summary)


def select_indices(run: Run, dataset_size: int, reuse_recorded: bool) -> list[int]:
    """The run's instance indices: explicit ``--indices``, else the recorded
    selection if ``reuse_recorded`` and one exists, else ``--instances`` rows
    sampled with ``--seed``. They must match the index manifest (raising
    IndexSetError) or are recorded in it."""
    spec = run.spec
    manifest_path = run.out / MANIFEST_NAME
    if spec.indices:
        indices = list(spec.indices)
        bad = [i for i in indices if not 0 <= i < dataset_size]
        if bad:
            raise ConfigError(f"indices out of range for dataset of {dataset_size} rows: {bad}")
        if len(set(indices)) != len(indices):
            raise ConfigError(f"--indices contain duplicates: {indices}")
    elif reuse_recorded and manifest_path.exists():
        indices = list(CacheManifest.load(manifest_path).selected_test_indices)
        missing = [i for i in indices if not 0 <= i < dataset_size]
        if missing:
            raise ConfigError(f"manifest indices not in dataset: {missing}")
    else:
        count = min(spec.instances, dataset_size)
        rng = np.random.default_rng(spec.seed)
        indices = sorted(int(i) for i in rng.choice(dataset_size, size=count, replace=False))
    ensure_manifest(manifest_path, indices, spec.seed)
    return indices


def cached_results(
    run: Run, indices: list[int], metric: str,
    compute: typing.Callable[[int], AttributionResult] | None = None,
) -> list[AttributionResult]:
    """``metric`` results for ``indices`` from the run's cache. ``compute`` fills
    the misses; without it, a missing cache or instance is a :class:`CacheError`."""
    cache_path = run.out / default_cache_name(metric)
    hint = f"run `tabattr attribute --metric {metric}` first"
    if compute is None:
        if not cache_path.exists():
            raise CacheError(f"no {metric} attribution cache at {cache_path}; {hint}")

        def compute(idx: int) -> AttributionResult:
            raise CacheError(f"instance {idx} missing from {cache_path}; {hint}")

    return load_or_compute(
        cache_path, indices, metric, compute,
        fingerprint=config_fingerprint(run.spec.sampling(metric), run.template, run.vmap),
        manifest_path=run.out / MANIFEST_NAME,
        selection_seed=run.spec.seed,
    )


def attribute_step(
    run: Run, indices: list[int], metric: str, compute: typing.Callable[[int], AttributionResult]
) -> list[AttributionResult]:
    """Cache-backed ``metric`` results for ``indices``, written to ``results_{metric}.json``."""
    results = cached_results(run, indices, metric, compute)
    payload = {str(r.instance_index): r.to_payload() for r in results}
    (run.out / f"results_{metric}.json").write_text(dump_canonical(payload), encoding="utf-8")
    return results


def deletion_step(run: Run, instances: list[TabularInstance], backend: Backend) -> DeletionRun:
    """A removal order per ``--sources`` entry, the deletion protocol over
    ``instances``, then ``curves.csv`` and ``curves.json``."""
    spec = run.spec
    rankings: dict[str, dict[int, RankingOrder]] = {}
    for source in spec.sources:
        if source not in RANKING_SOURCES:
            raise ConfigError(f"unknown source {source!r}; expected one of {RANKING_SOURCES}")
        if source in METRICS:
            rankings[source] = {
                r.instance_index: RankingOrder(r.instance_index, r.metric, r.ranking())
                for r in cached_results(run, [i.index for i in instances], source)
            }
        elif source == "random":
            rankings[source] = {i.index: random_order(i, spec.seed + i.index) for i in instances}
        else:
            spec.require("external")
            external = load_external_ranking(spec.external, instances[0].keys)
            rankings[source] = {i.index: external.order_for(i) for i in instances}
    deletion = run_deletion(
        instances, rankings, backend, run.template, run.vmap,
        max_removals=spec.max_removals, top_k=spec.top_k, workers=spec.workers,
    )
    write_curves_csv(deletion, run.out / "curves.csv")
    write_curves_json(deletion, run.out / "curves.json")
    return deletion


def rank_against(
    results: list[AttributionResult], external_path: str
) -> tuple[GlobalRanking, float, list[str]]:
    """The global ranking of ``results`` and its Spearman rho against the
    global-form ranking file ``external_path``, which must cover the same keys."""
    ranking = global_ranking(results)
    external = load_external_ranking(external_path, ranking.keys)
    if external.global_keys is None:
        raise ConfigError("compare needs a ranking file in the global form")
    if set(external.global_keys) != set(ranking.keys):
        raise ConfigError("external ranking must cover exactly the dataset's feature keys")
    external_keys = list(external.global_keys)
    return ranking, spearman_rho(ranking, external_keys), external_keys


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
    dataset = load_dataset(spec.dataset, load_schema(spec.schema))
    config = spec.sampling(spec.metric)
    backend = run.backend()
    indices = select_indices(run, len(dataset), reuse_recorded=False)
    results = attribute_step(run, indices, spec.metric, lambda idx: compute_attributions(
        dataset[idx], backend, run.template, run.vmap, config, spec.workers
    ))
    rows = [(k, f"{s:.6f}") for k, s in global_ranking(results).entries]
    run.finish(
        f"attribute: metric={spec.metric} instances={len(results)} "
        f"coalitions/instance={len(results[0].membership)}\n"
        + _summary_table(rows, ("feature", "mean_phi"))
    )
    return 0


def cmd_deletion_curve(spec: RunSpec) -> int:
    run = Run.open("deletion-curve", spec, "dataset", "schema", "backend")
    dataset = load_dataset(spec.dataset, load_schema(spec.schema))
    backend = run.backend()
    instances = [dataset[i] for i in select_indices(run, len(dataset), reuse_recorded=True)]
    deletion = deletion_step(run, instances, backend)
    rows = [
        (source, f"{curve_auc(curve):.6f}", f"{curve.mean_probs[0]:.6f}")
        for source, curve in deletion.curves.items()
    ]
    run.finish(
        f"deletion-curve: instances={len(instances) - len(deletion.dropped)} "
        f"dropped={len(deletion.dropped)} max_removals={spec.max_removals}\n"
        + _summary_table(rows, ("source", "auc", "step0_prob"))
    )
    return 1 if deletion.dropped else 0


def cmd_compare(spec: RunSpec) -> int:
    run = Run.open("compare", spec, "dataset", "schema", "external")
    dataset = load_dataset(spec.dataset, load_schema(spec.schema))
    manifest_path = run.out / MANIFEST_NAME
    if not manifest_path.exists():
        raise CacheError(f"no index manifest at {manifest_path}; run `tabattr attribute` first")
    indices = select_indices(run, len(dataset), reuse_recorded=True)
    results = cached_results(run, indices, spec.metric)
    ranking, rho, external = rank_against(results, spec.external)
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
    spec.require("oracle")
    spec.require("out")
    spec = dataclasses.replace(
        spec,
        backend=f"synthetic:{spec.oracle}",
        verbalizer=None,
        sources=("jsd", "kl", "l1", "random", "external"),
        external=str(Path(spec.out) / "external_ranking.json"),
    )
    run = Run.open("synth-demo", spec)
    oracle = SyntheticOracleSpec.from_json(spec.oracle)
    if len(oracle.weights) < 2:
        raise ConfigError("oracle spec needs at least 2 weighted features")
    instances = synthetic_instances(oracle, spec.n_instances, spec.seed)
    backend = run.backend()
    true_order = sorted(oracle.weights, key=lambda k: (-abs(oracle.weights[k]), k))
    Path(spec.external).write_text(dump_canonical({"global": true_order}), encoding="utf-8")

    # Each instance is evaluated once, on its first cache miss, and that one
    # evaluation is scored under every metric.
    config = spec.sampling(spec.metric)
    evaluated = functools.cache(
        lambda idx: evaluate(instances[idx], backend, run.template, run.vmap, config, spec.workers)
    )

    results = {}
    for metric in METRICS:
        results[metric] = attribute_step(
            run, [i.index for i in instances], metric,
            lambda idx: score(evaluated(idx), metric),
        )
    deletion = deletion_step(run, instances, backend)
    ranked = {metric: rank_against(results[metric], spec.external) for metric in METRICS}
    _write_rank_report(run.out, *ranked["jsd"])

    auc_rows = [(s, f"{curve_auc(c):.6f}") for s, c in deletion.curves.items()]
    rho_rows = [(m, f"{rho:.6f}") for m, (_, rho, _) in ranked.items()]
    run.finish(
        f"synth-demo: instances={len(instances)} seed={spec.seed}\n"
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
    fields = instance.fields_without_keys(spec.omit) if spec.omit else instance.fields
    template = load_template(spec.template) if spec.template else PromptTemplate()
    sys.stdout.write(build_prompt(template, fields))
    return 0


_COMMANDS = {
    "attribute": cmd_attribute,
    "deletion-curve": cmd_deletion_curve,
    "compare": cmd_compare,
    "synth-demo": cmd_synth_demo,
    "serialize": cmd_serialize,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](RunSpec.resolve(args))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TabAttrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
