"""Command-line front end.

Subcommands::

    attribute       run the estimator over selected instances, fill caches
    deletion-curve  build removal orders and emit faithfulness curves
    compare         global ranking vs. an external ranking (Spearman rho)
    synth-demo      full no-network pipeline on the analytic oracle
    serialize       debug prompt printer

Flag values override config-file values, which override defaults; the
effective configuration is echoed into ``run_manifest.json`` in the output
directory so every run is reproducible from its artifacts. The environment
variable ``TABATTR_ENDPOINT`` overrides the http backend endpoint.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable

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

DEFAULTS = {
    "metric": "jsd",
    "ratio": 0.4,
    "max_coalitions": 800,
    "top_k": 10,
    "seed": 0,
    "instances": 50,
    "workers": 1,
    "max_removals": 10,
    "sources": "jsd,random",
    "n_instances": 12,
    "timeout": 30.0,
    "retries": 2,
}

_FILE_OPTIONS = ("dataset", "schema", "template", "verbalizer", "external", "oracle", "config")


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
    p.add_argument("--index", type=int, default=0, help="dataset row to serialize")
    p.add_argument("--omit", help="comma-separated feature keys to leave out")

    return parser


class RunConfig(dict):
    """Effective option values after defaults < config file < flags."""

    def require(self, *names: str) -> None:
        missing = [n for n in names if self.get(n) in (None, "")]
        if missing:
            raise ConfigError(f"missing required options: {', '.join('--' + n for n in missing)}")

    def path(self, name: str) -> Path:
        return Path(self[name])


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(DEFAULTS)
    file_values = {}
    if getattr(args, "config", None):
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        file_values = json.loads(config_path.read_text(encoding="utf-8"))
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        cfg.update(file_values)
    for key, value in vars(args).items():
        if key in ("command",) or value is None:
            continue
        cfg[key] = value

    if cfg.get("instances") is not None and cfg["instances"] < 1:
        raise ConfigError("--instances must be >= 1")
    if isinstance(cfg.get("indices"), str):
        cfg["indices"] = [int(x) for x in cfg["indices"].split(",") if x.strip()]
    if isinstance(cfg.get("sources"), str):
        cfg["sources"] = [s.strip() for s in cfg["sources"].split(",") if s.strip()]
    for name in _FILE_OPTIONS:
        value = cfg.get(name)
        if value and not Path(value).is_file():
            raise ConfigError(f"--{name} file not found: {value}")
    return cfg


def _resolve_backend(cfg: RunConfig) -> Backend:
    cfg.require("backend")
    endpoint = os.environ.get(ENDPOINT_ENV)
    spec = cfg["backend"]
    descriptor = BackendDescriptor.parse(
        spec,
        timeout=float(cfg["timeout"]),
        retries=int(cfg["retries"]),
        record_path=cfg.get("record"),
    )
    if endpoint and descriptor.kind == "http":
        descriptor = dataclasses.replace(descriptor, target=endpoint)
    return build_backend(descriptor)


def _resolve_template(cfg: RunConfig) -> PromptTemplate:
    if cfg.get("template"):
        return load_template(cfg["template"])
    return PromptTemplate()


def _resolve_verbalizer(cfg: RunConfig) -> VerbalizerMap:
    if cfg.get("verbalizer"):
        return VerbalizerMap.from_json(cfg["verbalizer"])
    backend_spec = cfg.get("backend") or ""
    if backend_spec.startswith("synthetic:"):
        spec = SyntheticOracleSpec.from_json(backend_spec.partition(":")[2])
        return VerbalizerMap.from_mapping({c: [c] for c in spec.classes})
    raise ConfigError("missing required options: --verbalizer")


def _select_indices(cfg: RunConfig, dataset_size: int) -> list[int]:
    if cfg.get("indices"):
        bad = [i for i in cfg["indices"] if not 0 <= i < dataset_size]
        if bad:
            raise ConfigError(f"indices out of range for dataset of {dataset_size} rows: {bad}")
        if len(set(cfg["indices"])) != len(cfg["indices"]):
            raise ConfigError(f"--indices contain duplicates: {cfg['indices']}")
        return list(cfg["indices"])
    count = min(int(cfg["instances"]), dataset_size)
    rng = np.random.default_rng(int(cfg["seed"]))
    return sorted(int(i) for i in rng.choice(dataset_size, size=count, replace=False))


def _out_dir(cfg: RunConfig) -> Path:
    cfg.require("out")
    out = cfg.path("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_manifest(out: Path, command: str, cfg: RunConfig) -> None:
    effective = {k: (str(v) if isinstance(v, Path) else v) for k, v in sorted(cfg.items())}
    payload = {"tool": f"tabattr {__version__}", "command": command, "config": effective}
    (out / "run_manifest.json").write_text(dump_canonical(payload), encoding="utf-8")


def _sampling_config(cfg: RunConfig, metric: str | None = None) -> SamplingConfig:
    return SamplingConfig(
        ratio=float(cfg["ratio"]),
        max_coalitions=int(cfg["max_coalitions"]),
        seed=int(cfg["seed"]),
        metric=metric or cfg["metric"],
        top_k=int(cfg["top_k"]),
    )


def _attribute_into_cache(
    out: Path,
    indices: list[int],
    template: PromptTemplate,
    vmap: VerbalizerMap,
    config: SamplingConfig,
    compute: Callable[[int], AttributionResult],
    selection_seed: int,
) -> list[AttributionResult]:
    return load_or_compute(
        out / default_cache_name(config.metric),
        indices,
        config.metric,
        compute,
        fingerprint=config_fingerprint(config, template, vmap),
        manifest_path=out / MANIFEST_NAME,
        selection_seed=selection_seed,
    )


def _load_cached_results(
    out: Path,
    indices: list[int],
    metric: str,
    template: PromptTemplate,
    vmap: VerbalizerMap,
    cfg: RunConfig,
) -> list[AttributionResult]:
    cache_path = out / default_cache_name(metric)
    if not cache_path.exists():
        raise CacheError(
            f"no {metric} attribution cache at {cache_path}; run `tabattr attribute "
            f"--metric {metric}` first"
        )

    def refuse(idx: int) -> AttributionResult:
        raise CacheError(
            f"instance {idx} missing from {cache_path}; run `tabattr attribute "
            f"--metric {metric}` first"
        )

    config = _sampling_config(cfg, metric=metric)
    return load_or_compute(
        cache_path,
        indices,
        metric,
        refuse,
        fingerprint=config_fingerprint(config, template, vmap),
        manifest_path=out / MANIFEST_NAME,
    )


def _write_results_json(out: Path, metric: str, results: list[AttributionResult]) -> None:
    payload = {str(r.instance_index): r.to_payload() for r in results}
    (out / f"results_{metric}.json").write_text(dump_canonical(payload), encoding="utf-8")


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
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _emit_summary(out: Path, text: str) -> None:
    (out / "summary.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def cmd_attribute(cfg: RunConfig) -> int:
    cfg.require("dataset", "schema", "backend")
    out = _out_dir(cfg)
    dataset = load_dataset(cfg["dataset"], load_schema(cfg["schema"]))
    instances = {i.index: i for i in dataset}
    indices = _select_indices(cfg, len(dataset))
    template = _resolve_template(cfg)
    vmap = _resolve_verbalizer(cfg)
    backend = _resolve_backend(cfg)
    config = _sampling_config(cfg)

    workers = int(cfg["workers"])
    results = _attribute_into_cache(
        out, indices, template, vmap, config,
        lambda idx: compute_attributions(instances[idx], backend, template, vmap, config, workers),
        int(cfg["seed"]),
    )
    _write_results_json(out, config.metric, results)
    _write_run_manifest(out, "attribute", cfg)

    ranking = global_ranking(results)
    rows = [(k, f"{s:.6f}") for k, s in ranking.entries]
    _emit_summary(
        out,
        f"attribute: metric={config.metric} instances={len(results)} "
        f"coalitions/instance={len(results[0].membership)}\n"
        + _summary_table(rows, ("feature", "mean_phi")),
    )
    return 0


def _build_rankings(
    sources: list[str],
    instances: list[TabularInstance],
    out: Path,
    template: PromptTemplate,
    vmap: VerbalizerMap,
    cfg: RunConfig,
) -> dict[str, dict[int, RankingOrder]]:
    rankings: dict[str, dict[int, RankingOrder]] = {}
    indices = [i.index for i in instances]
    for source in sources:
        if source not in RANKING_SOURCES:
            raise ConfigError(f"unknown source {source!r}; expected one of {RANKING_SOURCES}")
        if source in METRICS:
            results = _load_cached_results(out, indices, source, template, vmap, cfg)
            rankings[source] = {
                r.instance_index: RankingOrder(r.instance_index, r.metric, r.ranking())
                for r in results
            }
        elif source == "random":
            seed = int(cfg["seed"])
            rankings[source] = {
                i.index: random_order(i, seed + i.index) for i in instances
            }
        else:
            cfg.require("external")
            external = load_external_ranking(cfg["external"], instances[0].keys)
            rankings[source] = {i.index: external.order_for(i) for i in instances}
    return rankings


def _deletion_curves(
    sources: list[str],
    instances: list[TabularInstance],
    out: Path,
    backend: Backend,
    template: PromptTemplate,
    vmap: VerbalizerMap,
    cfg: RunConfig,
) -> DeletionRun:
    """Run the deletion protocol for every source and write curves.csv and curves.json."""
    rankings = _build_rankings(sources, instances, out, template, vmap, cfg)
    run = run_deletion(
        instances, rankings, backend, template, vmap,
        max_removals=int(cfg["max_removals"]), top_k=int(cfg["top_k"]),
        workers=int(cfg["workers"]),
    )
    write_curves_csv(run, out / "curves.csv")
    write_curves_json(run, out / "curves.json")
    return run


def cmd_deletion_curve(cfg: RunConfig) -> int:
    cfg.require("dataset", "schema", "backend")
    out = _out_dir(cfg)
    dataset = load_dataset(cfg["dataset"], load_schema(cfg["schema"]))
    template = _resolve_template(cfg)
    vmap = _resolve_verbalizer(cfg)
    backend = _resolve_backend(cfg)
    sources = list(cfg["sources"])

    manifest_path = out / MANIFEST_NAME
    if manifest_path.exists():
        indices = list(CacheManifest.load(manifest_path).selected_test_indices)
    else:
        indices = _select_indices(cfg, len(dataset))
        ensure_manifest(manifest_path, indices, int(cfg["seed"]))
    by_index = {i.index: i for i in dataset}
    missing = [i for i in indices if i not in by_index]
    if missing:
        raise ConfigError(f"manifest indices not in dataset: {missing}")
    instances = [by_index[i] for i in indices]

    run = _deletion_curves(sources, instances, out, backend, template, vmap, cfg)
    _write_run_manifest(out, "deletion-curve", cfg)

    rows = [
        (source, f"{curve_auc(curve):.6f}", f"{curve.mean_probs[0]:.6f}")
        for source, curve in run.curves.items()
    ]
    _emit_summary(
        out,
        f"deletion-curve: instances={len(instances) - len(run.dropped)} "
        f"dropped={len(run.dropped)} max_removals={cfg['max_removals']}\n"
        + _summary_table(rows, ("source", "auc", "step0_prob")),
    )
    return 1 if run.dropped else 0


def cmd_compare(cfg: RunConfig) -> int:
    cfg.require("dataset", "schema", "external")
    out = _out_dir(cfg)
    dataset = load_dataset(cfg["dataset"], load_schema(cfg["schema"]))
    template = _resolve_template(cfg)
    vmap = _resolve_verbalizer(cfg)
    metric = cfg["metric"]

    manifest_path = out / MANIFEST_NAME
    if not manifest_path.exists():
        raise CacheError(f"no index manifest at {manifest_path}; run `tabattr attribute` first")
    indices = list(CacheManifest.load(manifest_path).selected_test_indices)
    results = _load_cached_results(out, indices, metric, template, vmap, cfg)

    ranking = global_ranking(results)
    external = load_external_ranking(cfg["external"], ranking.keys)
    if external.global_keys is None:
        raise ConfigError("compare needs a ranking file in the global form")
    if set(external.global_keys) != set(ranking.keys):
        raise ConfigError("external ranking must cover exactly the dataset's feature keys")
    rho = spearman_rho(ranking, list(external.global_keys))
    _write_rank_report(out, ranking, rho, list(external.global_keys))
    _write_run_manifest(out, "compare", cfg)
    _emit_summary(
        out,
        f"compare: metric={metric} instances={ranking.n_instances} "
        f"spearman_rho={rho:.6f}\n"
        + _summary_table(
            [(i + 1, k, e) for i, (k, e) in enumerate(zip(ranking.keys, external.global_keys))],
            ("rank", "tabattr", "external"),
        ),
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


def cmd_synth_demo(cfg: RunConfig) -> int:
    cfg.require("oracle")
    out = _out_dir(cfg)
    spec = SyntheticOracleSpec.from_json(cfg["oracle"])
    if len(spec.weights) < 2:
        raise ConfigError("oracle spec needs at least 2 weighted features")
    seed = int(cfg["seed"])
    instances = synthetic_instances(spec, int(cfg["n_instances"]), seed)
    by_index = {i.index: i for i in instances}
    indices = [i.index for i in instances]

    cfg["backend"] = f"synthetic:{cfg['oracle']}"
    backend = _resolve_backend(cfg)
    template = _resolve_template(cfg)
    vmap = VerbalizerMap.from_mapping({c: [c] for c in spec.classes})

    true_order = [k for k, _ in sorted(spec.weights.items(), key=lambda kv: (-abs(kv[1]), kv[0]))]
    external_path = out / "external_ranking.json"
    external_path.write_text(dump_canonical({"global": true_order}), encoding="utf-8")

    # Each instance is evaluated once, on its first cache miss, and that one
    # evaluation is scored under every metric.
    @functools.cache
    def evaluated(idx: int):
        return evaluate(
            by_index[idx], backend, template, vmap, _sampling_config(cfg), int(cfg["workers"])
        )

    summary_parts = []
    for metric in METRICS:
        config = _sampling_config(cfg, metric=metric)
        results = _attribute_into_cache(
            out, indices, template, vmap, config,
            lambda idx: score(evaluated(idx), metric), seed,
        )
        _write_results_json(out, metric, results)
        ranking = global_ranking(results)
        rho = spearman_rho(ranking, true_order)
        summary_parts.append((metric, ranking, rho))

    sources = ["jsd", "kl", "l1", "random", "external"]
    cfg["external"] = str(external_path)
    run = _deletion_curves(sources, instances, out, backend, template, vmap, cfg)

    _, jsd_ranking, jsd_rho = summary_parts[0]
    _write_rank_report(out, jsd_ranking, jsd_rho, true_order)
    _write_run_manifest(out, "synth-demo", cfg)

    auc_rows = [(s, f"{curve_auc(c):.6f}") for s, c in run.curves.items()]
    rho_rows = [(m, f"{rho:.6f}") for m, _, rho in summary_parts]
    _emit_summary(
        out,
        f"synth-demo: instances={len(instances)} seed={seed}\n"
        + _summary_table(rho_rows, ("metric", "rho_vs_true_order"))
        + _summary_table(auc_rows, ("source", "deletion_auc")),
    )
    return 1 if run.dropped else 0


def cmd_serialize(cfg: RunConfig) -> int:
    cfg.require("dataset", "schema")
    dataset = load_dataset(cfg["dataset"], load_schema(cfg["schema"]))
    index = int(cfg.get("index", 0))
    by_index = {i.index: i for i in dataset}
    if index not in by_index:
        raise ConfigError(f"--index {index} not in dataset of {len(dataset)} rows")
    instance = by_index[index]
    fields = instance.fields
    if cfg.get("omit"):
        removed = [k.strip() for k in str(cfg["omit"]).split(",") if k.strip()]
        fields = instance.fields_without_keys(removed)
    sys.stdout.write(build_prompt(_resolve_template(cfg), fields))
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
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TabAttrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
