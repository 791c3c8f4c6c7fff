"""Span tracer for the benchmark's traced run, installed from outside tabattr.

Each function in ``SPANS`` is replaced, at the module attribute its caller
looks up, by a wrapper that records a span: name, start, end, parent span and
thread. Spans stay in memory; the layer metrics are computed from them, and
they are written out, only after the run.

A span's self time is its duration minus the time its child spans in the
same thread cover. Spans a worker thread opens get the span the main thread
is blocked in as their parent, but do not count against its self time, so
the self times of the main thread's spans add up to the traced wall time.

A patch point that no longer exists (a later change may retire a function)
is reported as absent with a warning; that layer's metrics then read 0.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter

#: (layer name, module, attribute within the module). Each entry is the name
#: the caller looks up, so ``from .divergence import similarity`` inside
#: ``tabattr.attribution`` is patched as ``tabattr.attribution.similarity``.
SPANS = (
    ("attribution.compute_attributions", "tabattr.cli", "compute_attributions"),
    ("attribution.sample_extra", "tabattr.attribution", "sample_extra"),
    ("divergence.similarity", "tabattr.attribution", "similarity"),
    ("verbalizer.class_distribution", "tabattr.attribution", "class_distribution"),
    ("verbalizer.class_distribution", "tabattr.faithfulness", "class_distribution"),
    ("tabular.build_prompt", "tabattr.attribution", "build_prompt"),
    ("tabular.build_prompt", "tabattr.faithfulness", "build_prompt"),
    ("tabular.load_dataset", "tabattr.cli", "load_dataset"),
    ("backends.evaluate_prompts", "tabattr.attribution", "evaluate_prompts"),
    ("backends.evaluate_prompts", "tabattr.faithfulness", "evaluate_prompts"),
    ("backends.query", "tabattr.backends", "Backend.query"),
    ("backends.http", "tabattr.backends", "HttpBackend._fetch"),
    ("backends.record", "tabattr.backends", "RecordingBackend._fetch"),
    ("backends.replay.load", "tabattr.backends", "ReplayBackend.__init__"),
    ("cache.load_or_compute", "tabattr.cli", "load_or_compute"),
    ("faithfulness.run_deletion", "tabattr.cli", "run_deletion"),
    ("rank_compare.global_ranking", "tabattr.cli", "global_ranking"),
    ("rank_compare.spearman_rho", "tabattr.cli", "spearman_rho"),
)

#: File writes counted without a span, so their time stays in the caller's
#: self time: the recording store's rewrites and the attribution caches.
WRITE_COUNTERS = (
    ("backends.record.write", "tabattr.backends", "atomic_write_json"),
    ("cache.write", "tabattr.cache", "atomic_write_json"),
)

#: Per-layer metrics of the traced run, with their units. Counts, times and
#: bytes are totals over the traced iterations divided by their instances.
PER_LAYER = {
    "divergence.similarity.calls": "count/instance",
    "divergence.similarity.self_s": "s/instance",
    "verbalizer.class_distribution.calls": "count/instance",
    "verbalizer.class_distribution.self_s": "s/instance",
    "tabular.build_prompt.calls": "count/instance",
    "tabular.build_prompt.self_s": "s/instance",
    "tabular.load_dataset.self_s": "s/instance",
    "attribution.sample_extra.self_s": "s/instance",
    "attribution.compute_attributions.self_s": "s/instance",
    "backends.query.calls": "count/instance",
    "backends.query.distinct": "count/instance",
    "backends.query.dedup_ratio": "ratio",
    "backends.query.latency_ms.p50": "ms",
    "backends.query.latency_ms.p99": "ms",
    "backends.query.latency_ms.samples": "count",
    "backends.evaluate_prompts.wall_s": "s/instance",
    "backends.http.requests": "count/instance",
    "backends.http.retries": "count/instance",
    "backends.http.status_5xx": "count/instance",
    "backends.http.client_cpu_ms_per_request": "ms",
    "backends.http.injected_wait_s": "s/instance",
    "backends.record.writes": "count/instance",
    "backends.record.bytes_written": "bytes/instance",
    "backends.record.self_s": "s/instance",
    "backends.replay.load_s": "s/instance",
    "backends.replay.file_bytes": "bytes/instance",
    "cache.load_or_compute.calls": "count/instance",
    "cache.load_or_compute.self_s": "s/instance",
    "cache.load_or_compute.hits": "count/instance",
    "cache.load_or_compute.misses": "count/instance",
    "cache.write.count": "count/instance",
    "cache.write.bytes": "bytes/instance",
    "faithfulness.run_deletion.self_s": "s/instance",
    "faithfulness.run_deletion.prompts": "count/instance",
    "faithfulness.auc_gap": "AUC",
    "cli.main.self_s": "s/instance",
    "rank_compare.global_ranking.self_s": "s/instance",
    "rank_compare.spearman_rho.self_s": "s/instance",
    "trace.wall_s": "s/instance",
    "trace.unattributed_s": "s/instance",
    "trace.overhead_s": "s/instance",
}

ROOT_SPAN = "bench.iteration"


def _resolve(module: str, attribute: str):
    """(owner object, attribute name) of a patch point, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


def _argument(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Records spans and write counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.writes = defaultdict(lambda: [0, 0])  # name -> [count, bytes]
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack
        self._undo: list[tuple] = []

    # ----------------------------------------------------------- recording

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attr=None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, _clock(), 0.0, parent, threading.get_ident(), attr]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = _clock()
        self._stack().pop()

    def call(self, fn, *args, name: str = "cli.main", **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # ----------------------------------------------------------- wrappers

    def _span_wrapper(self, name: str, fn):
        tracer = self
        annotate = _ANNOTATE.get(name)
        finish = _FINISH.get(name)

        def wrapper(*args, **kwargs):
            attr = None
            if annotate is not None:
                try:
                    args, kwargs, attr = annotate(args, kwargs)
                except (IndexError, KeyError, TypeError, OSError) as exc:
                    tracer.warn(name, f"cannot read its arguments ({exc!r})")
            span = tracer.begin(name, attr)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
                if finish is not None and attr is not None:
                    span[5] = finish(attr)

        return wrapper

    def _write_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            size = os.path.getsize(path)
            with tracer._lock:
                tracer.writes[name][0] += 1
                tracer.writes[name][1] += size
            return result

        return wrapper

    def install(self) -> None:
        """Patch every point that exists; warn once about each absent one."""
        for table, make in ((SPANS, self._span_wrapper), (WRITE_COUNTERS, self._write_wrapper)):
            for name, module, attribute in table:
                target = _resolve(module, attribute)
                if target is None:
                    self.warn(name, f"{module}.{attribute} not found")
                    continue
                owner, attr_name = target
                own = vars(owner).get(attr_name)
                setattr(owner, attr_name, make(name, getattr(owner, attr_name)))
                self._undo.append((owner, attr_name, own))

    def warn(self, layer: str, reason: str) -> None:
        """Report a layer as absent, once per reason; its metrics then read 0."""
        entry = f"{layer}: {reason}"
        if entry not in self.absent:
            self.absent.append(entry)
            print(f"perfbench: warning: layer {layer} is absent: {reason}; "
                  "its metrics read 0", file=sys.stderr)

    def uninstall(self) -> None:
        """Put back exactly what ``install`` replaced."""
        while self._undo:
            owner, attr_name, own = self._undo.pop()
            if own is None:
                delattr(owner, attr_name)
            else:
                setattr(owner, attr_name, own)

    # ----------------------------------------------------------- results

    def self_times(self) -> dict[int, float]:
        """Self time of every span, keyed by ``id(span)``."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = span[3]
            if parent is not None and parent[4] == span[4]:
                covered[id(parent)] += span[2] - span[1]
        return {id(s): (s[2] - s[1]) - covered[id(s)] for s in self.spans}

    def layer_metrics(self, instances: int, endpoint: dict | None) -> dict[str, float]:
        """Every ``PER_LAYER`` metric the spans give: all but the overhead and AUC gap."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        wall: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span[0]] += 1
            self_s[span[0]] += own[id(span)]
            wall[span[0]] += span[2] - span[1]

        latencies: list[float] = []
        distinct: set[int] = set()
        prompts = hits = misses = replay_bytes = 0
        http_cpu = 0.0
        for span in self.spans:
            name, attr = span[0], span[5]
            if attr is None:
                continue
            if name == "backends.query" and not _inside(span, "backends.query"):
                latencies.append((span[2] - span[1]) * 1000.0)
                distinct.add(attr)
            elif name == "backends.evaluate_prompts" and _inside(span, "faithfulness.run_deletion"):
                prompts += attr
            elif name == "cache.load_or_compute":
                requested, computed = attr
                misses += computed[0]
                hits += requested - computed[0]
            elif name == "backends.replay.load":
                replay_bytes += attr
            elif name == "backends.http":
                http_cpu += attr

        endpoint = endpoint or {"requests": 0, "status_5xx": 0, "injected_wait_s": 0.0}
        requests = endpoint["requests"]
        n = float(instances)
        metrics = {
            "divergence.similarity.calls": calls["divergence.similarity"] / n,
            "divergence.similarity.self_s": self_s["divergence.similarity"] / n,
            "verbalizer.class_distribution.calls": calls["verbalizer.class_distribution"] / n,
            "verbalizer.class_distribution.self_s": self_s["verbalizer.class_distribution"] / n,
            "tabular.build_prompt.calls": calls["tabular.build_prompt"] / n,
            "tabular.build_prompt.self_s": self_s["tabular.build_prompt"] / n,
            "tabular.load_dataset.self_s": self_s["tabular.load_dataset"] / n,
            "attribution.sample_extra.self_s": self_s["attribution.sample_extra"] / n,
            "attribution.compute_attributions.self_s":
                self_s["attribution.compute_attributions"] / n,
            "backends.query.calls": len(latencies) / n,
            "backends.query.distinct": len(distinct) / n,
            "backends.query.dedup_ratio": len(distinct) / len(latencies) if latencies else 0.0,
            "backends.query.latency_ms.p50": _percentile(latencies, 50),
            "backends.query.latency_ms.p99": _percentile(latencies, 99),
            "backends.query.latency_ms.samples": len(latencies),
            "backends.evaluate_prompts.wall_s": wall["backends.evaluate_prompts"] / n,
            "backends.http.requests": requests / n,
            "backends.http.retries": (requests - calls["backends.http"]) / n,
            "backends.http.status_5xx": endpoint["status_5xx"] / n,
            "backends.http.client_cpu_ms_per_request":
                http_cpu * 1000.0 / requests if requests else 0.0,
            "backends.http.injected_wait_s": endpoint["injected_wait_s"] / n,
            "backends.record.writes": self.writes["backends.record.write"][0] / n,
            "backends.record.bytes_written": self.writes["backends.record.write"][1] / n,
            "backends.record.self_s": self_s["backends.record"] / n,
            "backends.replay.load_s": wall["backends.replay.load"] / n,
            "backends.replay.file_bytes": replay_bytes / n,
            "cache.load_or_compute.calls": calls["cache.load_or_compute"] / n,
            "cache.load_or_compute.self_s": self_s["cache.load_or_compute"] / n,
            "cache.load_or_compute.hits": hits / n,
            "cache.load_or_compute.misses": misses / n,
            "cache.write.count": self.writes["cache.write"][0] / n,
            "cache.write.bytes": self.writes["cache.write"][1] / n,
            "faithfulness.run_deletion.self_s": self_s["faithfulness.run_deletion"] / n,
            "faithfulness.run_deletion.prompts": prompts / n,
            "cli.main.self_s": self_s["cli.main"] / n,
            "rank_compare.global_ranking.self_s": self_s["rank_compare.global_ranking"] / n,
            "rank_compare.spearman_rho.self_s": self_s["rank_compare.spearman_rho"] / n,
            "trace.wall_s": wall[ROOT_SPAN] / n,
            "trace.unattributed_s": self_s[ROOT_SPAN] / n,
        }
        return metrics

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent line, thread."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"absent": self.absent}) + "\n")
            for span in self.spans:
                parent = index[id(span[3])] if span[3] is not None else None
                handle.write(json.dumps([span[0], span[1], span[2], parent, span[4]]) + "\n")


def _inside(span: list, name: str) -> bool:
    parent = span[3]
    while parent is not None:
        if parent[0] == name:
            return True
        parent = parent[3]
    return False


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Per-layer span attributes, computed from the call's arguments before it runs.


def _query(args, kwargs):
    prompt, k = _argument(args, kwargs, 1, "prompt"), _argument(args, kwargs, 2, "k")
    return args, kwargs, hash((prompt, k))


def _evaluate(args, kwargs):
    return args, kwargs, len(_argument(args, kwargs, 1, "prompts"))


def _replay_load(args, kwargs):
    return args, kwargs, os.path.getsize(_argument(args, kwargs, 1, "path"))


def _http(args, kwargs):
    """Start of the client CPU a fetch uses; ``_FINISH`` turns it into the CPU used."""
    return args, kwargs, time.thread_time()


def _load_or_compute(args, kwargs):
    """Count cache misses as calls of the ``compute_fn`` argument."""
    computed = [0]
    compute_fn = _argument(args, kwargs, 3, "compute_fn")

    def counting(idx):
        computed[0] += 1
        return compute_fn(idx)

    if len(args) > 3:
        args = args[:3] + (counting,) + args[4:]
    else:
        kwargs = {**kwargs, "compute_fn": counting}
    return args, kwargs, (len(_argument(args, kwargs, 1, "indices")), computed)


_ANNOTATE = {
    "backends.query": _query,
    "backends.evaluate_prompts": _evaluate,
    "backends.replay.load": _replay_load,
    "backends.http": _http,
    "cache.load_or_compute": _load_or_compute,
}

_FINISH = {
    "backends.http": lambda started: time.thread_time() - started,
}
