"""tabattr benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oracle-protocol --seed 1 --seconds 30 --trace 0

The benchmark imports ``tabattr`` from ``src/`` of the checkout it sits in
and drives ``tabattr.cli.main`` in this process on inputs generated from
``--seed``. It repeats whole iterations of the workload until ``--seconds``
of timed work have passed, checks every iteration's output, and prints one
JSON object as the last line of standard output. With ``--trace 0`` that
holds the end-to-end metrics (see ``end_to_end``); with ``--trace 1`` it
holds the per-layer metrics of a run that alternates untraced and traced
iterations. A failed check or command exits non-zero and prints no result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    CommandFailed,
    dir_bytes,
    remove_tree,
    run_cli,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

#: Set-up is measured in this run and in this many fresh interpreters more;
#: ``setup_s`` is the median, so one slow start does not decide it.
SETUP_PROBES = 2

#: The metrics that depend on the inputs (calls, bytes, rank correlation) are
#: means over this many first iterations, so a faster program is measured on
#: the same inputs. Every run holds at least this many iterations.
INPUT_ITERATIONS = 6

END_TO_END = {
    "instances_per_s": "1/s",
    "record_instances_per_s": "1/s",
    "replay_instances_per_s": "1/s",
    "setup_s": "s",
    "backend_calls_per_instance": "count",
    "cpu_s_per_instance": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes_per_instance": "bytes",
    "rho_true_order": "rho",
}


def import_tabattr():
    """Import ``tabattr`` from this checkout's ``src/``, never from elsewhere."""
    package = ROOT / "src" / "tabattr"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tabattr sources at {package}")
    sys.path.insert(0, str(package.parent))
    import tabattr.cli

    if Path(tabattr.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported tabattr from {tabattr.__file__}, not {package}")
    return tabattr


class QueryCounter:
    """Counts ``Backend.query`` calls: the backend-call count of in-process workloads."""

    def __init__(self, backend_class):
        self.calls = 0
        self.owner = backend_class
        self.original = backend_class.query
        counter = self

        def query(*args, **kwargs):
            counter.calls += 1
            return counter.original(*args, **kwargs)

        backend_class.query = query

    def close(self) -> None:
        self.owner.query = self.original


def iterate(workload, seconds: float, trace: bool, tracer, min_iterations: int):
    """Run iterations until ``seconds`` of timed work; return one row per iteration."""
    counter = None
    if workload.endpoint is None:
        import tabattr.backends

        counter = QueryCounter(tabattr.backends.Backend)
    rows = []
    timed = 0.0
    limit = workload.max_iterations
    try:
        while (timed < seconds or len(rows) < min_iterations) and len(rows) != limit:
            traced = trace and len(rows) % 2 == 1
            it = workload.prepare(len(rows))
            before = workload.endpoint_stats()
            queries = counter.calls if counter else 0
            if traced:
                tracer.install()
                root = tracer.begin("bench.iteration")
            phase_walls = {}
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            for phase, commands in it.phases.items():
                p0 = time.perf_counter()
                for argv in commands:
                    run_cli(argv, tracer.call if traced else None)
                phase_walls[phase] = time.perf_counter() - p0
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if traced:
                tracer.end(root)
                tracer.uninstall()
            after = workload.endpoint_stats()
            if after is not None:
                endpoint = {k: after[k] - before[k] for k in after}
                calls = endpoint["status_200"]
            else:
                endpoint = None
                calls = counter.calls - queries
            quality = workload.check(it)
            rows.append({
                "traced": traced,
                "instances": it.instances,
                "wall": wall,
                "phases": phase_walls,
                "cpu": cpu,
                "calls": calls,
                "bytes": sum(dir_bytes(out) for out in it.outputs),
                "quality": quality,
                "endpoint": endpoint,
            })
            for out in it.outputs:
                remove_tree(out)
            timed += wall
    finally:
        if counter:
            counter.close()
    return rows


def end_to_end(rows: list[dict], setups: list[float]) -> dict[str, float]:
    """Times are totals over the run; input-dependent metrics are means over its start.

    A total, unlike a median over iterations, does not jump between the fast
    and the slow phases of a shared machine when the run spends about half
    its time in each.
    """
    instances = sum(r["instances"] for r in rows)

    def per_instance(value) -> float:
        return sum(value(r) for r in rows) / instances

    def first(per_iteration) -> float:
        return statistics.fmean(per_iteration(r) for r in rows[:INPUT_ITERATIONS])

    def phase_rate(phase: str) -> float:
        return 1.0 / per_instance(lambda r: r["phases"].get(phase, r["wall"]))

    return {
        "instances_per_s": 1.0 / per_instance(lambda r: r["wall"]),
        # A workload with a single phase reports its throughput under both names.
        "record_instances_per_s": phase_rate("record"),
        "replay_instances_per_s": phase_rate("replay"),
        "setup_s": statistics.median(setups),
        "backend_calls_per_instance": first(lambda r: r["calls"] / r["instances"]),
        "cpu_s_per_instance": per_instance(lambda r: r["cpu"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_bytes_per_instance": first(lambda r: r["bytes"] / r["instances"]),
        "rho_true_order": first(lambda r: r["quality"]["rho"]),
    }


def per_layer(rows: list[dict], tracer) -> dict[str, float]:
    traced = [r for r in rows if r["traced"]]
    untraced = [r for r in rows if not r["traced"]]
    instances = sum(r["instances"] for r in traced)
    endpoint = None
    if traced[0]["endpoint"] is not None:
        endpoint = {k: sum(r["endpoint"][k] for r in traced) for k in traced[0]["endpoint"]}
    metrics = tracer.layer_metrics(instances, endpoint)

    def wall_per_instance(subset):
        return statistics.median(r["wall"] / r["instances"] for r in subset)

    metrics["trace.overhead_s"] = wall_per_instance(traced) - wall_per_instance(untraced)
    gaps = [r["quality"]["auc"] for r in rows if "auc" in r["quality"]]
    metrics["faithfulness.auc_gap"] = statistics.median(gaps) if gaps else 0.0
    return metrics


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: imports, inputs and endpoint start."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # Only the smoke test lowers this, to keep its runs short.
    parser.add_argument("--min-iterations", type=int, default=INPUT_ITERATIONS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_tabattr()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    os.environ.pop("TABATTR_ENDPOINT", None)
    work = RUNS / f"{args.workload}-{os.getpid()}"
    remove_tree(work)
    workload = WORKLOADS[args.workload](work, args.seed)
    tracer = Tracer() if args.trace else None
    try:
        workload.setup()
        setup_s = time.perf_counter() - STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        rows = iterate(workload, args.seconds, bool(args.trace), tracer,
                       max(args.min_iterations, 2 * args.trace))
    except (CheckFailed, CommandFailed) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()
        remove_tree(work)

    if args.trace:
        values = per_layer(rows, tracer)
        tracer.dump(RUNS / f"trace-{args.workload}.jsonl.gz")
        units = PER_LAYER
    else:
        setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        values = end_to_end(rows, setups)
        units = END_TO_END
    attempted = sum(r["instances"] for r in rows)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
