"""Seeded inputs, the three workloads, and the checks on their outputs.

Each workload is a closed loop driven from one client process: an iteration
runs ``tabattr.cli.main`` subcommands on generated files into fresh output
directories, and the next iteration starts only when it has finished.
Iteration ``i`` works on instances no earlier iteration used, so a cache
that lives inside the process cannot turn later iterations into replays.

The program sees only the generated files: oracle specs, a CSV with its
schema, a verbalizer and an external ranking. The stand-in endpoint's
latency schedule comes from the same seed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import urllib.request
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Oracle-protocol inputs come from a fixed pool of seeds, so that every
#: iteration has a committed reference; the run seed picks the start. A run
#: never uses a pool seed twice: it ends when the pool is used up, which at
#: the seed commit's speed is after some 4.5 times the iterations of a 30 s run.
ORACLE_POOL = 128
TOLERANCE = 1e-12

#: Sampling settings shared by every workload; these are tabattr's defaults,
#: pinned here so a change of default cannot change the workload.
SAMPLING = ["--ratio", "0.4", "--max-coalitions", "800", "--top-k", "10"]

COLUMN_WORDS = (
    "age", "workclass", "education", "education num", "marital status",
    "occupation", "relationship", "race", "sex", "capital gain", "capital loss",
    "hours per week", "native country", "credit amount", "loan duration",
    "savings", "checking status", "housing", "employment since", "job",
    "installment rate", "residence since", "existing credits", "dependents",
    "purpose", "property", "telephone", "foreign worker",
)
CATEGORIES = (
    "Private", "Self Emp", "Never Married", "Married Civ Spouse", "United States",
    "Bachelors", "Some College", "HS Grad", "Own Child", "Husband", "Craft Repair",
    "Exec Managerial", "Skilled", "Unskilled Resident", "No Checking", "Radio TV",
)
CLASS_PAIRS = (("yes", "no"), ("approve", "deny"), ("high", "low"), ("good", "bad"))


class CheckFailed(Exception):
    """A workload's output disagrees with its reference."""


class CommandFailed(Exception):
    """A tabattr subcommand returned a non-zero exit code."""


# --------------------------------------------------------------------------- inputs


def oracle_spec(seed: int, m: int) -> dict:
    """Logistic oracle over ``m`` keys with geometrically spaced positive weights.

    All weights are positive and the r-th largest is about 2 * 0.75**r, so
    the true order is well defined and the rank correlation the estimator
    reaches varies little from seed to seed. The full input sits at score +3.
    """
    rng = random.Random(f"oracle-{m}-{seed}")
    names = rng.sample(COLUMN_WORDS, m)
    keys = [n.replace(" ", "_") for n in names]
    magnitudes = [2.0 * 0.75**r * rng.uniform(0.9, 1.1) for r in range(m)]
    by_rank = keys[:]
    rng.shuffle(by_rank)
    weights = {k: magnitudes[by_rank.index(k)] for k in keys}
    return {
        "classes": list(rng.choice(CLASS_PAIRS)),
        "weights": weights,
        "bias": 3.0 - sum(magnitudes),
        "link": "logistic",
    }


def true_order(spec: dict) -> list[str]:
    return [k for k, _ in sorted(spec["weights"].items(), key=lambda kv: (-abs(kv[1]), kv[0]))]


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def write_tabular_inputs(directory: Path, seed: int, m: int, rows: int) -> dict[str, Path]:
    """CSV, schema, verbalizer, oracle and true-order files for one seed."""
    directory.mkdir(parents=True, exist_ok=True)
    spec = oracle_spec(seed, m)
    rng = random.Random(f"rows-{seed}")
    keys = list(spec["weights"])
    headers = [k.replace("_", " ").title() for k in keys]
    kinds = {h: rng.choice(("numeric", "categorical")) for h in headers}
    lines = [",".join(headers + ["Outcome"])]
    for _ in range(rows):
        cells = []
        for h in headers:
            if rng.random() < 0.05:
                cells.append("")
            elif kinds[h] == "numeric":
                cells.append(f"{rng.uniform(0, 1000):.2f}")
            else:
                cells.append(rng.choice(CATEGORIES))
        cells.append(rng.choice(spec["classes"]))
        lines.append(",".join(cells))
    (directory / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "dataset": directory / "data.csv",
        "schema": write_json(directory / "schema.json", {**kinds, "Outcome": "label"}),
        "verbalizer": write_json(
            directory / "verbalizer.json", {c: [c, c.upper()] for c in spec["classes"]}
        ),
        "oracle": write_json(directory / "oracle.json", spec),
        "external": write_json(directory / "true_order.json", {"global": true_order(spec)}),
    }


# --------------------------------------------------------------------------- helpers


def run_cli(argv: list[str], call=None) -> None:
    """Run one ``tabattr`` subcommand in this process; its summary goes nowhere.

    ``call(fn, argv)`` lets the tracer put a span around ``cli.main``.
    """
    import tabattr.cli

    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        rc = call(tabattr.cli.main, argv) if call else tabattr.cli.main(argv)
    if rc != 0:
        raise CommandFailed(f"tabattr {' '.join(argv)} exited with {rc}")


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def trapezoid(ys, xs) -> float:
    return sum((x1 - x0) * (y0 + y1) / 2.0 for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))


def rho_true_order(out: Path) -> float:
    """Spearman rho of the jsd global ranking against the oracle's true order."""
    return float(load_json(out / "rank_report_jsd.json")["spearman_rho"])


def auc_gap(out: Path) -> float:
    """Deletion AUC of the random order minus that of the jsd ranking."""
    curves = load_json(out / "curves.json")["curves"]
    auc = {s: trapezoid(curves[s]["mean_probs"], curves[s]["fractions"]) for s in ("jsd", "random")}
    return auc["random"] - auc["jsd"]


def instance_ranking(entry: dict) -> list[str]:
    """Keys by descending phi, ties in field order (``AttributionResult.ranking``)."""
    keys = entry["feature_keys"]
    return sorted(keys, key=lambda k: (-entry["phi"][k], keys.index(k)))


def check_phi(results: dict, expected: dict, where: str) -> None:
    """Every instance's phi within TOLERANCE of ``expected``, rankings identical.

    ``expected`` maps instance index (str) to ``{"phi": {key: value}, "ranking": [...]}``.
    """
    if set(results) != set(expected):
        raise CheckFailed(f"{where}: instances {sorted(results)} != expected {sorted(expected)}")
    for idx, entry in results.items():
        want = expected[idx]
        if set(entry["phi"]) != set(want["phi"]):
            raise CheckFailed(f"{where}: instance {idx} has keys {sorted(entry['phi'])}")
        worst = max(abs(entry["phi"][k] - want["phi"][k]) for k in want["phi"])
        if not worst <= TOLERANCE:
            raise CheckFailed(f"{where}: instance {idx} phi differs by {worst:.3e}")
        if instance_ranking(entry) != list(want["ranking"]):
            raise CheckFailed(f"{where}: instance {idx} ranking differs")


def expected_from(results: dict) -> dict:
    """``check_phi``'s expectation: the phi and ranking of each instance in ``results``."""
    return {
        idx: {"phi": entry["phi"], "ranking": instance_ranking(entry)}
        for idx, entry in results.items()
    }


# --------------------------------------------------------------------------- endpoint


class Endpoint:
    """The stand-in endpoint child process and its counters."""

    def __init__(self, oracle: Path, seed: int, latency_ms: float, fail_every: int):
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "endpoint.py"), "--oracle", str(oracle),
                "--seed", str(seed), "--latency-ms", str(latency_ms),
                "--fail-every", str(fail_every),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"endpoint did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base + "/"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------------- workloads


@dataclass
class Iteration:
    """What one iteration ran and left behind; filled by the workload."""

    index: int
    instances: int
    phases: dict[str, list[list[str]]]
    outputs: list[Path]


class Workload:
    name: str
    instances: int
    endpoint: Endpoint | None = None
    #: Iterations with distinct inputs a run can hold; None for no limit.
    max_iterations: int | None = None

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None

    def endpoint_stats(self) -> dict | None:
        return self.endpoint.stats() if self.endpoint else None


class OracleProtocol(Workload):
    """``synth-demo`` at M=14 on the in-process oracle: jsd, kl, l1, deletion, compare."""

    name = "oracle-protocol"
    m = 14
    instances = 2
    max_iterations = ORACLE_POOL

    def setup(self) -> None:
        self.specs = {}
        for entry in range(ORACLE_POOL):
            path = self.work / "oracles" / f"oracle_{entry:02d}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            self.specs[entry] = write_json(path, oracle_spec(entry, self.m))

    def entry(self, i: int) -> int:
        return (self.seed + i) % ORACLE_POOL

    def prepare(self, i: int) -> Iteration:
        entry = self.entry(i)
        out = self.work / f"it{i}"
        argv = [
            "synth-demo", "--oracle", str(self.specs[entry]), "--n-instances",
            str(self.instances), "--seed", str(entry), "--max-removals", "10",
            *SAMPLING, "--out", str(out),
        ]
        return Iteration(i, self.instances, {"run": [argv]}, [out])

    def check(self, it: Iteration) -> dict[str, float]:
        out = it.outputs[0]
        reference = load_json(REFERENCE_PATH)[str(self.entry(it.index))]
        keys = reference["feature_keys"]
        for metric in ("jsd", "kl", "l1"):
            results = load_json(out / f"results_{metric}.json")
            want = {"feature_keys": keys, "phi": dict(zip(keys, reference[metric]))}
            want["ranking"] = instance_ranking(want)
            check_phi(results, {idx: want for idx in results}, f"{self.name} {metric}")
            if len(results) != it.instances:
                raise CheckFailed(f"{self.name}: {len(results)} {metric} results")
            if metric == "jsd":
                report = load_json(out / "rank_report_jsd.json")
                if [e["key"] for e in report["global_ranking"]["ranking"]] != want["ranking"]:
                    raise CheckFailed(f"{self.name}: global jsd ranking differs")
        return {"rho": rho_true_order(out), "auc": auc_gap(out)}


class _Tabular(Workload):
    """Shared inputs of the two workloads that read a generated CSV.

    Iteration ``i`` samples coalitions with its own seed, so the rank
    correlation is a median over several samples rather than one.
    """

    m = 10
    rows = 400
    instances = 1
    latency_ms = 0.0
    fail_every = 0

    def setup(self) -> None:
        self.inputs = write_tabular_inputs(self.work / "inputs", self.seed, self.m, self.rows)
        self.endpoint = Endpoint(
            self.inputs["oracle"], self.seed, self.latency_ms, self.fail_every
        )

    def common(self, i: int, out: Path, backend: str) -> list[str]:
        first = (i * self.instances) % self.rows
        indices = ",".join(str((first + j) % self.rows) for j in range(self.instances))
        return [
            "--dataset", str(self.inputs["dataset"]), "--schema", str(self.inputs["schema"]),
            "--verbalizer", str(self.inputs["verbalizer"]), "--backend", backend,
            "--metric", "jsd", "--seed", str(self.seed * 1000 + i), "--indices", indices,
            *SAMPLING, "--out", str(out),
        ]


class HttpAttribute(_Tabular):
    """``attribute --metric jsd --workers 2`` against the stand-in endpoint.

    The median latency, 10 ms, is that of the probe the workload was planned
    on, and lies within the 5-50 ms the roadmap names for this server. The
    503 rate is the benchmark's own choice, not a measured one: the roadmap
    asks for scripted 5xx answers without a rate. About 1% puts some four
    retries, each after the client's 0.25 s backoff, into every instance of
    some 420 requests, so every iteration takes the retry path. A retry goes
    out some 20 requests after its 503, long before the next one, so no
    query fails.
    """

    name = "http-attribute"
    latency_ms = 10.0
    fail_every = 97

    def prepare(self, i: int) -> Iteration:
        out = self.work / f"it{i}"
        argv = ["attribute", *self.common(i, out, self.endpoint.url), "--workers", "2"]
        return Iteration(i, self.instances, {"run": [argv]}, [out])

    def check(self, it: Iteration) -> dict[str, float]:
        """phi equals the in-process ``SyntheticBackend`` run on the same rows."""
        ref = self.work / f"ref{it.index}"
        common = self.common(it.index, ref, f"synthetic:{self.inputs['oracle']}")
        run_cli(["attribute", *common])
        got = load_json(it.outputs[0] / "results_jsd.json")
        check_phi(got, expected_from(load_json(ref / "results_jsd.json")), self.name)
        # This workload runs no compare command of its own; phi is equal, so
        # the reference run's compare gives the rank correlation of this run.
        run_cli(["compare", *common, "--external", str(self.inputs["external"])])
        rho = rho_true_order(ref)
        remove_tree(ref)
        return {"rho": rho}


class RecordReplay(_Tabular):
    """Record ``attribute`` + ``deletion-curve`` over HTTP, then replay them plus ``compare``."""

    name = "record-replay"

    def prepare(self, i: int) -> Iteration:
        rec, rep = self.work / f"rec{i}", self.work / f"rep{i}"
        recording = rec / "recording.json"
        live = self.common(i, rec, self.endpoint.url) + ["--record", str(recording)]
        replay = self.common(i, rep, f"replay:{recording}")
        sources = ["--sources", "jsd,random"]
        return Iteration(
            i,
            self.instances,
            {
                "record": [["attribute", *live], ["deletion-curve", *live, *sources]],
                "replay": [
                    ["attribute", *replay],
                    ["deletion-curve", *replay, *sources],
                    ["compare", *replay, "--external", str(self.inputs["external"])],
                ],
            },
            [rec, rep],
        )

    def check(self, it: Iteration) -> dict[str, float]:
        """The replay phase's results and curves are byte-identical to the record phase's."""
        rec, rep = it.outputs
        for name in ("results_jsd.json", "curves.json"):
            if (rec / name).read_bytes() != (rep / name).read_bytes():
                raise CheckFailed(f"{self.name}: replayed {name} differs from the recorded one")
        return {"rho": rho_true_order(rep), "auc": auc_gap(rep)}


WORKLOADS = {w.name: w for w in (OracleProtocol, HttpAttribute, RecordReplay)}
