"""Golden end-to-end runs on the synthetic oracle.

``synth-demo``, and ``attribute`` -> ``deletion-curve`` -> ``compare`` over a
small CSV, must write the same bytes as when the fixtures under
``tests/data/golden_run`` were made: the results, curves, rank reports,
summaries, index manifests and the true order. Left out are
``run_manifest.json``, which holds absolute paths, and ``evaluations.jsonl``,
whose line format ``tests/test_cache.py`` pins on its own.

The pipeline verbalizes three classes at ``--top-k 1``, and leaves the
oracle's " no" unmapped, so every coalition whose top answer is " no" has no
label mass: the zero-mass rows and their flags are part of the golden bytes.

``tests/data/make_golden.py`` writes these fixtures from :func:`golden_run`.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from tabattr import cli

GOLDEN_RUN = Path(__file__).resolve().parent / "data" / "golden_run"

WEIGHTS = {"age": 1.2, "hours": -0.8, "city": 0.5, "tenure": 2.0, "debt": -1.5, "job": 0.3}
ORACLE = {"classes": ["yes", "no"], "weights": WEIGHTS, "bias": -0.4}
DATASET = (
    "age,hours,city,tenure,debt,job,label\n"
    "41,40,paris,3,1200,clerk,yes\n"
    "29,,lyon,1,0,nurse,no\n"
    "63,20,nice,30,55.5,retired,yes\n"
    "35,45,paris,7,-3,teacher,no\n"
    "50,38,lille,12,800,clerk,yes\n"
)
SCHEMA = {"age": "numeric", "hours": "numeric", "city": "categorical", "tenure": "numeric",
          "debt": "numeric", "job": "categorical", "label": "label"}
VERBALIZER = {"yes": ["yes", "Y"], "maybe": ["maybe"], "unsure": ["unsure"]}
EXTERNAL = {"global": ["tenure", "debt", "age", "hours", "city", "job"]}

#: The files compared in each run's output directory.
COMPARED = ("results_*.json", "curves.csv", "curves.json", "rank_report_*.json", "summary.txt",
            "index_manifest.json", "external_ranking.json")


def golden_run(root: Path) -> dict[str, bytes]:
    """Write the inputs and run the golden commands under ``root``. Returns the
    compared files by their path below ``root``, and each run's ``stdout.txt``,
    the standard output of its commands in turn."""
    inputs = {"oracle.json": ORACLE, "schema.json": SCHEMA, "verbalizer.json": VERBALIZER,
              "external.json": EXTERNAL}
    for name, payload in inputs.items():
        (root / name).write_text(json.dumps(payload), encoding="utf-8")
    (root / "data.csv").write_text(DATASET, encoding="utf-8")
    oracle, demo, pipeline = root / "oracle.json", root / "synth-demo", root / "pipeline"
    tabular = ["--dataset", str(root / "data.csv"), "--schema", str(root / "schema.json"),
               "--backend", f"synthetic:{oracle}", "--verbalizer", str(root / "verbalizer.json"),
               "--top-k", "1", "--ratio", "0.5", "--seed", "2", "--out", str(pipeline)]
    external = ["--external", str(root / "external.json")]
    runs = {
        demo: [["synth-demo", "--oracle", str(oracle), "--n-instances", "3", "--seed", "5",
                "--max-coalitions", "40", "--out", str(demo)]],
        pipeline: [
            ["attribute", *tabular, "--instances", "3"],
            ["deletion-curve", *tabular, "--sources", "jsd,kl,random,external",
             "--max-removals", "4", *external],
            ["compare", *tabular, *external],
            ["compare", *tabular, "--metric", "kl", *external],
        ],
    }
    produced = {}
    for out, commands in runs.items():
        stdout = io.StringIO()
        for argv in commands:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            assert code == 0, f"{argv[0]} exited {code}"
        produced[f"{out.name}/stdout.txt"] = stdout.getvalue().encode("utf-8")
        for pattern in COMPARED:
            for path in sorted(out.glob(pattern)):
                produced[path.relative_to(root).as_posix()] = path.read_bytes()
    return produced


def test_golden_run_writes_the_fixtures_bytes(tmp_path):
    produced = golden_run(tmp_path)
    expected = {
        path.relative_to(GOLDEN_RUN).as_posix(): path.read_bytes()
        for path in sorted(GOLDEN_RUN.rglob("*")) if path.is_file()
    }
    assert sorted(produced) == sorted(expected)
    for name, content in produced.items():
        assert content == expected[name], f"{name} differs from its golden fixture"
