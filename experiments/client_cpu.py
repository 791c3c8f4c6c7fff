"""Client CPU per HTTP request, at several worker counts.

Starts the benchmark's stand-in endpoint (``perfbench/endpoint.py``) in a
child process, on a generated 10-key oracle with a 10 ms median latency and
no scripted failures, and queries it through ``evaluate_prompts``. For each
worker count it first opens the connections the batches will use, one more
per warm-up batch, because the endpoint listens with a backlog of 5 and a
burst of new connections beyond it waits out SYN retries. Then it times 5
batches of 415 distinct prompts, the requests of one M=10 instance of the
``http-attribute`` workload, and prints the user+sys CPU time of this
process per request: the median of the 5 batches and each batch, in
microseconds. The server's CPU is the child's and is not counted.

Each worker count gets two rows:

* ``http``: a bare ``HttpBackend``, as ``attribute`` without ``--record``
  and the ``http-attribute`` workload use it;
* ``record``: the same wrapped in a ``RecordingBackend`` that appends every
  answer to a new file in a temporary directory, as ``--record`` and the
  record phase of the ``record-replay`` workload use it.

Run from the root of a checkout::

    PYTHONHASHSEED=0 python3 experiments/client_cpu.py

It imports ``tabattr`` from ``src/`` of the checkout it sits in.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tabattr.backends import HttpBackend, RecordingBackend, evaluate_prompts  # noqa: E402
from tabattr.tabular import (  # noqa: E402
    FeatureField,
    PromptTemplate,
    TabularInstance,
    build_prompts,
)

WORKERS = (1, 2, 8, 32)
BATCHES = 5
BATCH_PROMPTS = 415
M = 10
TOP_K = 2
LATENCY_MS = 10.0


def oracle(keys: list[str]) -> dict:
    return {"classes": ["yes", "no"], "weights": {k: 0.5 + i / 4 for i, k in enumerate(keys)},
            "bias": -2.0}


def prompts(rng: random.Random, keys: list[str], count: int, tag: str) -> list[str]:
    """``count`` distinct prompts over random nonempty coalitions of one row."""
    instance = TabularInstance(0, tuple(
        FeatureField(key, f"{tag}{rng.randrange(1000)}") for key in keys
    ))
    rows = set()
    while len(rows) < count:
        row = tuple(rng.random() < 0.5 for _ in keys)
        if any(row):
            rows.add(row)
    return build_prompts(PromptTemplate(), instance, np.array(sorted(rows)))


def time_batches(backend, rng: random.Random, keys: list[str], workers: int) -> list[float]:
    """Client CPU per request, in microseconds, of each timed batch."""
    for opened in range(1, workers + 1):
        evaluate_prompts(backend, prompts(rng, keys, opened, "w"), TOP_K, opened)
    per_request = []
    for batch in range(BATCHES):
        batch_prompts = prompts(rng, keys, BATCH_PROMPTS, f"b{batch}x")
        started = time.process_time()
        evaluate_prompts(backend, batch_prompts, TOP_K, workers)
        per_request.append((time.process_time() - started) / BATCH_PROMPTS * 1e6)
    return per_request


def main() -> int:
    rng = random.Random(0)
    keys = [f"f{i}" for i in range(M)]
    with tempfile.TemporaryDirectory() as work:
        spec = Path(work) / "oracle.json"
        spec.write_text(json.dumps(oracle(keys)), encoding="utf-8")
        server = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "endpoint.py"), "--oracle", str(spec),
             "--seed", "1", "--latency-ms", str(LATENCY_MS)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = server.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"endpoint did not start: {line!r}")
            url = f"http://127.0.0.1:{int(line.split()[1])}/"
            print("backend  workers  median_us_per_request  batches_us")
            for workers in WORKERS:
                for kind in ("http", "record"):
                    backend = HttpBackend(url, retries=0)
                    if kind == "record":
                        backend = RecordingBackend(backend, Path(work) / f"rec-{workers}.json")
                    with backend:
                        per_request = time_batches(backend, rng, keys, workers)
                    median = statistics.median(per_request)
                    batches = " ".join(f"{us:.0f}" for us in per_request)
                    print(f"{kind:7s}  {workers:7d}  {median:21.1f}  {batches}", flush=True)
        finally:
            server.terminate()
            server.wait(timeout=10)
            server.stdout.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
