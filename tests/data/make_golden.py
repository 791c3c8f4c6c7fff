"""Write every golden fixture under ``tests/data`` from code.

    python tests/data/make_golden.py

Run it only on a deliberate change of a format: of the evaluation store's
line, or of the artifacts a command writes. The tests compare against these
files byte for byte, so rewriting them makes the tests pass whatever the code
writes now; say in the change why the bytes moved.

It writes:

* ``golden_store.jsonl``: the evaluation ``golden_evaluation`` of
  ``tests/test_cache.py`` builds, stored under the fingerprint ``golden``;
* ``golden_run/``: the files ``golden_run`` of ``tests/test_golden_run.py``
  compares, from a run in a temporary directory.

``decimal_store.jsonl`` and ``base64_store.jsonl`` are not written here: they
hold stores in formats the code no longer writes, and must stay as they are.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path[:0] = [str(DATA.parent), str(DATA.parents[1] / "src")]

from tabattr import load_or_evaluate  # noqa: E402
from test_cache import CONFIG, GOLDEN_INSTANCE, GOLDEN_STORE, golden_evaluation  # noqa: E402
from test_golden_run import GOLDEN_RUN, golden_run  # noqa: E402


def main() -> None:
    GOLDEN_STORE.unlink(missing_ok=True)
    load_or_evaluate(
        GOLDEN_STORE, [GOLDEN_INSTANCE], lambda _: golden_evaluation(), CONFIG, "golden"
    )
    with tempfile.TemporaryDirectory() as work:
        produced = golden_run(Path(work))
    shutil.rmtree(GOLDEN_RUN, ignore_errors=True)
    for name, content in produced.items():
        path = GOLDEN_RUN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    print(f"wrote {GOLDEN_STORE} and {len(produced)} files under {GOLDEN_RUN}")


if __name__ == "__main__":
    main()
