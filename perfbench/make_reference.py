"""Regenerate ``reference.json``: oracle-protocol phi and rankings per pool seed.

Run from the root of a checkout, at the commit whose results are the
reference::

    python3 perfbench/make_reference.py

For each of the ``ORACLE_POOL`` seeds it runs ``synth-demo`` on one instance
with the workload's settings and keeps the feature keys and, per metric, the
phi that every instance of that seed must reproduce (the oracle reads only
which keys are present, and all instances share the seed's coalitions).
"""

from __future__ import annotations

import json
import os
import sys

from run import RUNS, import_tabattr
from workloads import (
    ORACLE_POOL,
    REFERENCE_PATH,
    OracleProtocol,
    load_json,
    remove_tree,
    run_cli,
)


def main() -> int:
    import_tabattr()
    work = RUNS / f"reference-{os.getpid()}"
    workload = OracleProtocol(work, seed=0)
    workload.instances = 1
    reference = {}
    try:
        workload.setup()
        for entry in range(ORACLE_POOL):
            it = workload.prepare(entry)
            for argv in it.phases["run"]:
                run_cli(argv)
            out = it.outputs[0]
            first = {m: load_json(out / f"results_{m}.json")["0"] for m in ("jsd", "kl", "l1")}
            keys = first["jsd"]["feature_keys"]
            reference[str(entry)] = {"feature_keys": keys}
            for metric, result in first.items():
                reference[str(entry)][metric] = [result["phi"][k] for k in keys]
            remove_tree(out)
    finally:
        remove_tree(work)
    lines = [f'"{seed}": {json.dumps(entry, sort_keys=True)}' for seed, entry in reference.items()]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(reference)} pool seeds to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
