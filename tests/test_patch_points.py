"""The benchmark's tracer finds its patch points in tabattr.

``perfbench/tracer.py`` wraps tabattr functions by name from outside, so a
rename or removal silently zeroes that layer's metrics. Eight of its names
already point at functions that are gone; no other name may go missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

GONE = {
    "tabattr.attribution.similarity",
    "tabattr.backends.atomic_write_json",
    "tabattr.cli.load_or_compute",
    "tabattr.cli.compute_attributions",
    "tabattr.attribution.build_prompt",
    "tabattr.faithfulness.build_prompt",
    "tabattr.attribution.class_distribution",
    "tabattr.faithfulness.class_distribution",
}

LIVE = {
    "tabattr.cli.load_dataset",
    "tabattr.cli.run_deletion",
    "tabattr.cli.global_ranking",
    "tabattr.cli.spearman_rho",
    "tabattr.faithfulness.evaluate_prompts",
    "tabattr.backends.ReplayBackend.__init__",
    "tabattr.backends.RecordingBackend._fetch",
    "tabattr.backends.HttpBackend._fetch",
}


def test_only_the_gone_patch_points_are_absent(capsys):
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    traced = tracer.Tracer()
    try:
        traced.install()
    finally:
        traced.uninstall()
    # Each entry reads "<layer>: <module>.<attribute> not found".
    absent = {entry.split(": ", 1)[1].removesuffix(" not found") for entry in traced.absent}
    assert absent <= GONE
    points = {f"{module}.{name}" for _, module, name in tracer.SPANS + tracer.WRITE_COUNTERS}
    assert LIVE <= points - absent
