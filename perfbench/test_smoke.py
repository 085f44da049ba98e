"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import bench  # noqa: E402
import tracer  # noqa: E402


def patch_targets() -> list[tuple[object, str]]:
    """Every (owner, name) the benchmark wraps, on the live package."""
    pkg = {short: sys.modules[f"vecoff.{short}"] for short in bench.PACKAGE_MODULES}
    probe = tracer.Tracer("probe", 1)
    probe.install(pkg)
    targets = [(owner, attr) for owner, attr, _ in probe.patched()]
    probe.restore()
    return targets


def defined_in_package(obj: object) -> bool:
    fn = getattr(obj, "__func__", obj)
    return getattr(fn, "__module__", "").startswith("vecoff")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_at_tiny_size(workload, trace, tmp_path):
    result = bench.run(workload, seed=3, seconds=1, trace=trace, out_dir=str(tmp_path),
                       tiny=True, log=io.StringIO())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = tracer.PER_LAYER_UNITS if trace else bench.E2E_UNITS
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == expected[name]
    if trace:
        (spans,) = tmp_path.iterdir()
        doc = json.loads(spans.read_text())
        assert len(doc["start"]) == len(doc["end"]) == len(doc["parent"]) > 0
        assert all(end >= start for start, end in zip(doc["start"], doc["end"]))
    else:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    targets = patch_targets()
    assert len(targets) > 30
    left = [f"{getattr(o, '__name__', o)}.{a}" for o, a in targets
            if not defined_in_package(vars(o)[a])]
    assert left == []


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
