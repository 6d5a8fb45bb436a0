"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload must emit exactly the metrics BENCHMARK.json names, each with
its unit, with every output check passing; ``--compare`` must read the
result sets; and without the package source the benchmark must refuse to
run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, run_py=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        cwd=run_py.parent.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _tiny(workload, trace, out):
    return _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny", "--out", str(out),
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = _tiny(workload, trace, tmp_path / "results.jsonl")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "end_to_end" if trace == 0 else "per_layer"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_compare_reads_two_result_sets(tmp_path):
    sets = []
    for label in ("base", "new"):
        out = tmp_path / f"{label}.jsonl"
        for trace in (0, 1):
            assert _tiny("fold_dense_windows", trace, out).returncode == 0
        sets.append(out)
    proc = _bench("--compare", *map(str, sets))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "fold_dense_windows" in proc.stdout
    assert "1/1 (workload, seed) runs match exactly" in proc.stdout


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        run_py=tmp_path / HERE.name / "run.py",
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
