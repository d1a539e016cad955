"""Tests of the benchmark itself: smoke runs of every workload and the refusal path.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_SKIPS = {"verify-m5": 0, "verify-m7": 4, "gap-sweep": 0}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _smoke(workload, seed=1):
    proc = _run(["--workload", workload, "--seed", str(seed), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(workload):
    result = _smoke(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["value"] > 0, spec["name"]
    assert metrics["fail_rate"]["value"] == 0
    assert metrics["checks_skipped"]["value"] == EXPECTED_SKIPS[workload]
    assert metrics["gapsolve.iterations"]["value"] > 0


def test_gap_sweep_iterations_repeat_for_a_seed():
    first = _smoke("gap-sweep", seed=7)["metrics"]
    second = _smoke("gap-sweep", seed=7)["metrics"]
    for name in ("gapsolve.iterations", "gapsolve.trivial_frac"):
        assert first[name]["value"] == second[name]["value"]


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
