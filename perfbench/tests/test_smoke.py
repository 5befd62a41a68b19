"""Smoke test of the benchmark harness, with every workload shrunk to n=2, m=2.

It checks the schema of the results and that the traced runs record spans
in every layer; it does not check timings.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from layertrace import LAYERS, PER_LAYER  # noqa: E402
from run import END_TO_END, WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(out: dict, expected_units: dict) -> None:
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected_units
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = _run(workload, 0)
    _check_result(out, dict(END_TO_END))
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_runs_cover_every_layer():
    layers_seen = set()
    for workload in WORKLOADS:
        out = _run(workload, 1)
        _check_result(out, dict(PER_LAYER))
        covered = out["metrics"]["trace.covered_frac"]["value"]
        assert 0.5 < covered <= 1.0 + 1e-9
        record = json.loads((WORK / f"trace-{workload}-smoke-seed{SEED}.json").read_text())
        layers_seen |= {row["layer"] for row in record["spans"] if row["calls"] > 0}
    assert layers_seen == set(LAYERS)
