"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, untraced and traced, must print exactly the metrics
BENCHMARK.json names, each with its unit, with no failed run. Without
the chainsim source beside it the benchmark must refuse to run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def bench(workload: str, trace: int, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench(workload, trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert f"fail_ratio 0.0000 (0 failed of {result['attempted']} attempted)" in proc.stdout


def test_refuses_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = bench(BENCHMARK["workloads"][0]["name"], 0, str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
