"""Smoke test of the benchmark: each workload at tiny size prints every metric with its unit.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_benchmark(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        # The layers' self times account for the traced wall time.
        assert 0.9 <= values["trace.self_share"] <= 1.0
    else:
        assert all(v > 0 for v in values.values()), values


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "bench_pair", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
