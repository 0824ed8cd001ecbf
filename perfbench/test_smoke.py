"""Smoke test of the benchmark itself: every workload at a tiny operation
count, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that the result line has exactly its four keys, that every
metric BENCHMARK.json names is printed with its unit, that every answer was
checked, and that the benchmark refuses to run without the package sources.
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
MAX_OPS = 8


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--max-ops", str(MAX_OPS)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= MAX_OPS and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    report = json.loads(lines[-2].removeprefix("report "))
    assert report["checked"] == report["ops_per_pass"] == MAX_OPS
    assert report["answers_stable"] and report["violations"] == 0
    for name, m in report["end_to_end"].items():
        assert m["unit"] and m["samples"] >= 1, name
    if not trace:
        for m in SPEC["end_to_end"]:
            assert m["name"] in proc.stdout.split("report ")[0]


def test_refuses_without_sources():
    """A directory holding only BENCHMARK.json and perfbench/ has no program
    to measure: the run must fail without printing a result."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "branch", 0)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
