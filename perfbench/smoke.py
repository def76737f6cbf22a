"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/smoke.py

Runs every workload in-process with a few ticks per pass, untraced and
traced, and checks that every metric BENCHMARK.json names is printed with
its unit and that no operation failed. It also checks that the benchmark
refuses to run, without printing a result, when only BENCHMARK.json and
perfbench/ are present. It says nothing about the benchmark's timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

run.load_program()
import workloads  # noqa: E402  (needs the program on the path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SHORT_TICKS = {"DEMO_TICKS": 20, "K16_TICKS": 10, "RAMP_TICKS": 150}


def run_short(monkeypatch, workload: str, trace: int) -> tuple[list[str], dict]:
    for name, ticks in SHORT_TICKS.items():
        monkeypatch.setattr(workloads, name, ticks)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                           "--trace", str(trace)])
    assert status == 0
    lines = out.getvalue().strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    gated = [w["name"] for w in BENCH["workloads"]]
    assert set(gated) <= set(run.WORKLOADS)
    assert set(run.WORKLOADS) - set(gated) == {"k16-pressure"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,kind,units", [
    (0, "end_to_end", run.END_TO_END_UNITS),
    (1, "per_layer", run.PER_LAYER_UNITS),
])
def test_prints_every_metric(monkeypatch, workload, trace, kind, units):
    lines, result = run_short(monkeypatch, workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert declared == units
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert any(line.startswith("output_sha256 ") for line in lines)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if workload == "ramp-scaling" and trace:
        assert result["metrics"]["orchestrator.scaling_events"]["value"] > 0


def test_refuses_without_program():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "demo-compare", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
