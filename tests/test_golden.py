"""Byte-for-byte golden exports.

* the demo deployment under s1-s4, exported as CSV and JSON through
  ``ranslice simulate``, and the ``ranslice compare`` summary as CSV and
  JSON;
* a synthetic deployment hit by a burst of DRBs at tick 0 that then
  drains, so every scaling unit (each CU, each dedicated DU pool, the
  shared DU pool) scales up and back down;
* the same burst on eight slices under s2 and s4, so shared instances
  carry many owners and most of the burst is rejected on them.

A refactor or optimisation must leave these files untouched. After an
intended output change, regenerate them with

    PYTHONPATH=src:tests python3 tests/test_golden.py
"""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path

import pytest

from helpers import build_descriptor_set, make_config

from ranslice.cli import main
from ranslice.orchestrator import ScaleTarget, ScalingCause, ScalingThresholds
from ranslice.resources import CapacityBudget, ResourceModelParams
from ranslice.sim import export, run
from ranslice.topology import Scenario

GOLDEN = Path(__file__).parent / "golden"
DEMO = Path(__file__).parent.parent / "demo"
SCENARIOS = ("s1", "s2", "s3", "s4")


def _cli(command: str, fmt: str, *extra: str, out: Path) -> None:
    status = main([command, "--descriptors", str(DEMO / "descriptors"),
                   "--config", str(DEMO / "config.yaml"),
                   "--out", str(out), "--format", fmt, *extra])
    assert status == 0


def synthetic_trace(scenario: str, n_slices: int = 2):
    ds = build_descriptor_set(n_slices=n_slices, du_counts=(1, 2, 4), cu_vcpus=(1, 2, 4),
                              du_vcpus=4)
    config = make_config(ds, ticks=60, params=ResourceModelParams(c0=0.02, k=0.004),
                         budget=CapacityBudget(4.0, 0.9),
                         thresholds=ScalingThresholds(hi=0.8, lo=0.3, window=3, cooldown=2),
                         initial_drbs=30, mean_holding=10.0, throughput_mbps=5.0,
                         scenario=Scenario.from_str(scenario))
    return run(config, ds)


def _synthetic(scenario: str, out: Path, n_slices: int = 2) -> None:
    export(synthetic_trace(scenario, n_slices), "json", str(out))


def _cases() -> dict:
    cases = {}
    for scenario in SCENARIOS:
        for fmt in ("csv", "json"):
            cases[f"demo-{scenario}.{fmt}"] = partial(
                _cli, "simulate", fmt, "--scenario", scenario)
        cases[f"synthetic-{scenario}.json"] = partial(_synthetic, scenario)
    for scenario in ("s2", "s4"):
        cases[f"synthetic8-{scenario}.json"] = partial(_synthetic, scenario, n_slices=8)
    for fmt in ("csv", "json"):
        cases[f"compare.{fmt}"] = partial(_cli, "compare", fmt)
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_export_matches_golden(name, tmp_path):
    out = tmp_path / name
    CASES[name](out=out)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_synthetic_case_scales_every_unit_both_ways():
    for scenario, pool in (("s1", ScaleTarget.DU), ("s4", ScaleTarget.SHARED_DU)):
        fired = {(e.target, e.cause) for row in synthetic_trace(scenario).rows
                 for e in row.events}
        for target in (ScaleTarget.CU, pool):
            assert (target, ScalingCause.LOAD_INCREASE) in fired, (scenario, target)
            assert (target, ScalingCause.LOAD_DECREASE) in fired, (scenario, target)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, write in CASES.items():
        write(out=GOLDEN / name)
    print(f"wrote {len(CASES)} golden files to {GOLDEN}", file=sys.stderr)
