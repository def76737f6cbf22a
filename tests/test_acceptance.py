"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

from __future__ import annotations

import dataclasses
import math
import random
import time

from helpers import build_descriptor_set, make_config

from corpus import CORPUS

from ranslice.cli import main as cli_main
from ranslice.descriptors import parse_descriptor_set, validate
from ranslice.orchestrator import (
    AtBoundaryError,
    Direction,
    NoMatchingIlError,
    Orchestrator,
    ScaleTarget,
    ScalingThresholds,
)
from ranslice.resources import (
    CapacityBudget,
    ResourceModelParams,
    SliceLoad,
    calibrate_params,
    du_vcpu_consumption,
)
from ranslice.sim import McsAtom, run
from ranslice.topology import Drb, DrbQos, Scenario

_SYM_MU0 = 12 * 14 * 1000


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def _tput(ds, snssai, prbs, m, cr):
    profile = ds.nsst_for(snssai).slice_profile
    r = profile.dl_ul_symbol_ratio
    bits = m * cr * _SYM_MU0 * (2 ** profile.numerology_index) * r / (1 + r)
    return (bits * prbs - 1) / 1e6


def test_criterion_1_sharing_gain_reproduction():
    # Two slices calibrated to 65% and 15% DU vCPU consumption: a
    # 100-tick constant-demand run uses 2 DU VMs dedicated (s1) and one
    # shared DU VM at a combined 80% <= 100% (s2), with zero isolation
    # violations the whole way.
    started = time.perf_counter()
    ds = build_descriptor_set(n_slices=2)
    embb, urllc = ds.snssais()
    prbs_a, mcs_a = 80, (6, 0.8)
    prbs_b, mcs_b = 30, (4, 0.5)
    fit = calibrate_params([
        (SliceLoad(embb, prbs_a, *mcs_a), 0.65),
        (SliceLoad(urllc, prbs_b, *mcs_b), 0.15),
    ])
    assert fit.max_abs_residual < 1e-6

    base = make_config(
        ds, ticks=100, params=fit.params,
        budget=CapacityBudget(1.0, 0.9),
        thresholds=ScalingThresholds(hi=0.9, lo=0.05, window=5, cooldown=3),
        arrival_rate=0.0, initial_drbs=1, mean_holding=math.inf)
    profiles = []
    for profile, prbs, (m, cr) in ((base.profiles[0], prbs_a, mcs_a),
                                   (base.profiles[1], prbs_b, mcs_b)):
        profiles.append(dataclasses.replace(
            profile,
            qos=DrbQos(_tput(ds, profile.snssai, prbs, m, cr), 20.0, 0.99),
            mcs_distribution=(McsAtom(m, cr, 1.0),)))
    config = dataclasses.replace(base, profiles=tuple(profiles))

    du_vm_counts = {}
    violations = 0
    for scenario in (Scenario.S1_DEDICATED, Scenario.S2_ALL_SHARED):
        trace = run(dataclasses.replace(config, scenario=scenario), ds)
        counts = {len([i for i in row.instances if i.kind == "du"])
                  for row in trace.rows}
        du_vm_counts[scenario] = counts
        violations += sum(row.isolation_violations for row in trace.rows)
        if scenario is Scenario.S2_ALL_SHARED:
            shared_levels = {round(sum(i.consumption for i in row.instances
                                       if i.kind == "du"), 9)
                             for row in trace.rows}
            assert shared_levels == {round(0.65 + 0.15, 9)}

    elapsed = time.perf_counter() - started
    ok = (du_vm_counts[Scenario.S1_DEDICATED] == {2}
          and du_vm_counts[Scenario.S2_ALL_SHARED] == {1}
          and violations == 0
          and elapsed < 1.0)
    _report("criterion-1 sharing-gain", ok,
            f"du_vms s1={du_vm_counts[Scenario.S1_DEDICATED]} "
            f"s2={du_vm_counts[Scenario.S2_ALL_SHARED]}, "
            f"violations={violations}, {elapsed:.2f}s")


def test_criterion_2_instance_count_ordering():
    started = time.perf_counter()
    failures = []
    params, budget = ResourceModelParams(), CapacityBudget(1.0, 0.9)
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            ds = build_descriptor_set(n_slices=k, du_counts=(n,))
            totals = {}
            for sc in Scenario:
                orch = Orchestrator(ds, sc, params, budget)
                for s in ds.snssais():
                    orch.instantiate_subnet(s)
                totals[sc] = len(orch.instances())
            s1, s2 = totals[Scenario.S1_DEDICATED], totals[Scenario.S2_ALL_SHARED]
            s3, s4 = totals[Scenario.S3_CU_SHARED], totals[Scenario.S4_DU_SHARED]
            if not s2 <= s4 <= s3 <= s1:
                failures.append((k, n, totals))
            if n >= 2 and not (s2 < s4 < s3 < s1):
                failures.append((k, n, totals))
    elapsed = time.perf_counter() - started
    _report("criterion-2 instance-count-ordering", not failures and elapsed < 1.0,
            f"grid K x n = 3x3, {elapsed:.3f}s" if not failures else str(failures))


def test_criterion_3_cpu_model_shape_suite():
    params = ResourceModelParams(c0=0.05, k=0.0008, beta=0.35)
    snssai = build_descriptor_set(n_slices=1).snssais()[0]
    prbs_grid = list(range(10, 110, 10))          # 10 values
    cr_grid = [0.2, 0.4, 0.6, 0.8, 1.0]           # 5 values
    m_grid = [2, 4, 6, 8]                         # 4 values
    rel = 1e-12
    bad = 0

    def c(prbs, m, cr):
        return du_vcpu_consumption(SliceLoad(snssai, prbs, m, cr), params)

    expected_ratio = math.exp(2 * params.beta)
    for prbs in prbs_grid:
        for cr in cr_grid:
            for m in (2, 4, 6):
                ratio = (c(prbs, m + 2, cr) - params.c0) / (c(prbs, m, cr) - params.c0)
                if abs(ratio - expected_ratio) > rel * expected_ratio:
                    bad += 1
    for m in m_grid:
        for cr in cr_grid:
            values = [c(p, m, cr) for p in prbs_grid]
            for a, b, d in zip(values, values[1:], values[2:]):
                if abs((d - b) - (b - a)) > rel * max(1.0, abs(b)):
                    bad += 1
    for m in m_grid:
        for prbs in prbs_grid:
            values = [c(prbs, m, cr) for cr in cr_grid]
            for a, b, d in zip(values, values[1:], values[2:]):
                if abs((d - b) - (b - a)) > rel * max(1.0, abs(b)):
                    bad += 1

    _report("criterion-3 cpu-model-shape", bad == 0,
            f"4x10x5 grid, tolerance 1e-12, {bad} deviations")


def test_criterion_4_auxiliary_nsd_consistency():
    started = time.perf_counter()
    ds = build_descriptor_set(n_slices=3, du_counts=(1, 2, 3))
    k = 0.01 / (0.75 * math.exp(0.35 * 6))
    params = ResourceModelParams(c0=0.001, k=k, beta=0.35)
    rng = random.Random(2024)
    inconsistencies = 0
    wrong_transition_counts = 0

    for round_no in range(1000):
        orch = Orchestrator(ds, Scenario.S4_DU_SHARED, params,
                            CapacityBudget(4.0, 0.9))
        for s in ds.snssais():
            orch.instantiate_subnet(s)
        live: list = []
        executed_du_scalings = 0
        for step in range(rng.randint(4, 10)):
            op = rng.choice(("cu_up", "cu_down", "du_up", "du_down",
                             "admit", "admit", "depart"))
            s = rng.choice(ds.snssais())
            try:
                if op == "cu_up":
                    orch.scale(ScaleTarget.CU, Direction.UP, s)
                elif op == "cu_down":
                    orch.scale(ScaleTarget.CU, Direction.DOWN, s)
                elif op == "du_up":
                    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
                    executed_du_scalings += 1
                elif op == "du_down":
                    orch.scale(ScaleTarget.SHARED_DU, Direction.DOWN)
                    executed_du_scalings += 1
                elif op == "admit":
                    prbs = rng.randint(1, 40)
                    drb = Drb(f"c4-{round_no}-{step}", s,
                              DrbQos(_tput(ds, s, prbs, 6, 0.75), 20.0, 0.99))
                    if orch.admit_drb(s, drb, 6, 0.75).admitted:
                        live.append((s, drb.drb_id))
                elif op == "depart" and live:
                    sn, drb_id = live.pop(rng.randrange(len(live)))
                    orch.depart_drb(sn, drb_id)
            except (AtBoundaryError, NoMatchingIlError):
                pass
            du_levels = {sub.du_sl for sub in orch.subnets.values()}
            if du_levels != {orch.aux.current_il} or orch.findings:
                inconsistencies += 1
        aux_transitions = sum(1 for e in orch.events
                              if e.target is ScaleTarget.SHARED_DU)
        if aux_transitions != executed_du_scalings:
            wrong_transition_counts += 1

    elapsed = time.perf_counter() - started
    ok = inconsistencies == 0 and wrong_transition_counts == 0 and elapsed < 10.0
    _report("criterion-4 auxiliary-consistency", ok,
            f"1000 interleavings, {inconsistencies} inconsistencies, "
            f"{wrong_transition_counts} bad transition counts, {elapsed:.2f}s")


def test_criterion_5_admission_safety():
    started = time.perf_counter()
    ds = build_descriptor_set(n_slices=2, du_counts=(2, 3), du_vcpus=2)
    k = 0.01 / (0.75 * math.exp(0.35 * 6))
    params = ResourceModelParams(c0=0.002, k=k, beta=0.35,
                                 vnic_service_rate=3.0e4, pkt_per_prb=125.0)
    budget = CapacityBudget(2.0, 0.9)
    atoms = [(2, 0.3), (4, 0.5), (6, 0.75), (8, 0.9)]
    rng = random.Random(99)
    slices = ds.snssais()
    unsafe_states = 0
    saturated_admits = 0
    admitted_total = 0

    for seq_no in range(10000):
        orch = Orchestrator(ds, Scenario.S4_DU_SHARED, params, budget,
                            vnic_delay_cap_s=5e-3)
        for s in slices:
            orch.instantiate_subnet(s)
        for i in range(rng.randint(1, 6)):
            s = rng.choice(slices)
            m, cr = atoms[rng.randrange(len(atoms))]
            prbs = rng.randint(1, 140)
            drb = Drb(f"c5-{seq_no}-{i}", s,
                      DrbQos(_tput(ds, s, prbs, m, cr), 20.0, 0.99))
            if orch.admit_drb(s, drb, m, cr).admitted:
                admitted_total += 1

            # independent recomputation of the post-admission state on
            # the shared DU pool, from the admitted DRB lists
            pool = sum(inst.kind == "du" for inst in orch.instances())
            per_slice = {}
            for sn in slices:
                demand = orch.subnets[sn].demand_prbs()
                worst_share = demand // pool + (1 if demand % pool else 0)
                mm, ccr = orch._slice_mcs(sn)
                per_slice[sn] = du_vcpu_consumption(
                    SliceLoad(sn, worst_share, mm, ccr), params)
            capacity = 2.0  # du flavour vCPUs
            if sum(per_slice.values()) > capacity:
                unsafe_states += 1
            if any(c > 0.9 * capacity for c in per_slice.values()):
                unsafe_states += 1
            worst_prbs = sum(
                orch.subnets[sn].demand_prbs() // pool
                + (1 if orch.subnets[sn].demand_prbs() % pool else 0)
                for sn in slices)
            if params.pkt_per_prb * worst_prbs >= params.vnic_service_rate:
                saturated_admits += 1

    elapsed = time.perf_counter() - started
    ok = (unsafe_states == 0 and saturated_admits == 0
          and admitted_total > 0 and elapsed < 30.0)
    _report("criterion-5 admission-safety", ok,
            f"10000 sequences, {admitted_total} admitted, "
            f"{unsafe_states} unsafe, {saturated_admits} saturated, {elapsed:.1f}s")


def test_criterion_6_descriptor_validation_oracle():
    mismatches = []
    for name, docs, expected in CORPUS:
        report = validate(parse_descriptor_set(docs))
        got = report.codes()
        if got != expected:
            mismatches.append((name, sorted(expected), sorted(got)))
    _report("criterion-6 validation-oracle", not mismatches,
            f"{len(CORPUS)} labeled sets, 0 misclassified" if not mismatches
            else str(mismatches))


def test_criterion_7_simulate_determinism(tmp_path):
    import yaml
    from helpers import build_documents

    d = tmp_path / "descriptors"
    d.mkdir()
    for i, doc in enumerate(build_documents()):
        (d / f"doc-{i}.yaml").write_text(doc)
    config = {
        "ticks": 40, "total_prbs": 273, "seed": 123,
        "budget": {"vcpu_capacity": 1.0, "per_slice_cap": 0.9},
        "resource": {"c0": 0.01, "k": 0.0001, "beta": 0.35, "cu_scale": 0.3,
                     "vnic_mu": 100000.0, "pkt_per_prb": 125.0},
        "scaling": {"hi": 0.8, "lo": 0.3, "window": 5, "cooldown": 3},
        "admission": {"vnic_delay_cap_ms": 5.0},
        "profiles": [
            {"snssai": {"service_type": "eMBB"}, "drb_arrival_rate": 0.7,
             "mean_holding": 6,
             "qos": {"throughput_mbps": 25.0, "latency_ms": 20.0, "reliability": 0.99},
             "mcs": [{"modulation_order": 6, "code_rate": 0.75, "p": 0.7},
                     {"modulation_order": 4, "code_rate": 0.5, "p": 0.3}],
             "seed": 1},
            {"snssai": {"service_type": "uRLLC"}, "drb_arrival_rate": 0.4,
             "mean_holding": 4,
             "qos": {"throughput_mbps": 8.0, "latency_ms": 5.0, "reliability": 0.999},
             "mcs": [{"modulation_order": 4, "code_rate": 0.5, "p": 1.0}],
             "seed": 2},
        ],
    }
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(config))

    exports = []
    for attempt in ("one", "two"):
        for fmt in ("csv", "json"):
            out = tmp_path / f"{attempt}.{fmt}"
            rc = cli_main(["simulate", "--descriptors", str(d), "--config", str(cfg),
                           "--scenario", "s4", "--out", str(out), "--format", fmt])
            assert rc == 0
        exports.append(((tmp_path / f"{attempt}.csv").read_bytes(),
                        (tmp_path / f"{attempt}.json").read_bytes()))
    ok = exports[0] == exports[1]
    _report("criterion-7 determinism", ok,
            "byte-identical csv and json exports across two invocations")
