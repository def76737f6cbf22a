from __future__ import annotations

import copy
import math
import random

import pytest

from helpers import build_descriptor_set, build_documents

from ranslice.descriptors import DescriptorSet, Snssai, parse_descriptor_set
from ranslice.orchestrator import (
    AtBoundaryError,
    DescriptorInvalidError,
    Direction,
    NoMatchingIlError,
    Orchestrator,
    OrchestrationError,
    REJECT_VCPU_CAP,
    REJECT_VNIC_DELAY,
    REJECT_VNIC_SATURATED,
    ScaleTarget,
    ScalingThresholds,
    UnknownSnssaiError,
    evaluate_scaling_policy,
)
from ranslice.resources import CapacityBudget, ResourceModelParams
from ranslice.topology import Drb, DrbQos, Scenario

# k chosen so one PRB at (m=6, cr=0.75) consumes exactly 0.01 vCPU;
# c0 = 0 keeps per-slice consumption additive over DRBs.
K_PER_PRB = 0.01 / (0.75 * math.exp(0.35 * 6))
PARAMS = ResourceModelParams(c0=0.0, k=K_PER_PRB, beta=0.35)
BUDGET = CapacityBudget(vcpu_capacity=1.0, per_slice_cap=0.9)

_SYM_MU0 = 12 * 14 * 1000


def tput_for_prbs(ds: DescriptorSet, snssai: Snssai, prbs: int,
                  m: int = 6, cr: float = 0.75) -> float:
    """Throughput (Mb/s) that estimates to exactly ``prbs`` PRBs for the
    slice's numerology and symbol ratio."""
    profile = ds.nsst_for(snssai).slice_profile
    ratio = profile.dl_ul_symbol_ratio
    bits_per_prb = m * cr * _SYM_MU0 * (2 ** profile.numerology_index) * ratio / (1 + ratio)
    return (bits_per_prb * prbs - 1) / 1e6


def make_orch(ds, scenario=Scenario.S4_DU_SHARED, params=PARAMS, budget=BUDGET,
              thresholds=None, vnic_delay_cap_s=2e-3, instantiate=True):
    orch = Orchestrator(ds, scenario, params, budget,
                        thresholds or ScalingThresholds(), vnic_delay_cap_s)
    if instantiate:
        for s in ds.snssais():
            orch.instantiate_subnet(s)
    return orch


def admit_prbs(orch, ds, snssai, prbs, drb_id=None, m=6, cr=0.75):
    drb = Drb(drb_id or f"{snssai.key()}-{prbs}",
              snssai, DrbQos(tput_for_prbs(ds, snssai, prbs, m, cr), 20.0, 0.99))
    return orch.admit_drb(snssai, drb, m, cr)


def du_ids(orch):
    return [i.instance_id for i in orch.instances() if i.kind == "du"]


# -- instantiation ------------------------------------------------------------

def test_first_subnet_creates_aux_at_lowest_il(ds_two_slices):
    orch = make_orch(ds_two_slices, instantiate=False)
    embb, urllc = ds_two_slices.snssais()
    orch.instantiate_subnet(embb)
    assert orch.aux is not None
    assert orch.aux.current_il == "du-sl-1"
    assert du_ids(orch) == ["du-shared-1"]

    before = copy.deepcopy(orch.aux)
    orch.instantiate_subnet(urllc)
    assert orch.aux == before  # reused, not recreated


def test_dedicated_scenario_has_no_aux(ds_two_slices):
    orch = make_orch(ds_two_slices, scenario=Scenario.S1_DEDICATED)
    assert orch.aux is None


def test_subnet_starts_at_lowest_il(ds_two_slices):
    orch = make_orch(ds_two_slices, scenario=Scenario.S1_DEDICATED)
    for subnet in orch.subnets.values():
        assert subnet.current_il == "il-1-1"
        assert (subnet.cu_sl, subnet.du_sl) == ("cu-sl-1", "du-sl-1")


def test_unknown_snssai_rejected(ds_two_slices):
    orch = make_orch(ds_two_slices, instantiate=False)
    stranger = build_descriptor_set(n_slices=3).snssais()[1]
    with pytest.raises(UnknownSnssaiError):
        orch.instantiate_subnet(stranger)


def test_descriptor_findings_block_instantiation():
    import yaml
    loaded = [yaml.safe_load(d) for d in build_documents(n_slices=2)]
    for doc in loaded:
        if "gnb_nsd" in doc:
            del doc["gnb_nsd"]["aux_nsd_ref"]
    ds = parse_descriptor_set(loaded)
    with pytest.raises(DescriptorInvalidError):
        make_orch(ds)


def test_il_invariant_maintained(ds_two_slices):
    orch = make_orch(ds_two_slices)
    for subnet in orch.subnets.values():
        nsd = ds_two_slices.gnb_nsds[subnet.nsd_ref]
        il = nsd.il(subnet.current_il)
        assert (il.cu_sl, il.du_sl) == (subnet.cu_sl, subnet.du_sl)


# -- admission ----------------------------------------------------------------

def test_admission_vcpu_cap_arithmetic(ds_two_slices):
    # Slice at 80% of a 1-vCPU shared DU, per-slice cap 90%: a DRB adding
    # 15% lands at 95% > 90% and is rejected; adding 5% is admitted.
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    assert admit_prbs(orch, ds_two_slices, embb, 80).admitted

    decision = admit_prbs(orch, ds_two_slices, embb, 15)
    assert not decision.admitted
    assert decision.reason == REJECT_VCPU_CAP
    assert decision.detail.startswith("du-shared-1: ")

    decision = admit_prbs(orch, ds_two_slices, embb, 5)
    assert decision.admitted
    assert (decision.est_prbs, decision.reason) == (5, "")
    assert len(orch.subnets[embb].admitted_drbs) == 2


def test_admission_other_slice_within_capacity(ds_two_slices):
    orch = make_orch(ds_two_slices)
    embb, urllc = ds_two_slices.snssais()
    assert admit_prbs(orch, ds_two_slices, embb, 80).admitted
    # 0.80 + 0.15 = 0.95 <= 1.0 and each slice under its own cap
    assert admit_prbs(orch, ds_two_slices, urllc, 15).admitted


def test_admission_rejects_vnic_saturation():
    ds = build_descriptor_set(n_slices=2, du_vcpus=16)
    orch = make_orch(ds)
    embb = ds.snssais()[0]
    # 801 PRBs * 125 pkt/s >= mu = 1e5 pkt/s
    decision = admit_prbs(orch, ds, embb, 801)
    assert not decision.admitted
    assert decision.reason == REJECT_VNIC_SATURATED
    assert orch.subnets[embb].admitted_drbs == []


def test_admission_rejects_vnic_delay_cap():
    ds = build_descriptor_set(n_slices=2, du_vcpus=16)
    orch = make_orch(ds, vnic_delay_cap_s=2e-3)
    embb = ds.snssais()[0]
    # 798 PRBs: stable queue (lambda = 99750 < 1e5) but ~4 ms mean wait
    decision = admit_prbs(orch, ds, embb, 798)
    assert not decision.admitted
    assert decision.reason == REJECT_VNIC_DELAY


def test_admission_requires_instantiated_subnet(ds_two_slices):
    orch = make_orch(ds_two_slices, instantiate=False)
    embb = ds_two_slices.snssais()[0]
    with pytest.raises(UnknownSnssaiError):
        admit_prbs(orch, ds_two_slices, embb, 10)


def test_departure_frees_capacity(ds_two_slices):
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    assert admit_prbs(orch, ds_two_slices, embb, 85, drb_id="big").admitted
    assert not admit_prbs(orch, ds_two_slices, embb, 10).admitted
    assert orch.depart_drb(embb, "big")
    assert admit_prbs(orch, ds_two_slices, embb, 10).admitted
    assert not orch.depart_drb(embb, "big")  # already gone


# -- PRB allocation -----------------------------------------------------------

def test_allocate_single_claimant(ds_two_slices):
    orch = make_orch(ds_two_slices)
    embb, urllc = ds_two_slices.snssais()
    admit_prbs(orch, ds_two_slices, embb, 40)
    alloc = orch.allocate_prbs(273)
    assert alloc[embb] == 40      # min(demand, total)
    assert alloc[urllc] == 0
    alloc = orch.allocate_prbs(25)
    assert alloc[embb] == 25


def test_allocate_equal_demands_split_evenly(ds_two_slices):
    # Large budget so admission is not the limiter here.
    ds = build_descriptor_set(n_slices=2, du_vcpus=4)
    orch = make_orch(ds)
    embb, urllc = ds.snssais()
    admit_prbs(orch, ds, embb, 80)
    admit_prbs(orch, ds, urllc, 80)
    alloc = orch.allocate_prbs(100)
    assert alloc == {embb: 50, urllc: 50}


def test_allocate_largest_remainder_deterministic():
    ds = build_descriptor_set(n_slices=3, du_vcpus=4)
    orch = make_orch(ds)
    embb, mmtc, urllc = ds.snssais()
    for s in (embb, mmtc, urllc):
        admit_prbs(orch, ds, s, 30)
    alloc = orch.allocate_prbs(50)
    # equal remainders resolve in slice-key order: eMBB, mMTC get the +1
    assert alloc == {embb: 17, mmtc: 17, urllc: 16}
    assert orch.allocate_prbs(50) == alloc


def test_allocate_trims_to_local_maximum(ds_two_slices):
    # Shared 1-vCPU DU, both slices demanding 0.6 vCPU: the trimmed
    # split must be feasible and no allocation within +/-5 PRBs of it
    # (exhaustively enumerated) may carry more PRBs in total.
    orch = make_orch(ds_two_slices)
    embb, urllc = ds_two_slices.snssais()
    orch.subnets[embb].admitted_drbs.append(_raw_drb(embb, 60))
    orch.subnets[urllc].admitted_drbs.append(_raw_drb(urllc, 60))
    alloc = orch.allocate_prbs(273)

    def feasible(a, b):
        # independent arithmetic: 0.01 vCPU per PRB on the one shared DU
        if not (0 <= a <= 60 and 0 <= b <= 60 and a + b <= 273):
            return False
        ca = PARAMS.k * a * 0.75 * math.exp(0.35 * 6)
        cb = PARAMS.k * b * 0.75 * math.exp(0.35 * 6)
        return ca + cb <= 1.0 and ca <= 0.9 and cb <= 0.9

    a0, b0 = alloc[embb], alloc[urllc]
    assert feasible(a0, b0)
    best = max(a + b
               for a in range(max(0, a0 - 5), a0 + 6)
               for b in range(max(0, b0 - 5), b0 + 6)
               if feasible(a, b))
    assert a0 + b0 == best


def _raw_drb(snssai, est_prbs, m=6, cr=0.75):
    from ranslice.orchestrator import AdmittedDrb
    return AdmittedDrb(
        drb=Drb(f"raw-{snssai.key()}-{est_prbs}", snssai, DrbQos(1.0, 20.0, 0.99)),
        est_prbs=est_prbs, modulation_order=m, code_rate=cr)


def test_allocate_zero_total(ds_two_slices):
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    admit_prbs(orch, ds_two_slices, embb, 10)
    assert orch.allocate_prbs(0) == {s: 0 for s in ds_two_slices.snssais()}


# -- scaling operations ---------------------------------------------------------

def test_scale_cu_up_and_il_update(ds_two_slices):
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    [event] = orch.scale(ScaleTarget.CU, Direction.UP, embb)
    subnet = orch.subnets[embb]
    assert (subnet.cu_sl, subnet.du_sl) == ("cu-sl-2", "du-sl-1")
    assert subnet.current_il == "il-2-1"
    assert event.target is ScaleTarget.CU
    assert (event.from_level, event.to_level) == ("cu-sl-1", "cu-sl-2")


def test_scale_cu_down_at_boundary(ds_two_slices):
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    with pytest.raises(AtBoundaryError):
        orch.scale(ScaleTarget.CU, Direction.DOWN, embb)


def test_scale_cu_no_matching_il():
    import yaml
    loaded = [yaml.safe_load(d) for d in build_documents(n_slices=2)]
    for doc in loaded:
        if "gnb_nsd" in doc:
            doc["gnb_nsd"]["ils"] = [
                {"id": "il-a", "cu_sl": "cu-sl-1", "du_sl": "du-sl-1"},
                {"id": "il-b", "cu_sl": "cu-sl-2", "du_sl": "du-sl-2"},
            ]
    ds = parse_descriptor_set(loaded)
    orch = make_orch(ds)
    embb = ds.snssais()[0]
    before = copy.deepcopy(orch.subnets[embb])
    with pytest.raises(NoMatchingIlError):
        orch.scale(ScaleTarget.CU, Direction.UP, embb)
    assert orch.subnets[embb] == before  # rolled back untouched


def test_scale_shared_du_coordinates_all_subnets(ds_two_slices):
    orch = make_orch(ds_two_slices)
    events = orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    assert [e.target for e in events] == [
        ScaleTarget.SHARED_DU, ScaleTarget.SUBNET_IL, ScaleTarget.SUBNET_IL]
    assert orch.aux.current_il == "du-sl-2"
    assert du_ids(orch) == ["du-shared-1", "du-shared-2"]
    du_levels = {sub.du_sl for sub in orch.subnets.values()}
    assert du_levels == {"du-sl-2"}
    for sub in orch.subnets.values():
        assert sub.current_il == "il-1-2"  # CU re-selected to the smallest


def test_scale_shared_du_single_subnet(ds_two_slices):
    # only the eMBB subnet instantiated; the aux behaves like a
    # per-subnet scale
    ds = ds_two_slices
    orch = Orchestrator(ds, Scenario.S4_DU_SHARED, PARAMS, BUDGET)
    embb = ds.snssais()[0]
    orch.instantiate_subnet(embb)
    events = orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    assert len(events) == 2
    assert orch.subnets[embb].du_sl == "du-sl-2"


def test_scale_shared_du_reselects_cu_from_demand(ds_two_slices):
    # A heavily loaded subnet needs ~1.2 vCPU of CU after the DU scaling
    # and must land on the 2-vCPU CU level; the idle one stays smallest.
    orch = make_orch(ds_two_slices)
    embb, urllc = ds_two_slices.snssais()
    orch.subnets[embb].admitted_drbs.append(_raw_drb(embb, 400))
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    assert orch.subnets[embb].cu_sl == "cu-sl-2"
    assert orch.subnets[embb].current_il == "il-2-2"
    assert orch.subnets[urllc].cu_sl == "cu-sl-1"


def test_scale_shared_du_rolls_back_subnet_without_usable_il():
    import yaml
    # slice B declares no IL at the upper DU level: the auxiliary level
    # stands, B keeps its previous view, and the divergence is recorded.
    loaded = [yaml.safe_load(d) for d in build_documents(n_slices=2)]
    for doc in loaded:
        if "gnb_nsd" in doc and doc["gnb_nsd"]["id"] == "gnb-uRLLC":
            doc["gnb_nsd"]["ils"] = [
                {"id": "il-1-1", "cu_sl": "cu-sl-1", "du_sl": "du-sl-1"}]
    ds = parse_descriptor_set(loaded)
    orch = make_orch(ds)
    embb, urllc = ds.snssais()
    before = copy.deepcopy(orch.subnets[urllc])
    events = orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    assert orch.aux.current_il == "du-sl-2"
    assert orch.subnets[embb].du_sl == "du-sl-2"
    assert orch.subnets[urllc] == before
    assert any("InconsistentIl" in f for f in orch.findings)
    assert [e.target for e in events] == [ScaleTarget.SHARED_DU, ScaleTarget.SUBNET_IL]


def test_scale_shared_du_at_boundary(ds_two_slices):
    orch = make_orch(ds_two_slices)
    with pytest.raises(AtBoundaryError):
        orch.scale(ScaleTarget.SHARED_DU, Direction.DOWN)


def test_scale_shared_du_requires_aux(ds_two_slices):
    orch = make_orch(ds_two_slices, scenario=Scenario.S1_DEDICATED)
    with pytest.raises(OrchestrationError):
        orch.scale(ScaleTarget.SHARED_DU, Direction.UP)


def test_scale_subnet_du_dedicated(ds_two_slices):
    orch = make_orch(ds_two_slices, scenario=Scenario.S1_DEDICATED)
    embb = ds_two_slices.snssais()[0]
    [event] = orch.scale(ScaleTarget.DU, Direction.UP, embb)
    assert orch.subnets[embb].du_sl == "du-sl-2"
    assert event.target is ScaleTarget.DU
    with pytest.raises(OrchestrationError):
        make_orch(ds_two_slices).scale(ScaleTarget.DU, Direction.UP, embb)


def test_cu_scaling_independence(ds_two_slices):
    orch = make_orch(ds_two_slices)
    embb, urllc = ds_two_slices.snssais()
    admit_prbs(orch, ds_two_slices, urllc, 20)
    other_before = copy.deepcopy(orch.subnets[urllc])
    aux_before = copy.deepcopy(orch.aux)
    orch.scale(ScaleTarget.CU, Direction.UP, embb)
    assert orch.subnets[urllc] == other_before
    assert orch.aux == aux_before


def test_shared_du_scaling_exactly_once(ds_two_slices):
    orch = make_orch(ds_two_slices)
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    orch.scale(ScaleTarget.SHARED_DU, Direction.DOWN)
    aux_events = [e for e in orch.events if e.target is ScaleTarget.SHARED_DU]
    assert len(aux_events) == 2


def test_interleaved_scalings_keep_du_sl_consistent(ds_three_slices):
    # Randomized replay: after any interleaving of CU scalings, shared-DU
    # scalings, admissions and departures, every subnet reports the same
    # du_sl, equal to the auxiliary IL.
    rng = random.Random(42)
    ds = ds_three_slices
    for round_no in range(60):
        orch = make_orch(ds, budget=CapacityBudget(4.0, 0.9),
                         params=ResourceModelParams(c0=0.001, k=K_PER_PRB, beta=0.35))
        live: list[tuple[Snssai, str]] = []
        for step in range(rng.randint(3, 12)):
            op = rng.choice(("cu_up", "cu_down", "du_up", "du_down", "admit", "depart"))
            s = rng.choice(ds.snssais())
            try:
                if op == "cu_up":
                    orch.scale(ScaleTarget.CU, Direction.UP, s)
                elif op == "cu_down":
                    orch.scale(ScaleTarget.CU, Direction.DOWN, s)
                elif op == "du_up":
                    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
                elif op == "du_down":
                    orch.scale(ScaleTarget.SHARED_DU, Direction.DOWN)
                elif op == "admit":
                    drb_id = f"r{round_no}-s{step}"
                    if admit_prbs(orch, ds, s, rng.randint(1, 30), drb_id=drb_id).admitted:
                        live.append((s, drb_id))
                elif op == "depart" and live:
                    sn, drb_id = live.pop(rng.randrange(len(live)))
                    orch.depart_drb(sn, drb_id)
            except (AtBoundaryError, NoMatchingIlError):
                pass
            levels = {sub.du_sl for sub in orch.subnets.values()}
            assert levels == {orch.aux.current_il}
            assert orch.findings == []


# -- scaling policy ---------------------------------------------------------------

TH = ScalingThresholds(hi=0.8, lo=0.3, window=5, cooldown=3)


def test_policy_scale_up_on_high_mean():
    assert evaluate_scaling_policy([0.92] * 5, TH, now=10) is Direction.UP


def test_policy_none_between_thresholds():
    assert evaluate_scaling_policy([0.5] * 5, TH, now=10) is None


def test_policy_down_requires_lower_level():
    assert evaluate_scaling_policy([0.1] * 5, TH, can_down=False, now=10) is None
    assert evaluate_scaling_policy([0.1] * 5, TH, can_down=True, now=10) is Direction.DOWN


def test_policy_hysteresis_suppresses_opposite_within_cooldown():
    last = (7, Direction.UP)
    assert evaluate_scaling_policy([0.1] * 5, TH, last_event=last, now=9) is None
    assert evaluate_scaling_policy([0.1] * 5, TH, last_event=last, now=10) is Direction.DOWN
    # same direction is not suppressed
    assert evaluate_scaling_policy([0.9] * 5, TH, last_event=last, now=8) is Direction.UP


def test_policy_requires_history():
    with pytest.raises(ValueError):
        evaluate_scaling_policy([], TH)


def test_policy_driven_cu_scale_up(ds_two_slices):
    ds = build_descriptor_set(n_slices=2, du_vcpus=4)
    orch = make_orch(ds, budget=CapacityBudget(4.0, 0.9))
    embb = ds.snssais()[0]
    admit_prbs(orch, ds, embb, 90)
    orch.allocate_prbs(273)
    orch._history((ScaleTarget.CU, embb)).extend([0.95] * 5)
    events = orch.apply_scaling_policies()
    cu_events = [e for e in events if e.target is ScaleTarget.CU and e.snssai == embb]
    assert len(cu_events) == 1
    assert orch.subnets[embb].cu_sl == "cu-sl-2"


def test_scale_down_violating_isolation_is_suppressed(ds_two_slices):
    orch = make_orch(ds_two_slices,
                     thresholds=ScalingThresholds(hi=0.9, lo=0.65, window=3, cooldown=0))
    embb, urllc = ds_two_slices.snssais()
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)  # 2 shared DU instances
    orch.subnets[embb].admitted_drbs.append(_raw_drb(embb, 70))
    orch.subnets[urllc].admitted_drbs.append(_raw_drb(urllc, 50))
    orch.allocate_prbs(273)
    for _ in range(3):
        orch.observe_utilization()
    # pool mean utilization 0.6 < lo, but one instance cannot hold 1.2 vCPU
    events = orch.apply_scaling_policies()
    assert all(e.target is not ScaleTarget.SHARED_DU for e in events)
    assert orch.aux.current_il == "du-sl-2"
    # admitted DRBs were never evicted
    assert len(orch.subnets[embb].admitted_drbs) == 1


def test_scale_down_checks_only_the_units_own_instances():
    # s1: eMBB's dedicated CU runs far over its 2 vCPUs (admission caps
    # no dedicated instance), which must not keep the idle uRLLC CU
    # from scaling down.
    ds = build_descriptor_set(n_slices=2, du_vcpus=16)
    orch = make_orch(ds, scenario=Scenario.S1_DEDICATED, params=ResourceModelParams(k=0.004),
                     thresholds=ScalingThresholds(window=1, cooldown=0))
    embb, urllc = ds.snssais()
    for s in (embb, urllc):
        orch.scale(ScaleTarget.CU, Direction.UP, s)
    orch.subnets[embb].admitted_drbs.append(_raw_drb(embb, 273, m=8, cr=0.9))
    orch.allocate_prbs(273)
    cu_embb = next(i for i in orch.observe_utilization() if i.instance_id == "cu-eMBB")
    assert cu_embb.consumption > 2 * cu_embb.capacity
    events = [str(e) for e in orch.apply_scaling_policies()]
    assert "cu(uRLLC):cu-sl-2->cu-sl-1" in events
    assert "du(eMBB):du-sl-1->du-sl-2" in events
    assert orch.subnets[urllc].cu_sl == "cu-sl-1"
    assert orch.subnets[embb].cu_sl == "cu-sl-2"


def test_event_log_determinism(ds_three_slices):
    def drive(orch, ds):
        for s in ds.snssais():
            admit_prbs(orch, ds, s, 25)
        orch.allocate_prbs(200)
        orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
        orch.scale(ScaleTarget.CU, Direction.UP, ds.snssais()[0])
        return [(e.target.value, str(e.snssai), e.from_level, e.to_level)
                for e in orch.events]

    ds = ds_three_slices
    assert drive(make_orch(ds), ds) == drive(make_orch(ds), ds)


def test_fuzz_all_scenarios_hold_invariants():
    # Mixed random ops across every scenario and slice count: the
    # (cu_sl, du_sl) pair always matches the declared current IL, the
    # live shared pool always matches the auxiliary IL, and no op other
    # than the declared errors escapes.
    rng = random.Random(7)
    mcs_atoms = ((2, 0.3), (4, 0.5), (6, 0.75), (8, 0.9))
    for trial in range(80):
        n = rng.choice((1, 2, 3))
        ds = build_descriptor_set(n_slices=n)
        scenario = rng.choice(list(Scenario))
        orch = Orchestrator(ds, scenario,
                            ResourceModelParams(c0=0.002, k=K_PER_PRB, beta=0.35),
                            CapacityBudget(rng.choice((1.0, 2.0, 4.0)), 0.9),
                            vnic_delay_cap_s=5e-3)
        for s in ds.snssais():
            orch.instantiate_subnet(s)
        live = []
        for step in range(rng.randint(5, 20)):
            op = rng.choice(("cu_up", "cu_down", "du_up", "du_down",
                             "sdu_up", "sdu_down", "admit", "depart", "tick"))
            s = rng.choice(ds.snssais())
            try:
                if op == "cu_up":
                    orch.scale(ScaleTarget.CU, Direction.UP, s)
                elif op == "cu_down":
                    orch.scale(ScaleTarget.CU, Direction.DOWN, s)
                elif op == "du_up":
                    orch.scale(ScaleTarget.DU, Direction.UP, s)
                elif op == "du_down":
                    orch.scale(ScaleTarget.DU, Direction.DOWN, s)
                elif op == "sdu_up":
                    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
                elif op == "sdu_down":
                    orch.scale(ScaleTarget.SHARED_DU, Direction.DOWN)
                elif op == "admit":
                    drb = Drb(f"fz{trial}-{step}", s,
                              DrbQos(rng.uniform(0.5, 120.0), 20.0, 0.99))
                    m, cr = mcs_atoms[rng.randrange(len(mcs_atoms))]
                    if orch.admit_drb(s, drb, m, cr).admitted:
                        live.append((s, drb.drb_id))
                elif op == "depart" and live:
                    sn, drb_id = live.pop(rng.randrange(len(live)))
                    orch.depart_drb(sn, drb_id)
                elif op == "tick":
                    orch.allocate_prbs(273)
                    orch.observe_utilization()
                    orch.apply_scaling_policies()
                    orch.advance_clock()
            except (AtBoundaryError, NoMatchingIlError, OrchestrationError):
                pass
            if orch.aux is not None:
                assert {sub.du_sl for sub in orch.subnets.values()} \
                    == {orch.aux.current_il}
            for sub in orch.subnets.values():
                il = ds.gnb_nsds[sub.nsd_ref].il(sub.current_il)
                assert (il.cu_sl, il.du_sl) == (sub.cu_sl, sub.du_sl)


def test_live_vm_count(ds_two_slices):
    orch = make_orch(ds_two_slices)               # S4: 2 CUs + 1 shared DU
    assert orch.live_vm_count() == 3
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    assert orch.live_vm_count() == 4
    orch_s2 = make_orch(ds_two_slices, scenario=Scenario.S2_ALL_SHARED)
    assert orch_s2.live_vm_count() == 2           # shared CU + shared DU
