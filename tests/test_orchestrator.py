from __future__ import annotations

import copy
import math
import random
from collections import deque

import pytest

from corpus import CORPUS, mixed_aux_documents
from helpers import build_descriptor_set, build_documents, tput_for_prbs

from ranslice.descriptors import Snssai, parse_descriptor_set
from ranslice.errors import RansliceError
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
    ScalingCause,
    ScalingThresholds,
    SubnetInstance,
    UnknownSnssaiError,
    evaluate_scaling_policy,
)
from ranslice.resources import (
    CapacityBudget,
    ResourceModelParams,
    VnicSaturatedError,
    check_isolation,
    vnic_mean_wait,
)
from ranslice.topology import Drb, DrbQos, Scenario

# k chosen so one PRB at (m=6, cr=0.75) consumes exactly 0.01 vCPU;
# c0 = 0 keeps per-slice consumption additive over DRBs.
K_PER_PRB = 0.01 / (0.75 * math.exp(0.35 * 6))
PARAMS = ResourceModelParams(c0=0.0, k=K_PER_PRB, beta=0.35)
BUDGET = CapacityBudget(vcpu_capacity=1.0, per_slice_cap=0.9)


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


def count_evaluations(monkeypatch, orch) -> list[tuple]:
    """Record each (instance kind, owner, vNIC PRBs) triple whose load is
    computed: by admission's ``orch._head_loads``, and by
    ``orch._loads_on`` as its caller takes the instances."""
    evaluated = []
    loads_on, head_loads = orch._loads_on, orch._head_loads

    def counted(*args):
        for inst, per_slice, prbs in loads_on(*args):
            evaluated.extend((inst.kind, s, prbs) for s in per_slice)
            yield inst, per_slice, prbs

    def counted_head(head, *args):
        per_slice, prbs = head_loads(head, *args)
        evaluated.extend((head.kind, s, prbs) for s in per_slice)
        return per_slice, prbs

    monkeypatch.setattr(orch, "_loads_on", counted)
    monkeypatch.setattr(orch, "_head_loads", counted_head)
    return evaluated


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
    assert orch.subnets[embb].admitted_drbs == ()


def test_admission_rejects_vnic_delay_cap():
    ds = build_descriptor_set(n_slices=2, du_vcpus=16)
    orch = make_orch(ds, vnic_delay_cap_s=2e-3)
    embb = ds.snssais()[0]
    # 798 PRBs: stable queue (lambda = 99750 < 1e5) but ~4 ms mean wait
    decision = admit_prbs(orch, ds, embb, 798)
    assert not decision.admitted
    assert decision.reason == REJECT_VNIC_DELAY


@pytest.mark.parametrize("cap_s", [0.0, -2e-3, -math.inf, math.nan])
def test_vnic_delay_cap_must_be_positive(ds_two_slices, cap_s):
    # SimConfig refuses these caps; the orchestrator took them, and under
    # a NaN cap the delay limit never bound.
    with pytest.raises(ValueError, match="vnic_delay_cap_s"):
        make_orch(ds_two_slices, vnic_delay_cap_s=cap_s, instantiate=False)


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


def test_departure_requires_instantiated_subnet():
    ds = build_descriptor_set(n_slices=2)
    orch = make_orch(ds, instantiate=False)
    embb, urllc = ds.snssais()
    orch.instantiate_subnet(embb)
    with pytest.raises(UnknownSnssaiError):
        orch.depart_drb(urllc, "x")


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
    orch.subnets[embb].admitted_drbs += (_raw_drb(embb, 60),)
    orch.subnets[urllc].admitted_drbs += (_raw_drb(urllc, 60),)
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
    orch.subnets[embb].admitted_drbs += (_raw_drb(embb, 400),)
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    assert orch.subnets[embb].cu_sl == "cu-sl-2"
    assert orch.subnets[embb].current_il == "il-2-2"
    assert orch.subnets[urllc].cu_sl == "cu-sl-1"


def test_scale_shared_du_keeps_a_shared_cu_covering_every_subnets_load():
    # s2: the shared CU carries both slices, so each subnet's CU level is
    # re-selected from the summed load, not from the subnet's own share.
    ds = build_descriptor_set(n_slices=2, du_counts=(1, 2, 3), cu_vcpus=(1, 2, 4), du_vcpus=4)
    orch = make_orch(ds, scenario=Scenario.S2_ALL_SHARED,
                     params=ResourceModelParams(c0=0.002, k=0.004))
    embb, urllc = ds.snssais()
    orch.scale(ScaleTarget.CU, Direction.UP, embb)
    for s, n in ((embb, 12), (urllc, 7)):
        for i in range(n):
            drb = Drb(f"{s.key()}-{i}", s, DrbQos(10.0, 20.0, 0.99))
            assert orch.admit_drb(s, drb, 6, 0.75).admitted
    orch.allocate_prbs(273)

    def shared_cu():
        return next(i for i in orch._project(orch._allocated_map()) if i.kind == "cu")

    assert shared_cu().capacity == 2.0 and 1.0 < shared_cu().consumption < 2.0
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    assert [orch.subnets[s].current_il for s in (embb, urllc)] == ["il-2-2", "il-2-2"]
    cu = shared_cu()
    assert cu.capacity == 2.0
    assert check_isolation(cu.per_slice, CapacityBudget(cu.capacity, BUDGET.per_slice_cap)).ok


def test_shared_du_scaling_gives_no_event_to_a_subnet_already_at_its_il():
    # The auxiliary IL is set by hand above the subnets' ILs, then the
    # reset hook drops the layout as scale() does; the policy scales the idle pool
    # back down to where both subnets already sit.
    ds = build_descriptor_set(n_slices=2, du_counts=(1, 2, 4), cu_vcpus=(1, 2, 4), du_vcpus=4)
    orch = make_orch(ds, scenario=Scenario.S2_ALL_SHARED,
                     thresholds=ScalingThresholds(window=1, cooldown=0))
    orch.aux.current_il = "du-sl-2"
    orch._relayout()
    orch.allocate_prbs(100)
    orch.observe_utilization()
    events = orch.apply_scaling_policies()
    assert [str(e) for e in events] == ["shared_du:du-sl-2->du-sl-1"]
    assert orch.aux.current_il == "du-sl-1"
    for sub in orch.subnets.values():
        assert (sub.current_il, sub.cu_sl, sub.du_sl) == ("il-1-1", "cu-sl-1", "du-sl-1")


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


@pytest.mark.parametrize("scenario, target, slice_index, error", [
    (Scenario.S1_DEDICATED, ScaleTarget.SHARED_DU, None, OrchestrationError),
    (Scenario.S4_DU_SHARED, ScaleTarget.DU, 0, OrchestrationError),
    (Scenario.S4_DU_SHARED, ScaleTarget.SUBNET_IL, 0, OrchestrationError),
    (Scenario.S4_DU_SHARED, ScaleTarget.CU, 1, UnknownSnssaiError),
    (Scenario.S4_DU_SHARED, ScaleTarget.SHARED_DU, 1, UnknownSnssaiError),
    (Scenario.S4_DU_SHARED, ScaleTarget.SHARED_DU, 0, OrchestrationError),
], ids=["shared-du-in-s1", "du-in-s4", "subnet-il-in-s4", "cu-of-a-stranger",
        "shared-du-for-a-stranger", "shared-du-for-a-live-slice"])
def test_scale_refuses_a_unit_that_is_not_live(ds_two_slices, scenario, target,
                                               slice_index, error):
    # Only the first slice is instantiated; the second is not.
    orch = make_orch(ds_two_slices, scenario=scenario, instantiate=False)
    slices = ds_two_slices.snssais()
    orch.instantiate_subnet(slices[0])
    before = copy.deepcopy((orch.subnets, orch.aux))
    snssai = None if slice_index is None else slices[slice_index]
    for direction in Direction:
        with pytest.raises(OrchestrationError) as info:
            orch.scale(target, direction, snssai)
        assert type(info.value) is error
    assert (orch.subnets, orch.aux) == before
    assert orch.events == [] and orch.findings == []


@pytest.mark.parametrize("direction", ["up", "down", None])
def test_scale_refuses_a_direction_that_is_not_a_direction(ds_two_slices, direction):
    # eMBB's CU one level above its lowest, the shared pool at its lowest.
    # Anything but Direction.UP used to read as down: "up" scaled the CU
    # down, and at the lowest level raised a bare AttributeError.
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    orch.scale(ScaleTarget.CU, Direction.UP, embb)
    before = copy.deepcopy((orch.subnets, orch.aux, orch.events))
    for target, snssai in ((ScaleTarget.CU, embb), (ScaleTarget.SHARED_DU, None)):
        with pytest.raises(OrchestrationError, match="direction") as info:
            orch.scale(target, direction, snssai)
        assert type(info.value) is OrchestrationError
    assert (orch.subnets, orch.aux, orch.events) == before


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


def test_policy_scale_down_on_low_mean():
    assert evaluate_scaling_policy([0.1] * 5, TH, now=10) is Direction.DOWN


def test_policy_hysteresis_suppresses_opposite_within_cooldown():
    last = (7, Direction.UP)
    assert evaluate_scaling_policy([0.1] * 5, TH, last_event=last, now=9) is None
    assert evaluate_scaling_policy([0.1] * 5, TH, last_event=last, now=10) is Direction.DOWN
    # same direction is not suppressed
    assert evaluate_scaling_policy([0.9] * 5, TH, last_event=last, now=8) is Direction.UP


def test_policy_requires_history():
    with pytest.raises(ValueError):
        evaluate_scaling_policy([], TH)


def test_policy_averages_the_last_window_samples_in_order():
    th = ScalingThresholds(hi=0.2, lo=0.1, window=3, cooldown=0)
    # The older samples are left out; the last three, summed oldest
    # first, average to 0.20000000000000004, just above hi (newest first
    # they would average to 0.19999999999999998).
    for history in ([5.0, 0.1, 0.2, 0.3], deque([0.0] * 7 + [0.1, 0.2, 0.3])):
        assert evaluate_scaling_policy(history, th) is Direction.UP
    assert evaluate_scaling_policy([0.3, 0.2, 0.1], th) is None
    # A history shorter than the window is averaged whole.
    assert evaluate_scaling_policy([0.05, 0.1], th) is Direction.DOWN


def test_policy_driven_cu_scale_up(ds_two_slices):
    ds = build_descriptor_set(n_slices=2, du_vcpus=4)
    orch = make_orch(ds, budget=CapacityBudget(4.0, 0.9))
    embb = ds.snssais()[0]
    admit_prbs(orch, ds, embb, 90)
    orch.allocate_prbs(273)
    orch._unit(ScaleTarget.CU, embb).hist.extend([0.95] * 5)
    events = orch.apply_scaling_policies()
    cu_events = [e for e in events if e.target is ScaleTarget.CU and e.snssai == embb]
    assert len(cu_events) == 1
    assert orch.subnets[embb].cu_sl == "cu-sl-2"


def test_policy_at_the_top_level_gives_no_event(ds_two_slices):
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    orch.scale(ScaleTarget.CU, Direction.UP, embb)
    with pytest.raises(AtBoundaryError):
        orch.scale(ScaleTarget.CU, Direction.UP, embb)
    orch._unit(ScaleTarget.CU, embb).hist.extend([0.95] * 5)
    assert orch.apply_scaling_policies() == []
    assert orch.subnets[embb].cu_sl == "cu-sl-2"


def test_scale_down_violating_isolation_is_suppressed(ds_two_slices):
    orch = make_orch(ds_two_slices,
                     thresholds=ScalingThresholds(hi=0.9, lo=0.65, window=3, cooldown=0))
    embb, urllc = ds_two_slices.snssais()
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)  # 2 shared DU instances
    orch.subnets[embb].admitted_drbs += (_raw_drb(embb, 70),)
    orch.subnets[urllc].admitted_drbs += (_raw_drb(urllc, 50),)
    orch.allocate_prbs(273)
    for _ in range(3):
        orch.observe_utilization()
    # pool mean utilization 0.6 < lo, but one instance cannot hold 1.2 vCPU
    events = orch.apply_scaling_policies()
    assert all(e.target is not ScaleTarget.SHARED_DU for e in events)
    assert orch.aux.current_il == "du-sl-2"
    # admitted DRBs were never evicted
    assert len(orch.subnets[embb].admitted_drbs) == 1


@pytest.mark.parametrize("scenario, target, prbs, limit", [
    (Scenario.S1_DEDICATED, ScaleTarget.DU, 605, 1.0),
    (Scenario.S4_DU_SHARED, ScaleTarget.SHARED_DU, 543, 0.9),
], ids=["dedicated-capacity", "shared-slice-cap"])
def test_scale_down_that_only_the_pool_head_breaks_is_suppressed(scenario, target, prbs, limit):
    # eMBB's PRBs at (4, 0.5), 0.0033 vCPU each, sit easily on three
    # 1-vCPU DUs. On two, the head's share (one PRB more than the last
    # DU's) breaks a limit: a dedicated DU's capacity, or the per-slice
    # cap on the shared pool; the last DU's does not. A low history asks
    # for the scale-down, which must be suppressed.
    ds = build_descriptor_set(n_slices=2, du_counts=(1, 2, 3))
    orch = make_orch(ds, scenario=scenario, thresholds=ScalingThresholds(window=1, cooldown=0))
    embb = ds.snssais()[0]
    snssai = embb if target is ScaleTarget.DU else None
    for _ in range(2):
        orch.scale(target, Direction.UP, snssai)
    orch.subnets[embb].admitted_drbs += (_raw_drb(embb, prbs, m=4, cr=0.5),)
    orch.allocate_prbs(prbs)
    orch.observe_utilization()
    orch._unit(target, snssai).hist.append(0.1)
    over, pools = orch._build_instances({(target, snssai): "du-sl-2"})
    head, last = orch._project(orch._allocated_map(), insts=[over[j] for j in pools[embb][0]])
    assert head.per_slice[embb] > limit >= last.per_slice[embb]
    events = orch.apply_scaling_policies()
    assert all(e.target is not target for e in events)
    assert len(orch.pools()[embb][0]) == 3


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
    orch.subnets[embb].admitted_drbs += (_raw_drb(embb, 273, m=8, cr=0.9),)
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


def vnic_threshold(params, cap_s) -> int:
    """The fewest vNIC PRBs that vnic_mean_wait rejects, found by counting
    up from 0."""
    n = 0
    while True:
        try:
            if vnic_mean_wait(n, params) > cap_s:
                return n
        except VnicSaturatedError:
            return n
        n += 1


def test_admission_evaluates_only_the_arriving_slices_instances(monkeypatch):
    # s1, 4 slices, all with admitted load: admitting to one slice
    # evaluates only that slice's CU and the head of its DU pool, and of
    # those only a head at or above the vNIC threshold: a dedicated head
    # has no isolation check, so below it no limit can bind.
    ds = build_descriptor_set(n_slices=4, du_counts=(1, 2), du_vcpus=4)
    orch = make_orch(ds, scenario=Scenario.S1_DEDICATED)
    slices = ds.snssais()
    for s in slices:
        orch.scale(ScaleTarget.DU, Direction.UP, s)
        assert admit_prbs(orch, ds, s, 20).admitted
    evaluated = count_evaluations(monkeypatch, orch)
    threshold = vnic_threshold(PARAMS, 2e-3)
    assert orch._vnic_prbs == threshold == 797

    arriving = slices[2]
    # 25 PRBs split over a pool of 2 DUs: shares 13 and 12. The head
    # carries the larger one and decides for the pool; the CU carries 25.
    # Both are below the threshold, so no load is computed.
    assert admit_prbs(orch, ds, arriving, 5, drb_id="arrival").admitted
    assert evaluated == []
    # 1,592 PRBs: the DU head's 796 stay below the threshold, the CU's
    # 1,592 do not and saturate its vNIC.
    decision = admit_prbs(orch, ds, arriving, 1567)
    assert decision.reason == REJECT_VNIC_SATURATED
    assert evaluated == [("cu", arriving, 1592)]
    # The DU head at the threshold breaks the delay cap, above it
    # saturates; the check stops there and the CU is not computed.
    for prbs, head_prbs, reason in ((1569, threshold, REJECT_VNIC_DELAY),
                                    (1595, 810, REJECT_VNIC_SATURATED)):
        evaluated.clear()
        decision = admit_prbs(orch, ds, arriving, prbs)
        assert decision.reason == reason
        assert decision.detail.startswith(f"du-{arriving.key()}-1: ")
        assert evaluated == [("du", arriving, head_prbs)]


def test_admission_computes_a_shared_du_head_and_no_dedicated_cu(monkeypatch):
    # s4, 3 loaded slices: the shared DU head has an isolation check, so
    # its loads are computed for every owner; the arriving slice's
    # dedicated CU is below the vNIC threshold and is not.
    ds = build_descriptor_set(n_slices=3, du_vcpus=4)
    orch = make_orch(ds, scenario=Scenario.S4_DU_SHARED)
    slices = ds.snssais()
    for s in slices:
        assert admit_prbs(orch, ds, s, 20).admitted
    evaluated = count_evaluations(monkeypatch, orch)
    arriving = slices[1]
    assert admit_prbs(orch, ds, arriving, 5, drb_id="arrival").admitted
    assert sorted((kind, s.key(), prbs) for kind, s, prbs in evaluated) == sorted(
        ("du", s.key(), 65) for s in slices)


def test_admission_reads_only_the_arriving_slices_demand(monkeypatch):
    # s1, 4 loaded slices: the arriving slice owns its instances alone,
    # so no other subnet's DRBs are folded or its memo read.
    ds = build_descriptor_set(n_slices=4, du_vcpus=4)
    orch = make_orch(ds, scenario=Scenario.S1_DEDICATED)
    slices = ds.snssais()
    for s in slices:
        assert admit_prbs(orch, ds, s, 20).admitted
    read = []
    folded = SubnetInstance._folded
    monkeypatch.setattr(SubnetInstance, "_folded",
                        lambda self: read.append(self.snssai) or folded(self))
    arriving = slices[2]
    assert admit_prbs(orch, ds, arriving, 5, drb_id="arrival").admitted
    assert read and set(read) == {arriving}


def test_admission_stops_at_the_du_heads_break(monkeypatch):
    # s2, 801 PRBs saturate the vNICs of both the shared DU and the shared
    # CU: the DU head is checked first and the CU is not projected.
    ds = build_descriptor_set(n_slices=2, du_vcpus=16)
    orch = make_orch(ds, scenario=Scenario.S2_ALL_SHARED, budget=CapacityBudget(16.0, 0.9))
    evaluated = count_evaluations(monkeypatch, orch)
    decision = admit_prbs(orch, ds, ds.snssais()[0], 801)
    assert decision.reason == REJECT_VNIC_SATURATED
    assert decision.detail.startswith("du-shared-1: ")
    # The shared DU head's two owners, and nothing on the CU.
    assert sorted(s.key() for _, s, _ in evaluated) == sorted(s.key() for s in ds.snssais())
    assert {kind for kind, _, _ in evaluated} == {"du"}


@pytest.mark.parametrize("m, cr, field", [
    (3, 0.5, "modulation_order"), (16, 0.5, "modulation_order"),
    (8, 0.0, "code_rate"), (8, math.nan, "code_rate"), (8, 1.5, "code_rate"),
    (8, 5e-324, "PRB estimate"),
], ids=["order-3", "order-16", "rate-0", "rate-nan", "rate-1.5", "rate-subnormal"])
@pytest.mark.parametrize("mbps", [5.0, 1e4], ids=["small", "du-breaking"])
def test_admission_rejects_an_invalid_mcs(ds_two_slices, m, cr, field, mbps):
    # Orders 3 and 16 used to be admitted (snapped; 16 halves the PRB
    # estimate), a code rate of 0 raised ZeroDivisionError and NaN a
    # float conversion error, and a subnormal one an OverflowError. A DRB
    # large enough to break the DU head must raise as well, not return a
    # rejection.
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    assert admit_prbs(orch, ds_two_slices, embb, 10).admitted
    sub = orch.subnets[embb]
    drbs, memo = sub.admitted_drbs, sub._memo
    with pytest.raises(ValueError, match=field):
        orch.admit_drb(embb, Drb("bad", embb, DrbQos(mbps, 20.0, 0.99)), m, cr)
    assert sub.admitted_drbs is drbs and sub._memo is memo


def test_admission_rejects_a_drb_of_another_slice(ds_two_slices):
    # A uRLLC DRB offered to eMBB used to be admitted there, every time,
    # and could then not be departed from its own slice.
    orch = make_orch(ds_two_slices, scenario=Scenario.S1_DEDICATED)
    embb, urllc = ds_two_slices.snssais()
    assert admit_prbs(orch, ds_two_slices, embb, 10).admitted
    sub = orch.subnets[embb]
    drbs, memo, generation = sub.admitted_drbs, sub._memo, orch._generation
    stray = Drb("x", urllc, DrbQos(5.0, 20.0, 0.99))
    for _ in range(2):
        with pytest.raises(ValueError, match="belongs to slice"):
            orch.admit_drb(embb, stray, 6, 0.75)
    assert sub.admitted_drbs is drbs and sub._memo is memo
    assert orch._generation == generation
    assert orch.subnets[urllc].admitted_drbs == ()
    assert not orch.depart_drb(urllc, "x")
    # Offered to its own slice, the same DRB is admitted and departs.
    assert orch.admit_drb(urllc, stray, 6, 0.75).admitted
    assert orch.depart_drb(urllc, "x")


def test_admission_sees_a_scaling_since_the_last_admission(ds_two_slices):
    # s4, one shared 1-vCPU DU: 120 PRBs (1.2 vCPU) break the slice cap of
    # 0.9. After the pool grows to two DUs the same DRB is split 60/60, so
    # the instances a slice owns must not be remembered across scalings.
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    assert admit_prbs(orch, ds_two_slices, embb, 120).reason == REJECT_VCPU_CAP
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    assert admit_prbs(orch, ds_two_slices, embb, 120).admitted


def test_observation_reuses_the_allocation_projection(monkeypatch):
    # s2, 3 loaded slices: with nothing changed between allocate_prbs and
    # observe_utilization, observation projects nothing and evaluates no
    # load, and its snapshot is the projection at the split.
    ds = build_descriptor_set(n_slices=3, du_counts=(1, 2), du_vcpus=4)
    orch = make_orch(ds, scenario=Scenario.S2_ALL_SHARED)
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    for s in ds.snssais():
        assert admit_prbs(orch, ds, s, 20).admitted
    orch.allocate_prbs(273)
    evaluated = count_evaluations(monkeypatch, orch)
    project = orch._project
    projections = []

    def counted_project(*args, **kwargs):
        projections.append(args)
        return project(*args, **kwargs)

    monkeypatch.setattr(orch, "_project", counted_project)
    snapshot = orch.observe_utilization()
    assert evaluated == [] and projections == []
    assert snapshot == project(orch._allocated_map())
    # The hand-off is used once: the next observation projects afresh.
    assert orch.observe_utilization() == snapshot
    assert len(projections) == 1


@pytest.mark.parametrize("op, reprojects", [
    ("reject", False), ("admit", True), ("depart", True), ("depart-unknown", False),
    ("scale", True), ("instantiate", True), ("clock", False),
])
def test_only_a_state_change_drops_the_hand_off(monkeypatch, ds_three_slices, op, reprojects):
    # s2, two of three subnets live and loaded: a lifecycle operation that
    # changes state between allocate_prbs and observe_utilization makes
    # observation project afresh; one that changes nothing does not.
    orch = make_orch(ds_three_slices, scenario=Scenario.S2_ALL_SHARED, instantiate=False)
    embb, third, urllc = ds_three_slices.snssais()
    for s in (embb, urllc):
        orch.instantiate_subnet(s)
        assert admit_prbs(orch, ds_three_slices, s, 20).admitted
    orch.allocate_prbs(273)
    projections = []
    project = orch._project
    monkeypatch.setattr(orch, "_project", lambda *a, **k: projections.append(a) or project(*a, **k))
    if op == "reject":
        assert not admit_prbs(orch, ds_three_slices, embb, 200, drb_id="big").admitted
    elif op == "admit":
        assert admit_prbs(orch, ds_three_slices, embb, 5, drb_id="small").admitted
    elif op.startswith("depart"):
        drb_id = orch.subnets[embb].admitted_drbs[0].drb.drb_id
        assert orch.depart_drb(embb, "nobody" if op == "depart-unknown" else drb_id) \
            == (op == "depart")
    elif op == "scale":
        orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    elif op == "instantiate":
        orch.instantiate_subnet(third)
    else:
        orch.advance_clock()
    snapshot = orch.observe_utilization()
    assert len(projections) == reprojects
    assert (orch._checked is snapshot) == (not reprojects)


VNIC_CAP_S = 5e-3


@pytest.mark.parametrize("name, value, other", [
    ("params", PARAMS, ResourceModelParams()),
    ("budget", BUDGET, CapacityBudget(1.0, 0.1)),
    ("thresholds", TH, ScalingThresholds()),
    ("vnic_delay_cap_s", VNIC_CAP_S, 1.0),
], ids=["params", "budget", "thresholds", "vnic_delay_cap_s"])
def test_params_are_fixed_at_construction(ds_two_slices, name, value, other):
    # The loads, the admission limits and the hand-off rely on settings
    # that cannot change: the hand-off snapshot was checked against them.
    orch = make_orch(ds_two_slices, thresholds=TH, vnic_delay_cap_s=VNIC_CAP_S)
    with pytest.raises(AttributeError):
        setattr(orch, name, other)
    assert getattr(orch, name) is value


def recounted_violations(orch, snapshot) -> int:
    return sum(not check_isolation(
        i.per_slice, CapacityBudget(i.capacity, orch.budget.per_slice_cap)).ok
        for i in snapshot if i.shared)


def test_an_edit_before_observation_is_reprojected_and_counted(ds_two_slices):
    # s2: the hand-off projection passed allocation's isolation check and
    # counts no violation unchecked. Allocations raised by hand between
    # allocate_prbs and observe_utilization, followed by the reset hook
    # that hand edits need, miss the hand-off, so the snapshot is
    # projected afresh and its violations are counted.
    orch = make_orch(ds_two_slices, scenario=Scenario.S2_ALL_SHARED)
    for s in ds_two_slices.snssais():
        assert admit_prbs(orch, ds_two_slices, s, 40).admitted
    orch.allocate_prbs(273)
    snapshot = orch.observe_utilization()
    assert orch.isolation_violations(snapshot) == 0 == recounted_violations(orch, snapshot)
    orch.allocate_prbs(273)
    for sub in orch.subnets.values():
        sub.allocated_prbs = 273
    orch._relayout()
    snapshot = orch.observe_utilization()
    assert all(i.prbs == 273 * len(i.owners) for i in snapshot)
    assert recounted_violations(orch, snapshot) > 0
    assert orch.isolation_violations(snapshot) == recounted_violations(orch, snapshot)


def test_instances_follow_subnets_instantiated_one_by_one(ds_three_slices):
    # The memoised slice order is re-sorted when a subnet is added.
    orch = make_orch(ds_three_slices, scenario=Scenario.S1_DEDICATED, instantiate=False)
    for s in reversed(ds_three_slices.snssais()):
        orch.instantiate_subnet(s)
        by_key = sorted(orch.subnets, key=lambda t: t.key())
        assert [i.instance_id for i in orch.instances() if i.kind == "cu"] == [
            orch.ds.gnb_nsds[orch.subnets[t].nsd_ref].cu_id for t in by_key]


def test_instances_are_memoised_on_live_levels(ds_two_slices):
    orch = make_orch(ds_two_slices, scenario=Scenario.S1_DEDICATED)
    embb = ds_two_slices.snssais()[0]
    first = orch.instances()
    assert isinstance(first, tuple)
    assert orch.instances() is first
    # A hypothetical level neither uses nor replaces the live view.
    assert len(orch._build_instances({(ScaleTarget.DU, embb): "du-sl-2"})[0]) == len(first) + 1
    assert orch.instances() is first
    # A scaling drops the live view; the next read sees the new level.
    orch.scale(ScaleTarget.CU, Direction.UP, embb)
    cu = next(i for i in orch.instances() if i.instance_id == "cu-eMBB")
    assert cu.capacity == 2.0


def test_live_vm_count(ds_two_slices):
    orch = make_orch(ds_two_slices)               # S4: 2 CUs + 1 shared DU
    assert orch.live_vm_count() == 3
    orch.scale(ScaleTarget.SHARED_DU, Direction.UP)
    assert orch.live_vm_count() == 4
    orch_s2 = make_orch(ds_two_slices, scenario=Scenario.S2_ALL_SHARED)
    assert orch_s2.live_vm_count() == 2           # shared CU + shared DU


def test_scale_records_the_cause_its_direction_gives(ds_two_slices):
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    up = orch.scale(ScaleTarget.SHARED_DU, Direction.UP) + orch.scale(
        ScaleTarget.CU, Direction.UP, embb)
    down = orch.scale(ScaleTarget.CU, Direction.DOWN, embb) + orch.scale(
        ScaleTarget.SHARED_DU, Direction.DOWN)
    # The shared-DU scaling is followed by a SUBNET_IL event per subnet.
    assert [e.target for e in down] == [ScaleTarget.CU, ScaleTarget.SHARED_DU,
                                        ScaleTarget.SUBNET_IL, ScaleTarget.SUBNET_IL]
    assert {e.cause for e in up} == {ScalingCause.LOAD_INCREASE}
    assert {e.cause for e in down} == {ScalingCause.LOAD_DECREASE}


@pytest.mark.parametrize("total", [10.5, math.nan, math.inf, True, -1, "10"])
def test_allocate_prbs_takes_a_non_negative_int(ds_two_slices, total):
    orch = make_orch(ds_two_slices)
    embb = ds_two_slices.snssais()[0]
    assert admit_prbs(orch, ds_two_slices, embb, 20).admitted      # demand above 10
    with pytest.raises(ValueError, match="total_prbs"):
        orch.allocate_prbs(total)


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_a_subnet_joins_a_shared_du_only_through_the_live_aux(scenario):
    # gnb-eMBB declares no auxiliary NSD, gnb-uRLLC one: under DU sharing
    # neither joins the other, in either order; without it both run.
    ds = parse_descriptor_set(mixed_aux_documents())
    for order in (ds.snssais(), ds.snssais()[::-1]):
        orch = make_orch(ds, scenario, instantiate=False)
        orch.instantiate_subnet(order[0])
        if scenario.du_shared:
            with pytest.raises(OrchestrationError, match=r"references auxiliary NSD"):
                orch.instantiate_subnet(order[1])
        else:
            orch.instantiate_subnet(order[1])
            assert len(orch.instances()) == (4 if scenario is Scenario.S1_DEDICATED else 3)


CLEAN = [(name, docs) for name, docs, labels in CORPUS if not labels]


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
@pytest.mark.parametrize("docs", [docs for _, docs in CLEAN], ids=[name for name, _ in CLEAN])
def test_a_clean_corpus_set_instantiates_or_raises_a_typed_error(docs, scenario):
    ds = parse_descriptor_set(docs)
    orch = make_orch(ds, scenario, instantiate=False)
    try:
        for s in ds.snssais():
            orch.instantiate_subnet(s)
    except RansliceError:
        return
    assert orch.instances()
    assert {s for inst in orch.instances() for s in inst.owners} == set(ds.snssais())
