"""Property tests of the scaling-unit model and of the scoped admission
check: random sequences of scale, admit, depart and tick operations,
under every sharing scenario."""

from __future__ import annotations

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import build_descriptor_set

from ranslice.orchestrator import (
    AdmittedDrb,
    Decision,
    Direction,
    InstanceUtil,
    OrchestrationError,
    Orchestrator,
    ScaleTarget,
    ScalingThresholds,
    _share,
)
from ranslice.resources import (
    MODULATION_ORDERS,
    CapacityBudget,
    ResourceModelParams,
    SliceLoad,
    check_isolation,
    cu_vcpu_consumption,
    du_vcpu_consumption,
    estimate_prbs,
)
from ranslice.topology import Drb, DrbQos, Scenario

PARAMS = ResourceModelParams(c0=0.002, k=0.004, beta=0.35)
BUDGET = CapacityBudget(vcpu_capacity=1.0, per_slice_cap=0.9)
# Short window and cooldown so that the policy fires within a few ticks.
THRESHOLDS = ScalingThresholds(hi=0.6, lo=0.3, window=2, cooldown=1)
MCS = ((2, 0.3), (4, 0.5), (6, 0.75), (8, 0.9))


def op_lists(max_mbps: float):
    """Random operation sequences, admitting DRBs of up to ``max_mbps``."""
    return st.lists(st.one_of(
        st.tuples(st.just("scale"),
                  st.sampled_from((ScaleTarget.CU, ScaleTarget.DU, ScaleTarget.SHARED_DU)),
                  st.sampled_from(Direction), st.integers(0, 2)),
        st.tuples(st.just("admit"), st.integers(0, 2), st.floats(0.5, max_mbps),
                  st.sampled_from(MCS)),
        st.tuples(st.just("depart"), st.integers(0, 1000)),
        st.just(("tick",)),
    ), max_size=30)


OPS = op_lists(60.0)


@lru_cache(maxsize=None)
def descriptor_set(n_slices: int, du_vcpus: int = 1):
    return build_descriptor_set(n_slices=n_slices, du_counts=(1, 2, 3), cu_vcpus=(1, 2, 4),
                                du_vcpus=du_vcpus)


def assert_units_consistent(orch: Orchestrator, shared_scalings: int) -> None:
    # A shared DU scales exactly once per successful call, on the
    # auxiliary service; per-subnet follow-ups are SUBNET_IL events.
    assert sum(e.target is ScaleTarget.SHARED_DU for e in orch.events) == shared_scalings
    for sub in orch.subnets.values():
        il = orch.ds.gnb_nsds[sub.nsd_ref].il(sub.current_il)
        assert (il.cu_sl, il.du_sl) == (sub.cu_sl, sub.du_sl)
        if orch.aux is not None:
            assert sub.du_sl == orch.aux.current_il


def assert_shared_instances_isolated(orch: Orchestrator) -> None:
    for inst in orch._project(orch._allocated_map()):
        if inst.shared:
            budget = CapacityBudget(inst.capacity, BUDGET.per_slice_cap)
            assert check_isolation(inst.per_slice, budget).ok, inst


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_slices=st.integers(1, 3), scenario=st.sampled_from(Scenario), ops=OPS)
def test_scaling_units_keep_their_invariants(n_slices, scenario, ops):
    ds = descriptor_set(n_slices)
    slices = ds.snssais()
    orch = Orchestrator(ds, scenario, PARAMS, BUDGET, THRESHOLDS, vnic_delay_cap_s=5e-3)
    for s in slices:
        orch.instantiate_subnet(s)

    # Count every successful shared-DU scale call, the policy's included.
    shared_scalings = 0
    scale = orch.scale

    def counting_scale(target, *args, **kwargs):
        nonlocal shared_scalings
        events = scale(target, *args, **kwargs)
        shared_scalings += target is ScaleTarget.SHARED_DU
        return events

    orch.scale = counting_scale
    live: list[tuple] = []
    for step, op in enumerate(ops):
        if op[0] == "scale":
            _, target, direction, i = op
            try:
                orch.scale(target, direction, slices[i % n_slices])
            except OrchestrationError:
                pass
        elif op[0] == "admit":
            _, i, mbps, (m, cr) = op
            s = slices[i % n_slices]
            drb = Drb(f"d{step}", s, DrbQos(mbps, 20.0, 0.99))
            if orch.admit_drb(s, drb, m, cr).admitted:
                live.append((s, drb.drb_id))
        elif op[0] == "depart" and live:
            orch.depart_drb(*live.pop(op[1] % len(live)))
        elif op[0] == "tick":
            orch.allocate_prbs(273)
            orch.observe_utilization()
            orch.apply_scaling_policies()
            assert_shared_instances_isolated(orch)
            orch.advance_clock()
        assert_units_consistent(orch, shared_scalings)


def reference_load(orch: Orchestrator, snssai, extra=None) -> tuple[int, int, float]:
    """Demand PRBs and PRB-weighted (modulation order, code rate) of a
    slice, summed afresh over its admitted DRBs and the arriving DRB
    ``extra`` if it belongs to the slice. (0, 2, 1.0) when idle."""
    entries = [(a.est_prbs, a.modulation_order, a.code_rate)
               for a in orch.subnets[snssai].admitted_drbs]
    if extra is not None and extra[0] == snssai:
        entries.append(extra[1:])
    total = sum(w for w, _, _ in entries)
    if total == 0:
        return 0, 2, 1.0
    mean_m = sum(w * m for w, m, _ in entries) / total
    mean_cr = sum(w * cr for w, _, cr in entries) / total
    return total, min(MODULATION_ORDERS, key=lambda m: (abs(m - mean_m), m)), mean_cr


def assert_loads_match_the_reference(orch: Orchestrator) -> None:
    for s, sub in orch.subnets.items():
        demand, m, cr = reference_load(orch, s)
        assert sub.demand_prbs() == demand
        assert orch._slice_mcs(s) == (m, cr)


def reference_admission(orch: Orchestrator, snssai, drb, m: int, cr: float) -> Decision:
    """Unscoped admission check: project every live instance, rebuilt
    from state, with every slice's MCS, then check the instances the
    slice owns. Mutates nothing."""
    profile = orch.ds.nssts[orch.subnets[snssai].nsst_ref].slice_profile
    est = estimate_prbs(drb.qos.throughput_mbps, m, cr,
                        profile.numerology_index, profile.dl_ul_symbol_ratio)
    demand = {s: reference_load(orch, s)[0] for s in orch._sorted_slices()}
    demand[snssai] += est
    extra = (snssai, est, m, cr)
    mcs = {s: reference_load(orch, s, extra)[1:] for s in orch.subnets}
    for inst in orch._build_instances({}):
        consumption = du_vcpu_consumption if inst.kind == "du" else cu_vcpu_consumption
        per_slice = {}
        prbs = 0
        for s in inst.owners:
            share = _share(demand.get(s, 0), inst.pool, inst.index)
            per_slice[s] = consumption(SliceLoad(s, share, *mcs[s]), orch.params)
            prbs += share
        util = InstanceUtil(inst.instance_id, inst.kind, inst.shared, inst.owners,
                            per_slice, prbs, inst.capacity)
        if snssai in inst.owners:
            reject = orch._limit(util)
            if reject is not None:
                return reject
    return Decision(True, est_prbs=est)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Large DRBs, and 4-vCPU DUs, so that the CU (a shared CU's isolation
# or a CU's vNIC, which carries the slice's whole load) rejects too.
@given(n_slices=st.integers(1, 3), du_vcpus=st.sampled_from((1, 4)),
       scenario=st.sampled_from(Scenario), ops=op_lists(200.0))
def test_scoped_admission_and_memoised_instances_match_the_reference(n_slices, du_vcpus,
                                                                     scenario, ops):
    ds = descriptor_set(n_slices, du_vcpus)
    slices = ds.snssais()
    orch = Orchestrator(ds, scenario, PARAMS, BUDGET, THRESHOLDS, vnic_delay_cap_s=5e-3)
    for s in slices:
        orch.instantiate_subnet(s)
    live: list[tuple] = []
    for step, op in enumerate(ops):
        if op[0] == "scale":
            _, target, direction, i = op
            try:
                orch.scale(target, direction, slices[i % n_slices])
            except OrchestrationError:
                pass
        elif op[0] == "admit":
            _, i, mbps, (m, cr) = op
            s = slices[i % n_slices]
            drb = Drb(f"d{step}", s, DrbQos(mbps, 20.0, 0.99))
            expected = reference_admission(orch, s, drb, m, cr)
            assert orch.admit_drb(s, drb, m, cr) == expected
            if expected.admitted:
                live.append((s, drb.drb_id))
        elif op[0] == "depart" and live:
            orch.depart_drb(*live.pop(op[1] % len(live)))
        elif op[0] == "tick":
            orch.allocate_prbs(273)
            orch.observe_utilization()
            orch.apply_scaling_policies()
            orch.advance_clock()
        assert orch.instances() == orch._build_instances({})
        assert_loads_match_the_reference(orch)


def test_load_memo_sees_changes_made_to_the_drb_list_directly(ds_two_slices):
    orch = Orchestrator(ds_two_slices, Scenario.S1_DEDICATED, PARAMS, BUDGET)
    s = ds_two_slices.snssais()[0]
    sub = orch.instantiate_subnet(s)

    def drb(i: int, prbs: int, m: int, cr: float) -> AdmittedDrb:
        return AdmittedDrb(Drb(f"d{i}", s, DrbQos(10.0, 20.0, 0.99)), prbs, m, cr)

    def load():
        return (sub.demand_prbs(), *orch._slice_mcs(s))

    assert load() == (0, 2, 1.0)
    sub.admitted_drbs.append(drb(0, 30, 8, 0.9))
    sub.admitted_drbs.append(drb(1, 10, 2, 0.3))
    assert load() == reference_load(orch, s) == (40, 6, (30 * 0.9 + 10 * 0.3) / 40)
    sub.admitted_drbs[1] = drb(2, 50, 4, 0.5)      # same length, another DRB
    assert load() == reference_load(orch, s)
    sub.admitted_drbs.clear()
    assert sub.demand_prbs() == 0 and orch._slice_mcs(s) == (2, 1.0)
