"""Property tests of the scaling-unit model, of the scoped admission
check, of the pool index and of the allocation hand-off: random
sequences of scale, admit, depart and tick operations, under every
sharing scenario, some of them also editing state by hand (then calling
the orchestrator's reset hook) between allocation and observation,
putting a dedicated pool head at the vNIC threshold or one PRB either
side of it, or instantiating a subnet midway; allocations after
scalings against a frozen copy of the allocation, the unit records
against a frozen copy of the tuple-keyed policy, and subnets following
a shared-DU scaling against a frozen copy of their two-search IL
choice. Then properties over generated deployments and loads: the
closed-form loads equal the consumption models, a pool's head decides
admission for its pool, allocation stays within demand, budget and
isolation and, checked on the shared pool heads alone, equals a frozen
copy of the allocation that projected every trial split in full, and
the vNIC threshold splits the PRB counts the vNIC limits accept from
those they reject. Last, the isolation predicate and the modulation
snap against frozen copies of their first versions."""

from __future__ import annotations

import copy
import math
import sys
from collections import deque
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import build_descriptor_set, build_documents, make_config

from ranslice.descriptors import ServiceType, Snssai, load_yaml, parse_descriptor_set
from ranslice.errors import RansliceError
from ranslice.orchestrator import (
    AdmittedDrb,
    BaselineOverloadError,
    Decision,
    Direction,
    Instance,
    OrchestrationError,
    Orchestrator,
    ScaleTarget,
    ScalingCause,
    ScalingEvent,
    ScalingThresholds,
    _fold,
    _vnic_threshold,
    evaluate_scaling_policy,
    _snap_modulation,
)
from ranslice.resources import (
    MODULATION_ORDERS,
    CapacityBudget,
    IsolationResult,
    ResourceModelParams,
    SliceLoad,
    check_isolation,
    cu_vcpu_consumption,
    du_vcpu_consumption,
    estimate_prbs,
    vnic_mean_wait,
    VnicSaturatedError,
)
from ranslice.sim import McsAtom, run
from ranslice.topology import Drb, DrbQos, Scenario

PARAMS = ResourceModelParams(c0=0.002, k=0.004, beta=0.35)
BUDGET = CapacityBudget(vcpu_capacity=1.0, per_slice_cap=0.9)
# Short window and cooldown so that the policy fires within a few ticks.
THRESHOLDS = ScalingThresholds(hi=0.6, lo=0.3, window=2, cooldown=1)
MCS = ((2, 0.3), (4, 0.5), (6, 0.75), (8, 0.9))


def op_lists(max_mbps: float, *more, min_size: int = 0):
    """Random operation sequences, admitting DRBs of up to ``max_mbps``,
    drawn from the four orchestrator operations plus the ``more`` ones."""
    return st.lists(st.one_of(
        st.tuples(st.just("scale"),
                  st.sampled_from((ScaleTarget.CU, ScaleTarget.DU, ScaleTarget.SHARED_DU)),
                  st.sampled_from(Direction), st.integers(0, 2)),
        st.tuples(st.just("admit"), st.integers(0, 2), st.floats(0.5, max_mbps),
                  st.sampled_from(MCS)),
        st.tuples(st.just("depart"), st.integers(0, 1000)),
        st.just(("tick",)),
        *more,
    ), min_size=min_size, max_size=30)


OPS = op_lists(60.0)


def unit_slice(target: ScaleTarget, slices: list, i: int):
    """The slice a drawn scale op names: none for the shared DU pool, the
    one unit of every slice (scale refuses it a slice)."""
    return None if target is ScaleTarget.SHARED_DU else slices[i % len(slices)]


# Model parameters, fixed at construction: PARAMS or one that moves
# some consumption.
PARAM_DRAWS = st.sampled_from((PARAMS, replace(PARAMS, k=0.002), replace(PARAMS, beta=0.3),
                               replace(PARAMS, cu_scale=0.5), replace(PARAMS, c0=0.01)))

# State edited by hand, each edit followed by the reset hook: a DRB
# appended to a subnet's DRBs, one removed from among them, one replaced
# by a DRB of equal PRB estimate at another MCS, a scale level (or the
# auxiliary IL) or a subnet's allocated PRBs set directly.
EDITS = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 2), st.integers(1, 120),
              st.sampled_from(MCS)),
    st.tuples(st.just("remove"), st.integers(0, 2), st.integers(0, 1000)),
    st.tuples(st.just("remcs"), st.integers(0, 2), st.integers(0, 1000), st.sampled_from(MCS)),
    st.tuples(st.just("level"), st.sampled_from(("cu", "du")), st.integers(0, 2),
              st.integers(0, 2)),
    st.tuples(st.just("prbs"), st.integers(0, 2), st.integers(0, 273)),
)
# Allocation and observation as separate steps, with one edit in between
# ("handoff": allocate, the edit, observe), so that an edit the reset
# hook misses is not masked by another edit, or with edits anywhere.
STATE_EDITS = (
    st.tuples(st.just("handoff"), EDITS),
    st.just(("allocate",)),
    st.just(("observe",)),
    EDITS,
)
# A slice's DRBs set by hand so that the next arrival, admitted or not,
# puts its dedicated pool head (a shared one in s2) at the vNIC
# threshold -1, 0 or +1 PRBs (see to_vnic_threshold).
EDGES = st.tuples(st.just("edge"), st.integers(0, 2), st.integers(-1, 1), st.sampled_from(MCS))


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
                orch.scale(target, direction, unit_slice(target, slices, i))
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
    return total, reference_snap(mean_m), mean_cr


def reference_snap(value: float) -> int:
    """The modulation order nearest ``value``, the lower one on a tie."""
    return min(MODULATION_ORDERS, key=lambda m: (abs(m - value), m))


def assert_loads_match_the_reference(orch: Orchestrator) -> None:
    for s, sub in orch.subnets.items():
        demand, m, cr = reference_load(orch, s)
        assert sub.demand_prbs() == demand
        assert orch.subnets[s].mcs() == (m, cr)


def reference_projection(orch: Orchestrator, prbs_by_slice, extra=None) -> list[Instance]:
    """Every live instance, rebuilt from state, projected at
    ``prbs_by_slice`` with every slice's MCS from ``reference_load``
    (``extra`` as there) and the consumption models called afresh.
    Mutates nothing and reads no memo."""
    mcs = {s: reference_load(orch, s, extra)[1:] for s in orch.subnets}
    projected = []
    for inst in orch._build_instances({})[0]:
        consumption = du_vcpu_consumption if inst.kind == "du" else cu_vcpu_consumption
        per_slice = {}
        prbs = 0
        for s in inst.owners:
            # An even integer split, the remainder to the lowest indices.
            total = prbs_by_slice.get(s, 0)
            share = total // inst.pool + (1 if inst.index < total % inst.pool else 0)
            per_slice[s] = consumption(SliceLoad(s, share, *mcs[s]), orch.params)
            prbs += share
        projected.append(Instance(inst.instance_id, inst.kind, inst.owners, inst.capacity,
                                  inst.index, inst.pool, per_slice, prbs))
    return projected


def owner_scan(insts) -> dict:
    """Each owner's DU positions and CU positions in ``insts``, found by
    scanning every instance's owners."""
    return {s: ([j for j, i in enumerate(insts) if i.kind == "du" and s in i.owners],
                [j for j, i in enumerate(insts) if i.kind == "cu" and s in i.owners])
            for s in {s for i in insts for s in i.owners}}


def reference_admission(orch: Orchestrator, snssai, drb, m: int, cr: float) -> Decision:
    """Unscoped admission check: project every live instance with the
    slice at its post-admission demand, then check the instances the
    slice owns, each with the vNIC wait computed at any PRB count (no
    vNIC threshold). Mutates nothing."""
    profile = orch.ds.nssts[orch.subnets[snssai].nsst_ref].slice_profile
    est = estimate_prbs(drb.qos.throughput_mbps, m, cr,
                        profile.numerology_index, profile.dl_ul_symbol_ratio)
    demand = {s: reference_load(orch, s)[0] for s in orch.subnets}
    demand[snssai] += est
    no_threshold = copy.copy(orch)
    no_threshold._vnic_prbs = 0
    for util in reference_projection(orch, demand, (snssai, est, m, cr)):
        if snssai in util.owners:
            reject = no_threshold._limit(util)
            if reject is not None:
                return reject
    return Decision(True, est_prbs=est)


def to_vnic_threshold(orch: Orchestrator, s, drb, m: int, cr: float, delta: int,
                      step: int) -> None:
    """Replace slice ``s``'s DRBs by hand with one, sized so that admitting
    ``drb`` next puts the slice's first dedicated pool head (its DU head,
    else its CU, else its shared DU head) at the vNIC threshold plus
    ``delta`` PRBs, then call the reset hook."""
    profile = orch.ds.nssts[orch.subnets[s].nsst_ref].slice_profile
    est = estimate_prbs(drb.qos.throughput_mbps, m, cr,
                        profile.numerology_index, profile.dl_ul_symbol_ratio)
    heads = orch._owned_by(s)
    head = next((h for h in heads if not h.shared), heads[0])
    prbs = (orch._vnic_prbs + delta) * head.pool - est
    assert prbs > 0
    orch.subnets[s].admitted_drbs = (
        AdmittedDrb(Drb(f"d{step}-edge", s, DrbQos(1.0, 20.0, 0.99)), prbs, 6, 0.75),)
    orch._relayout()


def as_rows(projected: list[Instance]) -> list[tuple]:
    """A projection with each per-slice mapping in insertion order, which
    sets the order its consumption is summed in."""
    return [(u.instance_id, u.kind, u.shared, u.owners, list(u.per_slice.items()),
             u.prbs, u.capacity) for u in projected]


def edit_by_hand(orch: Orchestrator, edit: tuple, step: int, live: list) -> None:
    """Apply one of EDITS to the orchestrator's state directly, then call
    the reset hook that a hand edit needs."""
    slices = list(orch.subnets)
    if edit[0] == "append":
        _, i, prbs, (m, cr) = edit
        s = slices[i % len(slices)]
        drb_id = f"d{step}-{len(live)}"
        orch.subnets[s].admitted_drbs += (
            AdmittedDrb(Drb(drb_id, s, DrbQos(1.0, 20.0, 0.99)), prbs, m, cr),)
        live.append((s, drb_id))
    elif edit[0] in ("remove", "remcs"):
        sub = orch.subnets[slices[edit[1] % len(slices)]]
        drbs = list(sub.admitted_drbs)
        if drbs:
            j = edit[2] % len(drbs)
            if edit[0] == "remove":
                del drbs[j]
            else:
                m, cr = edit[3]
                drbs[j] = replace(drbs[j], modulation_order=m, code_rate=cr)
            sub.admitted_drbs = tuple(drbs)
    elif edit[0] == "level":
        _, kind, i, j = edit
        s = slices[i % len(slices)]
        nsd = orch.ds.gnb_nsds[orch.subnets[s].nsd_ref]
        if kind == "cu":
            levels = nsd.sa_cu.sl_ids()
            orch.subnets[s].cu_sl = levels[j % len(levels)]
        elif orch.aux is not None:
            levels = [il.id for il in orch.ds.aux_nsds[orch.aux.aux_nsd_ref].ils]
            orch.aux.current_il = levels[j % len(levels)]
        else:
            levels = nsd.sa_du.sl_ids()
            orch.subnets[s].du_sl = levels[j % len(levels)]
    else:
        orch.subnets[slices[edit[1] % len(slices)]].allocated_prbs = edit[2]
    orch._relayout()


def observe_and_check(orch: Orchestrator) -> None:
    """observe_utilization equals the reference projection at the live
    allocations. The snapshot is then scribbled over, as a caller may
    do, so a later observation that returned it again would differ."""
    alloc = {s: sub.allocated_prbs for s, sub in orch.subnets.items()}
    expected = reference_projection(orch, alloc)
    snapshot = orch.observe_utilization()
    assert as_rows(snapshot) == as_rows(expected)
    for util in snapshot:
        for s in util.per_slice:
            util.per_slice[s] = -1.0


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Large DRBs, and 4-vCPU DUs, so that the CU (a shared CU's isolation
# or a CU's vNIC, which carries the slice's whole load) rejects too.
@given(n_slices=st.integers(1, 3), n_start=st.integers(1, 3), du_vcpus=st.sampled_from((1, 4)),
       scenario=st.sampled_from(Scenario), params=PARAM_DRAWS,
       ops=op_lists(200.0, *STATE_EDITS, st.just(("instantiate",)), EDGES, min_size=4))
# A shared CU that only the arriving DRB's own PRBs push over its cap,
# under a DU head that holds.
@example(n_slices=2, n_start=1, du_vcpus=1, scenario=Scenario.S3_CU_SHARED, params=PARAMS,
         ops=[("tick",), ("instantiate",), ("admit", 0, 12.0, (6, 0.75)),
              ("admit", 0, 75.0, (8, 0.9))])
# Dedicated heads one PRB below, at and one above the vNIC threshold: a
# DU pool of one with its CU, and a DU pool of two under a shared CU.
@example(n_slices=1, n_start=1, du_vcpus=1, scenario=Scenario.S1_DEDICATED, params=PARAMS,
         ops=[("edge", 0, -1, (6, 0.75)), ("edge", 0, 0, (6, 0.75)),
              ("edge", 0, 1, (6, 0.75))])
@example(n_slices=2, n_start=2, du_vcpus=1, scenario=Scenario.S3_CU_SHARED, params=PARAMS,
         ops=[("scale", ScaleTarget.DU, Direction.UP, 1), ("edge", 1, -1, (4, 0.5)),
              ("edge", 1, 0, (4, 0.5)), ("edge", 1, 1, (4, 0.5))])
def test_scoped_admission_and_memoised_instances_match_the_reference(n_slices, n_start, du_vcpus,
                                                                     scenario, params, ops):
    # Subnets after the first ``n_start`` are instantiated by an op.
    ds = descriptor_set(n_slices, du_vcpus)
    orch = Orchestrator(ds, scenario, params, BUDGET, THRESHOLDS, vnic_delay_cap_s=5e-3)
    waiting = list(ds.snssais())
    live: list[tuple] = []
    for step, op in enumerate((("instantiate",),) * n_start + tuple(ops)):
        here = list(orch.subnets)
        if op[0] == "instantiate":
            if waiting:
                orch.instantiate_subnet(waiting.pop(0))
        elif op[0] == "scale":
            _, target, direction, i = op
            try:
                orch.scale(target, direction, unit_slice(target, here, i))
            except OrchestrationError:
                pass
        elif op[0] in ("admit", "edge"):
            _, i, x, (m, cr) = op
            s = here[i % len(here)]
            drb = Drb(f"d{step}", s, DrbQos(12.0 if op[0] == "edge" else x, 20.0, 0.99))
            if op[0] == "edge":
                to_vnic_threshold(orch, s, drb, m, cr, x, step)
            expected = reference_admission(orch, s, drb, m, cr)
            # Every other arrival names its slice by a newly constructed
            # Snssai, which interning makes the subnet's own object.
            caller_s = Snssai(s.service_type, s.subtype) if step % 2 else s
            assert orch.admit_drb(caller_s, drb, m, cr) == expected
            if expected.admitted:
                live.append((s, drb.drb_id))
        elif op[0] == "depart" and live:
            orch.depart_drb(*live.pop(op[1] % len(live)))
        elif op[0] == "tick":
            orch.allocate_prbs(273)
            observe_and_check(orch)
            orch.apply_scaling_policies()
            orch.advance_clock()
        elif op[0] == "handoff":
            orch.allocate_prbs(273)
            edit_by_hand(orch, op[1], step, live)
            observe_and_check(orch)
        elif op[0] == "allocate":
            orch.allocate_prbs(273)
        elif op[0] == "observe":
            observe_and_check(orch)
        elif op[0] in ("append", "remove", "remcs", "level", "prbs"):
            edit_by_hand(orch, op, step, live)
        fresh = orch._build_instances({})[0]
        assert orch.instances() == fresh
        # The live pool index equals an owner scan of a fresh build.
        assert {s: (list(dus), [cu]) for s, (dus, cu) in orch.pools().items()} == \
            owner_scan(fresh)
        assert_loads_match_the_reference(orch)


# Lifecycle operations only: admissions large enough to be rejected too,
# departures (some of an unknown DRB), scalings and instantiations.
LIFECYCLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("admit"), st.integers(0, 2), st.floats(0.5, 200.0), st.sampled_from(MCS)),
    st.tuples(st.just("depart"), st.integers(0, 1000), st.booleans()),
    st.tuples(st.just("scale"),
              st.sampled_from((ScaleTarget.CU, ScaleTarget.DU, ScaleTarget.SHARED_DU)),
              st.sampled_from(Direction), st.integers(0, 2)),
    st.just(("instantiate",)),
), max_size=4)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_slices=st.integers(1, 3), du_vcpus=st.sampled_from((1, 4)),
       scenario=st.sampled_from(Scenario), params=PARAM_DRAWS,
       rounds=st.lists(LIFECYCLE_OPS, min_size=1, max_size=8))
# Shared pool heads built at one DU, then the pool scaled to two and
# admitted past what one DU holds: the next allocation must check the
# new heads, not those of the layout before.
@example(n_slices=2, du_vcpus=1, scenario=Scenario.S4_DU_SHARED, params=PARAMS,
         rounds=[[("instantiate",), ("admit", 0, 20.0, (6, 0.75)),
                  ("scale", ScaleTarget.SHARED_DU, Direction.UP, 0),
                  ("admit", 0, 20.0, (6, 0.75))],
                 [("admit", 0, 20.0, (6, 0.75)), ("admit", 0, 20.0, (6, 0.75))], []])
def test_lifecycle_operations_between_allocation_and_observation_keep_it_exact(
        n_slices, du_vcpus, scenario, params, rounds):
    # Each round allocates, runs its lifecycle operations, then observes:
    # the snapshot, the hand-off or a fresh projection, equals the
    # reference projection at the allocations. One subnet starts live.
    # Each allocation, on the layout the last round's scalings and
    # instantiations left, equals the reference allocation.
    ds = descriptor_set(n_slices, du_vcpus)
    orch = Orchestrator(ds, scenario, params, BUDGET, THRESHOLDS, vnic_delay_cap_s=5e-3)
    waiting = list(ds.snssais())
    orch.instantiate_subnet(waiting.pop(0))
    live: list[tuple] = []
    for r, ops in enumerate(rounds):
        expected = reference_allocation(orch, 273)[0]
        assert orch.allocate_prbs(273) == expected
        for step, op in enumerate(ops):
            here = list(orch.subnets)
            if op[0] == "admit":
                _, i, mbps, (m, cr) = op
                s = here[i % len(here)]
                drb = Drb(f"d{r}-{step}", s, DrbQos(mbps, 20.0, 0.99))
                if orch.admit_drb(s, drb, m, cr).admitted:
                    live.append((s, drb.drb_id))
            elif op[0] == "depart":
                if live and op[2]:
                    assert orch.depart_drb(*live.pop(op[1] % len(live)))
                else:
                    assert not orch.depart_drb(here[op[1] % len(here)], "unknown")
            elif op[0] == "scale":
                _, target, direction, i = op
                try:
                    orch.scale(target, direction, unit_slice(target, here, i))
                except OrchestrationError:
                    pass
            elif waiting:
                orch.instantiate_subnet(waiting.pop(0))
        observe_and_check(orch)


class TupleKeyedPolicy(Orchestrator):
    """The scaling policy as first written, frozen: units are
    ``(ScaleTarget, Snssai | None)`` tuples listed afresh on every call,
    their histories and last decisions live in dicts keyed by them, a
    unit's instances are found by scanning, and a unit steps through its
    levels by ``sl_ids().index``. Observation always projects afresh.
    Projection, limits and scale() are the orchestrator's own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ref_hist: dict[tuple, deque] = {}
        self.ref_last: dict[tuple, tuple] = {}

    def ref_units(self) -> list[tuple]:
        slices = self._slices
        units = [(ScaleTarget.CU, s) for s in slices]
        if self.aux is not None:
            return units + [(ScaleTarget.SHARED_DU, None)]
        return units + [(ScaleTarget.DU, s) for s in slices]

    @staticmethod
    def ref_own(unit, insts) -> list[Instance]:
        target, snssai = unit
        kind = "cu" if target is ScaleTarget.CU else "du"
        return [i for i in insts if i.kind == kind and (snssai is None or snssai in i.owners)]

    def ref_step(self, unit, direction):
        target, snssai = unit
        if target is ScaleTarget.SHARED_DU:
            levels = [il.id for il in self.ds.aux_nsds[self.aux.aux_nsd_ref].ils]
            current = self.aux.current_il
        elif target is ScaleTarget.CU:
            levels, current = self._nsd(snssai).sa_cu.sl_ids(), self.subnets[snssai].cu_sl
        else:
            levels, current = self._nsd(snssai).sa_du.sl_ids(), self.subnets[snssai].du_sl
        j = levels.index(current) + (1 if direction is Direction.UP else -1)
        return levels[j] if 0 <= j < len(levels) else None

    def ref_target_il(self, unit, level):
        target, snssai = unit
        if target is ScaleTarget.SHARED_DU:
            return self.ds.aux_nsds[self.aux.aux_nsd_ref].il(level)
        subnet = self.subnets[snssai]
        pair = (level, subnet.du_sl) if target is ScaleTarget.CU else (subnet.cu_sl, level)
        return self._nsd(snssai).find_il(*pair)

    def observe_utilization(self) -> list[Instance]:
        insts = self._project(self._allocated_map())
        for unit in self.ref_units():
            target, s = unit
            mine = self.ref_own(unit, insts)
            if target is ScaleTarget.CU:
                util = mine[0].per_slice[s] / self._cu_capacity_of(self._nsd(s),
                                                                   self.subnets[s].cu_sl)
            else:
                util = sum(i.consumption for i in mine) / sum(i.capacity for i in mine)
            self.ref_hist.setdefault(unit, deque(maxlen=self.thresholds.window)).append(util)
        return insts

    def apply_scaling_policies(self) -> list:
        events = []
        for unit in self.ref_units():
            hist = self.ref_hist.get(unit)
            if not hist:
                continue
            decision = evaluate_scaling_policy(list(hist), self.thresholds,
                                               self.ref_last.get(unit), self.clock)
            if decision is None:
                continue
            level = self.ref_step(unit, decision)
            if level is None or self.ref_target_il(unit, level) is None:
                continue
            if decision is Direction.DOWN and any(
                    (not inst.shared and inst.consumption > inst.capacity)
                    or self._limit(inst, vnic=unit[0] is not ScaleTarget.CU) is not None
                    for inst in self._project(
                        self._allocated_map(),
                        insts=self.ref_own(unit, self._build_instances({unit: level})[0]))):
                continue
            cause = (ScalingCause.LOAD_INCREASE if decision is Direction.UP
                     else ScalingCause.LOAD_DECREASE)
            events += self.scale(unit[0], decision, unit[1], cause)
            self.ref_last[unit] = (self.clock, decision)
        return events


def assert_histories_match(orch: Orchestrator, ref: TupleKeyedPolicy) -> None:
    """Every unit the policy walks, in policy order, with its history."""
    assert [((r.target, r.snssai), list(r.hist)) for r in orch._units()] == [
        (u, list(ref.ref_hist.get(u, ()))) for u in ref.ref_units()]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_slices=st.integers(1, 3), n_start=st.integers(1, 3), du_vcpus=st.sampled_from((1, 4)),
       scenario=st.sampled_from(Scenario), params=PARAM_DRAWS,
       ops=op_lists(200.0, *STATE_EDITS, st.just(("instantiate",)), min_size=4))
# A shared CU above one subnet's own CU level; a unit set rebuilt after
# the first subnet's units have a history; a DU pool resized by hand.
@example(n_slices=2, n_start=2, du_vcpus=4, scenario=Scenario.S2_ALL_SHARED, params=PARAMS,
         ops=[("scale", ScaleTarget.CU, Direction.UP, 0), ("admit", 0, 50.0, (6, 0.75)),
              ("admit", 1, 50.0, (6, 0.75)), ("tick",)])
@example(n_slices=2, n_start=1, du_vcpus=4, scenario=Scenario.S4_DU_SHARED, params=PARAMS,
         ops=[("admit", 0, 50.0, (6, 0.75)), ("tick",), ("instantiate",), ("tick",)])
@example(n_slices=2, n_start=2, du_vcpus=1, scenario=Scenario.S1_DEDICATED, params=PARAMS,
         ops=[("admit", 0, 50.0, (6, 0.75)), ("tick",),
              ("handoff", ("level", "du", 0, 2)), ("tick",)])
def test_unit_records_match_the_tuple_keyed_policy(n_slices, n_start, du_vcpus, scenario,
                                                   params, ops):
    # Two orchestrators in lockstep, the second running the frozen
    # policy. Subnets after the first ``n_start`` are instantiated by an
    # op, which rebuilds the unit set between observations.
    ds = descriptor_set(n_slices, du_vcpus)
    slices = ds.snssais()
    orch, ref = (cls(ds, scenario, params, BUDGET, THRESHOLDS, vnic_delay_cap_s=5e-3)
                 for cls in (Orchestrator, TupleKeyedPolicy))
    both = (orch, ref)
    waiting = list(slices)
    live: list[tuple] = []
    for step, op in enumerate((("instantiate",),) * n_start + tuple(ops)):
        if op[0] == "instantiate":
            if waiting:
                s = waiting.pop(0)
                for o in both:
                    o.instantiate_subnet(s)
            continue
        here = list(orch.subnets)
        if op[0] == "scale":
            _, target, direction, i = op
            outcomes = []
            for o in both:
                try:
                    outcomes.append(o.scale(target, direction, unit_slice(target, here, i)))
                except OrchestrationError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
        elif op[0] == "admit":
            _, i, mbps, (m, cr) = op
            s = here[i % len(here)]
            drb = Drb(f"d{step}", s, DrbQos(mbps, 20.0, 0.99))
            decisions = [o.admit_drb(s, drb, m, cr) for o in both]
            assert decisions[0] == decisions[1]
            if decisions[0].admitted:
                live.append((s, drb.drb_id))
        elif op[0] == "depart" and live:
            gone = live.pop(op[1] % len(live))
            for o in both:
                o.depart_drb(*gone)
        elif op[0] == "tick":
            for o in both:
                o.allocate_prbs(273)
                o.observe_utilization()
            assert orch.apply_scaling_policies() == ref.apply_scaling_policies()
            for o in both:
                o.advance_clock()
        elif op[0] == "handoff":
            for o in both:
                o.allocate_prbs(273)
            edit_by_hand(ref, op[1], step, live.copy())
            edit_by_hand(orch, op[1], step, live)
            assert as_rows(orch.observe_utilization()) == as_rows(ref.observe_utilization())
        elif op[0] == "allocate":
            assert orch.allocate_prbs(273) == ref.allocate_prbs(273)
        elif op[0] == "observe":
            assert as_rows(orch.observe_utilization()) == as_rows(ref.observe_utilization())
        elif op[0] in ("append", "remove", "remcs", "level", "prbs"):
            edit_by_hand(ref, op, step, live.copy())
            edit_by_hand(orch, op, step, live)
        assert_histories_match(orch, ref)
    assert orch.events == ref.events


# Any PRB estimate, modulation order and code rate for a DRB set by hand.
DRB_LOADS = st.tuples(st.integers(0, 10**6), st.sampled_from(MODULATION_ORDERS),
                      st.floats(0.0, 1.0, exclude_min=True))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("admit"), st.floats(0.5, 40.0), st.sampled_from(MODULATION_ORDERS),
              st.floats(0.05, 1.0)),
    st.tuples(st.just("depart"), st.integers(0, 1000)),
    st.tuples(st.just("append"), DRB_LOADS),
    st.tuples(st.just("replace"), st.integers(0, 1000), DRB_LOADS),
), max_size=40), probe=DRB_LOADS)
def test_continued_folds_equal_a_refold_and_the_reference(ops, probe):
    # One slice with room for many DRBs: admissions continue the fold,
    # departures (from anywhere) and edits by hand replace the DRBs.
    ds = descriptor_set(1, du_vcpus=4)
    s = ds.snssais()[0]
    orch = Orchestrator(ds, Scenario.S1_DEDICATED, PARAMS, CapacityBudget(64.0, 0.9),
                        THRESHOLDS, vnic_delay_cap_s=1.0)
    sub = orch.instantiate_subnet(s)

    def drb(i: int, load: tuple) -> AdmittedDrb:
        return AdmittedDrb(Drb(f"h{i}", s, DrbQos(1.0, 20.0, 0.99)), *load)

    for step, op in enumerate(ops):
        if op[0] == "admit":
            before = (sub.admitted_drbs, sub._folded())
            decision = orch.admit_drb(s, Drb(f"d{step}", s, DrbQos(op[1], 20.0, 0.99)),
                                      op[2], op[3])
            if decision.admitted:
                # The memo was continued by the DRB, not refolded.
                assert sub._memo[0] is sub.admitted_drbs
                assert sub._memo[1] == _fold(sub.admitted_drbs)
            else:
                assert sub.admitted_drbs is before[0] and sub._memo[1] == before[1]
        elif op[0] == "depart" and sub.admitted_drbs:
            drbs = sub.admitted_drbs
            assert orch.depart_drb(s, drbs[op[1] % len(drbs)].drb.drb_id)
        elif op[0] == "append":
            sub.admitted_drbs += (drb(step, op[1]),)
        elif op[0] == "replace" and sub.admitted_drbs:
            drbs = list(sub.admitted_drbs)
            drbs[op[1] % len(drbs)] = drb(step, op[2])
            sub.admitted_drbs = tuple(drbs)
        demand, m, cr = reference_load(orch, s)
        assert (sub.demand_prbs(), *sub.mcs()) == (demand, m, cr)
        assert sub._folded() == _fold(sub.admitted_drbs)
        # One more DRB continues the kept fold as a refold would.
        extra = drb(-1, probe)
        assert sub._folded(extra) == _fold((*sub.admitted_drbs, extra))


class TwoSearchFollow(Orchestrator):
    """_follow_aux as it was with two IL searches, frozen: find_il at the
    smallest CU level covering the demand (the largest if none does),
    then, if that pair is not declared, the cheapest covering IL."""

    def _follow_aux(self, s, cause):
        subnet = self.subnets[s]
        nsd = self._nsd(s)
        new_du_sl = self.aux.current_il
        if nsd.sa_du.sl(new_du_sl) is None:
            self.findings.append(
                f"InconsistentIl: {s}: sa_du has no scale level {new_du_sl!r}")
            return None
        loaded = self._slices if self.scenario.cu_shared else [s]
        need = sum(cu_vcpu_consumption(
            SliceLoad(t, self.subnets[t].demand_prbs(), *self.subnets[t].mcs()), self.params)
            for t in loaded)
        covering = [sl.id for sl in nsd.sa_cu.sls if self._cu_capacity_of(nsd, sl.id) >= need]
        chosen = nsd.find_il(covering[0] if covering else nsd.sa_cu.sls[-1].id, new_du_sl)
        if chosen is None:
            candidates = [il for il in nsd.ils
                          if il.du_sl == new_du_sl and il.cu_sl is not None
                          and self._cu_capacity_of(nsd, il.cu_sl) >= need]
            if not candidates:
                self.findings.append(
                    f"InconsistentIl: {s}: no declared IL matches du_sl {new_du_sl!r}")
                return None
            chosen = min(candidates, key=lambda il: self._cu_capacity_of(nsd, il.cu_sl))
        previous = subnet.current_il
        subnet.cu_sl, subnet.du_sl, subnet.current_il = chosen.cu_sl, chosen.du_sl, chosen.id
        if chosen.id == previous:
            return None
        return ScalingEvent(time=self.clock, target=ScaleTarget.SUBNET_IL, snssai=s,
                            from_level=previous, to_level=chosen.id, cause=cause)


@lru_cache(maxsize=None)
def il_documents(n_slices: int, cu_vcpus: tuple[int, ...]) -> tuple[dict, ...]:
    """A shared-DU deployment, DU levels of 1, 2 and 3 instances and CU
    levels of ``cu_vcpus`` vCPUs, declaring the single IL of
    ``full_il_product=False``."""
    return tuple(load_yaml(doc) for doc in build_documents(
        n_slices=n_slices, du_counts=(1, 2, 3), cu_vcpus=cu_vcpus, du_vcpus=4,
        full_il_product=False))


def il_descriptor_set(n_slices: int, cu_vcpus: tuple[int, ...], ils: tuple | None):
    """il_documents with each gNB NSD declaring ``ils``, (CU level, DU
    level) index pairs in that order, instead (None keeps the single IL)."""
    docs = il_documents(n_slices, cu_vcpus)
    if ils is not None:
        declared = [{"id": f"il-{i + 1}-{j + 1}", "cu_sl": f"cu-sl-{i + 1}",
                     "du_sl": f"du-sl-{j + 1}"} for i, j in ils]
        docs = [{**doc, "gnb_nsd": {**doc["gnb_nsd"], "ils": declared}} if "gnb_nsd" in doc
                else doc for doc in docs]
    return parse_descriptor_set(docs)


@st.composite
def il_declarations(draw) -> tuple[tuple[int, ...], tuple | None]:
    """CU level sizes, equal sizes included, and the ILs to declare: the
    partial product of ``full_il_product=False``, or any pairs in any
    order with at least one at the first DU level, where a shared DU
    starts."""
    cu_vcpus = tuple(sorted(draw(st.lists(st.sampled_from((1, 2, 4)), min_size=1, max_size=3))))
    if draw(st.booleans()):
        return cu_vcpus, None
    pairs = draw(st.lists(st.tuples(st.integers(0, len(cu_vcpus) - 1), st.integers(0, 2)),
                          max_size=8))
    first = (draw(st.integers(0, len(cu_vcpus) - 1)), 0)
    pairs.insert(draw(st.integers(0, len(pairs))), first)
    return cu_vcpus, tuple(dict.fromkeys(pairs))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_slices=st.integers(2, 3), declared=il_declarations(),
       scenario=st.sampled_from((Scenario.S2_ALL_SHARED, Scenario.S4_DU_SHARED)),
       ops=st.lists(st.one_of(
           st.tuples(st.just("scale"), st.sampled_from((ScaleTarget.CU, ScaleTarget.SHARED_DU)),
                     st.sampled_from(Direction), st.integers(0, 2)),
           st.tuples(st.just("append"), st.integers(0, 2), st.integers(1, 300),
                     st.sampled_from(MCS)),
           st.tuples(st.just("depart"), st.integers(0, 1000))), max_size=20))
# Two 1-vCPU CU levels; no CU level covers the load, and the largest one
# has no IL at the new DU level: the subnet keeps its IL, with a finding.
@example(n_slices=2, declared=((1, 1), ((0, 0), (0, 1))), scenario=Scenario.S2_ALL_SHARED,
         ops=[("append", 0, 57, (8, 0.9)), ("scale", ScaleTarget.SHARED_DU, Direction.UP, 0)])
def test_subnets_follow_the_shared_du_as_with_two_il_searches(n_slices, declared, scenario, ops):
    ds = il_descriptor_set(n_slices, *declared)
    orch, ref = (cls(ds, scenario, PARAMS, BUDGET, THRESHOLDS)
                 for cls in (Orchestrator, TwoSearchFollow))
    both = (orch, ref)
    for s in ds.snssais():
        for o in both:
            o.instantiate_subnet(s)
    slices = list(orch.subnets)
    live: list[tuple] = []
    for step, op in enumerate(ops):
        if op[0] == "scale":
            _, target, direction, i = op
            outcomes = []
            for o in both:
                try:
                    outcomes.append(o.scale(target, direction, unit_slice(target, slices, i)))
                except OrchestrationError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
        elif op[0] == "append":
            edit_by_hand(ref, op, step, live.copy())
            edit_by_hand(orch, op, step, live)
        elif op[0] == "depart" and live:
            gone = live.pop(op[1] % len(live))
            for o in both:
                o.depart_drb(*gone)
        assert [(sub.current_il, sub.cu_sl, sub.du_sl) for sub in orch.subnets.values()] == \
            [(sub.current_il, sub.cu_sl, sub.du_sl) for sub in ref.subnets.values()]
        assert orch.findings == ref.findings


@lru_cache(maxsize=None)
def pool_descriptor_set(n_slices: int, du_vcpus: int):
    return build_descriptor_set(n_slices=n_slices, du_counts=(1, 2, 3, 4),
                                cu_vcpus=(1, 2, 4), du_vcpus=du_vcpus)


@st.composite
def deployments(draw, max_c0: float = 0.6) -> Orchestrator:
    """An orchestrator over 1-4 slices in any scenario, with DU pools of
    1-4 instances, random model parameters (baselines up to ``max_c0``),
    capacities, per-slice cap and vNIC delay cap, and 0-3 DRBs appended
    to each slice by hand (so the loads need not be admissible)."""
    n_slices = draw(st.integers(1, 4))
    ds = pool_descriptor_set(n_slices, draw(st.sampled_from((1, 2, 4, 8))))
    params = ResourceModelParams(
        c0=draw(st.floats(0.0, max_c0)), k=draw(st.floats(1e-5, 0.05)),
        beta=draw(st.floats(0.01, 1.0)), cu_scale=draw(st.floats(0.01, 0.99)),
        vnic_service_rate=draw(st.floats(1e2, 1e6)), pkt_per_prb=draw(st.floats(1.0, 500.0)))
    budget = CapacityBudget(1.0, draw(st.floats(0.3, 1.0)))
    orch = Orchestrator(ds, draw(st.sampled_from(Scenario)), params, budget, THRESHOLDS,
                        vnic_delay_cap_s=draw(st.floats(1e-5, 1e-2)))
    for i, s in enumerate(ds.snssais()):
        sub = orch.instantiate_subnet(s)
        nsd = ds.gnb_nsds[sub.nsd_ref]
        sub.cu_sl = draw(st.sampled_from(nsd.sa_cu.sl_ids()))
        sub.du_sl = draw(st.sampled_from(nsd.sa_du.sl_ids()))
        for j in range(draw(st.integers(0, 3))):
            m = draw(st.sampled_from(MODULATION_ORDERS))
            sub.admitted_drbs += (AdmittedDrb(
                Drb(f"d{i}-{j}", s, DrbQos(1.0, 20.0, 0.99)), draw(st.integers(1, 200)),
                m, draw(st.floats(0.05, 1.0))),)
    if orch.aux is not None:
        orch.aux.current_il = draw(st.sampled_from(
            [il.id for il in ds.aux_nsds[orch.aux.aux_nsd_ref].ils]))
    orch._relayout()                # the reset hook that hand edits need
    return orch


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(orch=deployments(), prbs=st.lists(st.integers(0, 4000), min_size=4, max_size=4),
       drbs=st.lists(st.lists(st.tuples(st.integers(1, 1000), st.sampled_from(MODULATION_ORDERS),
                                        st.floats(0.0, 1.0, exclude_min=True)),
                              max_size=3), min_size=4, max_size=4))
def test_closed_form_loads_equal_the_consumption_models(orch, prbs, drbs):
    # Each slice's DRBs replaced by hand with ones at any MCS (code rates
    # down to the smallest float); every load _loads_on computes equals
    # the consumption model's at the owner's share and MCS, to the bit.
    split = {}
    for s, load, mine in zip(orch._slices, prbs, drbs):
        orch.subnets[s].admitted_drbs = tuple(
            AdmittedDrb(Drb(f"h{j}", s, DrbQos(1.0, 20.0, 0.99)), *d) for j, d in enumerate(mine))
        split[s] = load
    orch._relayout()
    for inst, per_slice, vnic in orch._loads_on(orch.instances(), split, {}):
        consumption = du_vcpu_consumption if inst.kind == "du" else cu_vcpu_consumption
        shares = {s: split[s] // inst.pool + (inst.index < split[s] % inst.pool)
                  for s in inst.owners}
        # SliceLoad refuses a code rate outside (0, 1], so the weighted
        # means stay inside it.
        assert per_slice == {s: consumption(SliceLoad(s, shares[s], *orch.subnets[s].mcs()),
                                            orch.params) for s in inst.owners}
        assert vnic == sum(shares.values())


def first_limit(orch: Orchestrator, insts) -> Decision | None:
    return next(filter(None, map(orch._limit, insts)), None)


def breaking_point(orch: Orchestrator, split: dict, s, hi: int = 4000) -> int:
    """The fewest PRBs for slice ``s``, the other slices' held, at which
    a DU ``s`` owns breaks a limit (bisected; ``hi`` if none breaks
    there). Where the pool's split has a remainder, only its head carries
    the extra PRB, so there the head alone may break."""
    def breaks(prbs: int) -> bool:
        projected = orch._project({**split, s: prbs})
        return first_limit(orch, [i for i in projected
                                   if i.kind == "du" and s in i.owners]) is not None

    if not breaks(hi):
        return hi
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if breaks(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(orch=deployments(), prbs=st.lists(st.integers(0, 1500), min_size=4, max_size=4),
       edge=st.integers(0, 5))
def test_a_pool_head_decides_admission_for_its_pool(orch, prbs, edge):
    # ``edge`` names a slice moved to its breaking point, if there is one.
    slices = orch._slices
    split = dict(zip(slices, prbs))
    if edge < len(slices):
        split[slices[edge]] = breaking_point(orch, split, slices[edge])
    projected = orch._project(split)
    pools: dict[tuple, list[Instance]] = {}
    for inst in projected:
        pools.setdefault((inst.kind, inst.owners), []).append(inst)
    for pool in pools.values():
        assert [i.index for i in pool] == list(range(pool[0].pool))
        if first_limit(orch, pool) is not None:
            assert orch._limit(pool[0]) is not None
    # So the pruned check gives the full check's Decision, detail included.
    for s in split:
        full = first_limit(orch, [i for i in projected if s in i.owners])
        assert first_limit(orch, orch._project(split, insts=orch._owned_by(s))) == full


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Baselines up to 1.5 vCPU, so that some deployments overload at zero PRBs.
@given(orch=deployments(max_c0=1.5), total_prbs=st.integers(0, 300))
def test_allocation_stays_within_demand_budget_and_isolation(orch, total_prbs):
    demand = {s: reference_load(orch, s)[0] for s in orch.subnets}
    per_slice_cap = orch.budget.per_slice_cap

    def isolated(alloc) -> bool:
        return all(check_isolation(i.per_slice, CapacityBudget(i.capacity, per_slice_cap)).ok
                   for i in reference_projection(orch, alloc) if i.shared)

    if not isolated({}):
        with pytest.raises(BaselineOverloadError):
            orch.allocate_prbs(total_prbs)
        return
    alloc = orch.allocate_prbs(total_prbs)
    assert alloc.keys() == demand.keys()
    assert all(0 <= alloc[s] <= demand[s] for s in alloc)
    assert sum(alloc.values()) <= total_prbs
    assert isolated(alloc)


def reference_allocation(orch: Orchestrator, total_prbs: int) -> tuple[dict, list[Instance]]:
    """allocate_prbs as first written, with every trial split projected
    in full (reference_projection) and isolation checked on every shared
    instance: the split and its final projection. Raises
    BaselineOverloadError as it did. Mutates nothing."""
    slices = orch._slices
    demand = {s: reference_load(orch, s)[0] for s in slices}
    total_demand = sum(demand.values())
    per_slice_cap = orch.budget.per_slice_cap

    def breaking(split) -> list[Instance]:
        return [i for i in reference_projection(orch, split) if i.shared and not check_isolation(
            i.per_slice, CapacityBudget(i.capacity, per_slice_cap)).ok]

    if total_demand <= total_prbs:
        alloc = dict(demand)
    else:
        shares = {s: total_prbs * demand[s] / total_demand for s in slices}
        alloc = {s: int(shares[s]) for s in slices}
        leftover = total_prbs - sum(alloc.values())
        by_remainder = sorted(slices, key=lambda s: (-(shares[s] - alloc[s]), s.key()))
        for s in by_remainder[:leftover]:
            alloc[s] += 1
    while broken := breaking(alloc):
        reducible = [s for s in slices if alloc[s] > 0]
        if not reducible:
            inst = broken[0]
            raise BaselineOverloadError(
                f"{inst.instance_id}: isolation fails with no PRBs allocated; slice "
                f"baselines sum to {sum(inst.per_slice.values()):.4f} vCPU against capacity "
                f"{inst.capacity:.4f}, per-slice cap {per_slice_cap:g}")
        victim = max(reducible, key=lambda s: (alloc[s], s.key()))
        alloc[victim] -= 1
    changed = True
    while changed:
        changed = False
        for s in slices:
            if alloc[s] >= demand[s] or sum(alloc.values()) >= total_prbs:
                continue
            trial = dict(alloc)
            trial[s] += 1
            if not breaking(trial):
                alloc = trial
                changed = True
    return alloc, reference_projection(orch, alloc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Baselines up to 1.5 vCPU, so that some deployments overload at zero
# PRBs, and budgets below and above demand, so that splits are trimmed
# and slack is handed back.
@given(orch=deployments(max_c0=1.5), total_prbs=st.integers(0, 400))
def test_allocation_on_shared_heads_equals_the_full_projection(orch, total_prbs):
    try:
        expected = reference_allocation(orch, total_prbs)
    except BaselineOverloadError as exc:
        with pytest.raises(BaselineOverloadError) as raised:
            orch.allocate_prbs(total_prbs)
        assert str(raised.value) == str(exc)
        return
    alloc = orch.allocate_prbs(total_prbs)
    assert alloc == expected[0]
    # The hand-off: every live instance projected once, at the split,
    # each summed once into its consumption.
    handoff = orch.observe_utilization()
    assert [(*row, u.consumption) for row, u in zip(as_rows(handoff), handoff)] == [
        (*row, sum(u.per_slice.values())) for row, u in zip(as_rows(expected[1]), expected[1])]
    # A projection made afresh fills the same sums in.
    orch._relayout()
    for u in orch.observe_utilization() + orch._project({s: total_prbs for s in orch._slices}):
        assert u.consumption == sum(u.per_slice.values())


# Service rates and packet rates from the smallest subnormal to the
# largest float, so that the arrival rate or 1/service rate overflows
# and the threshold reaches PRB counts beyond any float.
EXTREMES = (5e-324, 1e-300, 1e-9, 1.0, 1e9, 1e300, sys.float_info.max)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mu=st.sampled_from(EXTREMES) | st.floats(1e-3, 1e7),
       pkt=st.sampled_from(EXTREMES) | st.floats(1e-3, 1e4),
       cap=st.sampled_from((5e-324, 1e-300, 1e300, math.inf)) | st.floats(1e-7, 1.0))
def test_the_vnic_threshold_splits_accepts_from_rejects(mu, pkt, cap):
    params = replace(PARAMS, vnic_service_rate=mu, pkt_per_prb=pkt)
    threshold = _vnic_threshold(params, cap)

    def accepts(n: int) -> bool:
        # What _limit makes of vnic_mean_wait's outcome at n PRBs.
        try:
            return not vnic_mean_wait(n, params) > cap
        except (VnicSaturatedError, OverflowError):
            return False

    for n in {0, *range(threshold - 3, threshold + 4)}:
        if n >= 0:
            assert accepts(n) == (n < threshold), n


def reference_check_isolation(consumptions, budget: CapacityBudget) -> IsolationResult:
    """check_isolation as first written, with no early return."""
    total = sum(consumptions.values())
    slice_limit = budget.per_slice_cap * budget.vcpu_capacity
    violations: list[str] = []
    if total > budget.vcpu_capacity:
        violations.append(
            f"total consumption {total:.4f} exceeds capacity {budget.vcpu_capacity:.4f}")
    over = [s for s, used in consumptions.items() if used > slice_limit]
    for snssai in sorted(over, key=Snssai.key):
        violations.append(f"slice {snssai} consumption {consumptions[snssai]:.4f} "
                          f"exceeds cap {slice_limit:.4f}")
    return IsolationResult(ok=not violations, violations=tuple(violations))


SLICES = (Snssai(ServiceType.EMBB), Snssai(ServiceType.URLLC), Snssai(ServiceType.MMTC),
          Snssai(ServiceType.EMBB, "v2"), Snssai(ServiceType.URLLC, "v2"))


@st.composite
def isolation_cases(draw) -> tuple[dict, CapacityBudget]:
    """0-5 slices in any order, each consuming 0, a value at or next to
    the slice cap or the capacity (or a part of the capacity that may sum
    to it exactly), +-inf, NaN or any value up to a little over capacity."""
    capacity = draw(st.sampled_from((1.0, 2.0, 4.0)) | st.floats(1e-3, 64.0))
    budget = CapacityBudget(capacity, draw(st.sampled_from((0.5, 0.9, 1.0))
                                           | st.floats(0.01, 1.0, exclude_min=True)))
    limit = budget.per_slice_cap * capacity
    edges = [0.0, math.inf, -math.inf, math.nan]
    for v in (limit, capacity):
        edges += [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]
    edges += [capacity / n for n in range(2, 6)]
    value = st.sampled_from(edges) | st.floats(0.0, 1.2 * capacity)
    slices = draw(st.permutations(SLICES))[:draw(st.integers(0, 5))]
    return {s: draw(value) for s in slices}, budget


@settings(max_examples=300, deadline=None)
@given(case=isolation_cases())
def test_check_isolation_matches_the_reference(case):
    consumptions, budget = case
    result = check_isolation(consumptions, budget)
    expected = reference_check_isolation(consumptions, budget)
    assert (result.ok, result.violations) == (expected.ok, expected.violations)


@given(st.floats(1.0, 9.0) | st.sampled_from(
    (3.0, 5.0, 7.0, math.nan, *(math.nextafter(v, d) for v in (3.0, 5.0, 7.0)
                                for d in (math.inf, -math.inf)))))
def test_snap_modulation_matches_the_reference(value):
    assert _snap_modulation(value) == reference_snap(value)


@lru_cache(maxsize=None)
def two_slice_set():
    return build_descriptor_set(n_slices=2)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=st.sampled_from(Scenario), initial_drbs=st.integers(0, 3),
       loads=st.lists(st.tuples(st.floats(0.0, 1e308, exclude_min=True),
                                st.sampled_from(MODULATION_ORDERS),
                                st.floats(0.0, 1.0, exclude_min=True)),
                      min_size=2, max_size=2))
# Each value is accepted on its own, but the PRB estimate it gives is
# not finite.
@example(scenario=Scenario.S4_DU_SHARED, initial_drbs=1,
         loads=[(40.0, 6, 5e-324), (10.0, 4, 0.5)])
@example(scenario=Scenario.S1_DEDICATED, initial_drbs=1,
         loads=[(1e305, 6, 0.75), (10.0, 4, 0.5)])
def test_a_run_completes_or_raises_a_typed_error(scenario, initial_drbs, loads):
    # Every slice's throughput (finite, up to 1e308) and MCS, the code
    # rate subnormal to 1, are drawn; a 3-tick run with DRBs arriving on
    # every tick either runs or raises RansliceError, nothing else.
    ds = two_slice_set()
    base = make_config(ds, ticks=3, arrival_rate=1.0, initial_drbs=initial_drbs,
                       mean_holding=2.0, scenario=scenario)
    profiles = tuple(replace(p, qos=replace(p.qos, throughput_mbps=mbps),
                             mcs_distribution=(McsAtom(m, cr, 1.0),))
                     for p, (mbps, m, cr) in zip(base.profiles, loads))
    try:
        run(replace(base, profiles=profiles), ds)
    except RansliceError:
        pass
