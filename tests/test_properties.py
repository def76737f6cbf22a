"""Property tests of the orchestrator.

One state machine drives ``Orchestrator`` and the naive orchestrator of
``tests/reference.py`` side by side, under every sharing scenario: it
instantiates, admits (also at the vNIC threshold and one PRB either side
of it), departs, scales, allocates, observes, ticks and edits state by
hand, and after every step the two must agree on what each call returned
and on the state left behind. Cases found by hand replay as fixed steps.
Then properties over generated deployments and loads, each against the
reference where it has one: folds, closed-form loads, pool heads,
allocation and the vNIC threshold; the isolation predicate and the
modulation snap against copies of their first versions; and runs whose
trace rows must hold each slice's DU-pool maxima."""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from functools import lru_cache
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from corpus import mixed_aux_documents
from helpers import build_descriptor_set, build_documents, make_config, tput_for_prbs
from reference import Reference, slice_load

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
    ScalingThresholds,
    _fold,
    _snap_modulation,
    _vnic_threshold,
)
from ranslice.resources import (
    MODULATION_ORDERS,
    CapacityBudget,
    IsolationResult,
    ResourceModelParams,
    check_isolation,
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

# Model parameters, fixed at construction: PARAMS or one that moves
# some consumption.
PARAM_DRAWS = st.sampled_from((PARAMS, replace(PARAMS, k=0.002), replace(PARAMS, beta=0.3),
                               replace(PARAMS, cu_scale=0.5), replace(PARAMS, c0=0.01)))


@lru_cache(maxsize=None)
def descriptor_set(n_slices: int, du_vcpus: int = 1):
    return build_descriptor_set(n_slices=n_slices, du_counts=(1, 2, 3), cu_vcpus=(1, 2, 4),
                                du_vcpus=du_vcpus)


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
    """3-5 CU levels of 1 or 2 vCPUs, so that several tie, and the ILs to
    declare: the single IL (one draw in four), or each pair with even odds,
    in any order, with one at the first DU level, where a shared DU starts."""
    cu_vcpus = tuple(sorted(draw(st.lists(st.sampled_from((1, 2)), min_size=3, max_size=5))))
    if draw(st.integers(0, 3)) == 0:
        return cu_vcpus, None
    pairs = [(i, j) for i in range(len(cu_vcpus)) for j in range(3) if draw(st.booleans())]
    pairs.append((draw(st.integers(0, len(cu_vcpus) - 1)), 0))
    return cu_vcpus, tuple(dict.fromkeys(draw(st.permutations(pairs))))


@st.composite
def setups(draw) -> tuple:
    """(descriptor set, scenario, model parameters, subnets live at first):
    descriptor_set's under any scenario, or (two draws in three)
    il_descriptor_set's under a shared DU, where subnets follow the
    auxiliary IL."""
    if draw(st.integers(0, 2)) == 0:
        n_slices = draw(st.integers(1, 3))
        ds = descriptor_set(n_slices, draw(st.sampled_from((1, 4))))
        scenario = draw(st.sampled_from(Scenario))
    else:
        n_slices = draw(st.integers(2, 3))
        ds = il_descriptor_set(n_slices, *draw(il_declarations()))
        scenario = draw(st.sampled_from((Scenario.S2_ALL_SHARED, Scenario.S4_DU_SHARED)))
    return ds, scenario, draw(PARAM_DRAWS), draw(st.integers(1, n_slices))


def rows(vms) -> list[tuple]:
    """Instances, each per-slice mapping in insertion order, which sets the
    order its consumption is summed in."""
    return [(v.instance_id, v.kind, v.owners, v.capacity, v.index, v.pool,
             list(v.per_slice.items()), v.prbs, v.consumption) for v in vms]


def mirror(orch: Orchestrator) -> Reference:
    """A reference holding copies of the orchestrator's subnets and
    auxiliary service."""
    ref = Reference(orch.ds, orch.scenario, orch.params, orch.budget, orch.thresholds,
                    orch.vnic_delay_cap_s)
    ref.subnets = {s: replace(sub) for s, sub in orch.subnets.items()}
    ref.aux = orch.aux and replace(orch.aux)
    return ref


SLICE = st.integers(0, 2)
MBPS = st.floats(0.5, 200.0)
# State edited by hand: a DRB appended to a slice's DRBs, one removed
# from among them, one replaced by a DRB of equal PRB estimate at another
# MCS, a scale level (or the auxiliary IL) or a slice's allocated PRBs
# set directly.
EDITS = st.one_of(
    st.tuples(st.just("append"), SLICE, st.integers(1, 120), st.sampled_from(MCS)),
    st.tuples(st.just("remove"), SLICE, st.integers(0, 1000)),
    st.tuples(st.just("remcs"), SLICE, st.integers(0, 1000), st.sampled_from(MCS)),
    st.tuples(st.just("level"), SLICE, st.sampled_from(("cu", "du")), st.integers(0, 2)),
    st.tuples(st.just("prbs"), SLICE, st.integers(0, 273)),
)
# The shared DU pool twice as often as the rest: subnets then follow it.
UNIT_KINDS = st.sampled_from((ScaleTarget.SHARED_DU, *ScaleTarget))
# The rules a hand-off step runs between allocation and observation.
BETWEEN = st.one_of(
    st.tuples(st.just("admit"), SLICE, MBPS, st.sampled_from(MCS)),
    st.tuples(st.just("depart"), SLICE, st.integers(0, 1000), st.booleans()),
    st.tuples(st.just("scale"), UNIT_KINDS, st.sampled_from(Direction), st.integers(0, 3)),
    st.just(("instantiate",)),
    st.tuples(st.just("edit"), EDITS),
)


class EngineAgainstReference(RuleBasedStateMachine):
    """``Orchestrator`` and ``Reference`` driven side by side: each rule
    runs one operation on both and compares what they return, and the
    invariants compare the state they are left in."""

    @initialize(setup=setups())
    def start(self, setup):
        ds, scenario, params, n_start = setup
        self.orch, self.ref = self.both = tuple(
            cls(ds, scenario, params, BUDGET, THRESHOLDS, vnic_delay_cap_s=5e-3)
            for cls in (Orchestrator, Reference))
        self.waiting = list(ds.snssais())
        self.steps = self.shared_scalings = 0
        self.levels_by_hand = self.just_allocated = False
        scale = self.orch.scale             # counted, the policy's calls included

        def counting_scale(target, *args, **kwargs):
            events = scale(target, *args, **kwargs)
            self.shared_scalings += target is ScaleTarget.SHARED_DU
            return events

        self.orch.scale = counting_scale
        for _ in range(n_start):
            self.instantiate()

    def begin(self) -> int:
        """Count a step that may change the allocations' isolation."""
        self.steps += 1
        self.just_allocated = False
        return self.steps

    def slice(self, i: int) -> Snssai:
        here = list(self.orch.subnets)
        return here[i % len(here)]

    def run_both(self, method: str, *args):
        """``method`` run on both; what each returns, or the type of the
        OrchestrationError it raises, must be equal."""
        outcomes = []
        for o in self.both:
            try:
                outcomes.append(getattr(o, method)(*args))
            except OrchestrationError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]

    @rule()
    def instantiate(self):
        self.begin()
        if self.waiting:
            self.run_both("instantiate_subnet", self.waiting.pop(0))

    @rule(i=SLICE, mbps=MBPS, mcs=st.sampled_from(MCS))
    def admit(self, i, mbps, mcs):
        step = self.begin()
        s = self.slice(i)
        drb = Drb(f"d{step}", s, DrbQos(mbps, 20.0, 0.99))
        expected = self.ref.admit_drb(s, drb, *mcs)
        # Every other arrival names its slice by a newly constructed
        # Snssai, which interning makes the subnet's own object.
        caller = Snssai(s.service_type, s.subtype) if step % 2 else s
        assert self.orch.admit_drb(caller, drb, *mcs) == expected

    @rule(i=SLICE, delta=st.integers(-1, 1), mcs=st.sampled_from(MCS))
    def edge(self, i, delta, mcs):
        """Replace the slice's DRBs by hand with one, sized so that a 12
        Mbps arrival at ``mcs`` puts the slice's first dedicated pool head
        (its DU head, else its CU, else its shared DU head) at the vNIC
        threshold plus ``delta`` PRBs, then admit that arrival."""
        step = self.begin()
        s = self.slice(i)
        profile = self.orch.ds.nsst_for(s).slice_profile
        est = estimate_prbs(12.0, *mcs, profile.numerology_index, profile.dl_ul_symbol_ratio)
        heads = [vm for vm in self.ref.instances() if s in vm.owners and vm.index == 0]
        head = next((vm for vm in heads if len(vm.owners) == 1), heads[0])
        prbs = (self.orch._vnic_prbs + delta) * head.pool - est
        assert prbs > 0
        entry = AdmittedDrb(Drb(f"d{step}-edge", s, DrbQos(1.0, 20.0, 0.99)), prbs, 6, 0.75)
        for o in self.both:
            o.subnets[s].admitted_drbs = (entry,)
        self.orch._relayout()
        self.admit(i, 12.0, mcs)

    @rule(i=SLICE, j=st.integers(0, 1000), known=st.booleans())
    def depart(self, i, j, known):
        self.begin()
        s = self.slice(i)
        drbs = self.orch.subnets[s].admitted_drbs
        drb_id = drbs[j % len(drbs)].drb.drb_id if known and drbs else "unknown"
        assert self.orch.depart_drb(s, drb_id) == self.ref.depart_drb(s, drb_id)

    @rule(kind=UNIT_KINDS, direction=st.sampled_from(Direction), i=st.integers(0, 3))
    def scale(self, kind, direction, i):
        """``i`` below 3 names the unit as the policy does (no slice for
        the shared DU pool, a slice for any other); 3 the other way round."""
        self.begin()
        self.run_both("scale", kind, direction,
                      None if (kind is ScaleTarget.SHARED_DU) != (i == 3) else self.slice(i))

    @rule()
    def allocate(self):
        # No drawn baseline overloads an instance; the overload text is
        # compared over generated deployments below.
        self.begin()
        assert self.orch.allocate_prbs(273) == self.ref.allocate_prbs(273)
        self.just_allocated = True

    @rule()
    def observe(self):
        """The snapshots and their isolation counts agree; the engine's is
        then scribbled over, so that returning it again would show."""
        snapshot, expected = (o.observe_utilization() for o in self.both)
        assert rows(snapshot) == rows(expected)
        assert self.orch.isolation_violations(snapshot) == sum(
            self.ref.limit(vm, vnic=False) is not None for vm in expected)
        for inst in snapshot:
            for s in inst.per_slice:
                inst.per_slice[s] = -1.0

    @rule()
    def tick(self):
        self.allocate()
        self.observe()
        assert self.orch.apply_scaling_policies() == self.ref.apply_scaling_policies()
        for o in self.both:
            o.advance_clock()

    @rule(edit=EDITS)
    def edit(self, edit):
        """Apply one of EDITS to both, then the engine's reset hook."""
        step = self.begin()
        what, i, *rest = edit
        s = self.slice(i)
        if what == "level":
            kind, j = rest
            unit = ((ScaleTarget.CU, s) if kind == "cu" else (ScaleTarget.SHARED_DU, None)
                    if self.ref.aux else (ScaleTarget.DU, s))
            levels = self.ref.levels(unit)[0]
            attr = "cu_sl" if kind == "cu" else "current_il" if self.ref.aux else "du_sl"
            self.levels_by_hand = True
        for o in self.both:
            sub = o.subnets[s]
            if what == "append":
                prbs, (m, cr) = rest
                sub.admitted_drbs += (
                    AdmittedDrb(Drb(f"d{step}", s, DrbQos(1.0, 20.0, 0.99)), prbs, m, cr),)
            elif what in ("remove", "remcs") and sub.admitted_drbs:
                drbs = list(sub.admitted_drbs)
                j = rest[0] % len(drbs)
                if what == "remove":
                    del drbs[j]
                else:
                    drbs[j] = replace(drbs[j], modulation_order=rest[1][0], code_rate=rest[1][1])
                sub.admitted_drbs = tuple(drbs)
            elif what == "level":
                setattr(o.aux if attr == "current_il" else sub, attr, levels[j % len(levels)])
            elif what == "prbs":
                sub.allocated_prbs = rest[0]
        self.orch._relayout()

    @rule(op=BETWEEN)
    def handoff(self, op):
        """Allocate, run one operation, observe: observation uses the
        projection allocation hands over only if nothing changed between."""
        self.allocate()
        getattr(self, op[0])(*op[1:])
        self.observe()

    @invariant()
    def engine_agrees_with_the_reference(self):
        orch, ref = self.both
        vms = ref.instances()
        assert rows(orch.instances()) == rows(vms)
        # The pool index equals an owner scan of the reference's instances.
        assert {s: (list(dus), [cu]) for s, (dus, cu) in orch.pools().items()} == {
            s: tuple([j for j, vm in enumerate(vms) if vm.kind == kind and s in vm.owners]
                     for kind in ("du", "cu")) for s in ref.subnets}
        loads = ref.loads()
        assert [(s, sub.current_il, sub.cu_sl, sub.du_sl, sub.demand_prbs(), sub.mcs(),
                 sub.allocated_prbs) for s, sub in orch.subnets.items()] == [
            (s, sub.current_il, sub.cu_sl, sub.du_sl, loads[s][0], loads[s][1:],
             sub.allocated_prbs) for s, sub in ref.subnets.items()]
        assert (orch.aux and orch.aux.current_il) == (ref.aux and ref.aux.current_il)
        # Every unit the policy walks, in policy order, with its history.
        assert [((r.target, r.snssai), list(r.hist)) for r in orch._units()] == [
            (unit, list(ref.hist.get(unit, ()))) for unit in ref.units()]
        assert (orch.events, orch.findings) == (ref.events, ref.findings)

    @invariant()
    def units_stay_consistent(self):
        """A shared DU scales once per successful call; unless levels were
        set by hand, each subnet sits at its IL's levels, and at the
        auxiliary DU level unless a follow-up found no IL."""
        orch = self.orch
        assert sum(e.target is ScaleTarget.SHARED_DU for e in orch.events) == \
            self.shared_scalings
        if self.levels_by_hand:
            return
        for sub in orch.subnets.values():
            il = orch.ds.gnb_nsds[sub.nsd_ref].il(sub.current_il)
            assert (il.cu_sl, il.du_sl) == (sub.cu_sl, sub.du_sl)
            if orch.aux is not None and not orch.findings:
                assert sub.du_sl == orch.aux.current_il

    @invariant()
    def allocation_isolates_the_shared_instances(self):
        """Right after an allocation, or a tick's scalings after it, every
        shared instance holds isolation at the allocations."""
        if self.just_allocated:
            alloc = {s: sub.allocated_prbs for s, sub in self.ref.subnets.items()}
            assert not any(self.ref.limit(vm, vnic=False) for vm in self.ref.project(alloc))


EngineAgainstReference.TestCase.settings = settings(
    max_examples=250, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestEngineAgainstReference = EngineAgainstReference.TestCase

UP, SHARED_DU = Direction.UP, ScaleTarget.SHARED_DU
# Cases found by hand: (descriptor set, scenario, subnets live at first)
# and the steps run through the machine's rules.
PINNED = {
    # Only the arriving DRB's own PRBs push the shared CU over its cap.
    "shared-cu-over-its-cap": (
        (descriptor_set(2), Scenario.S3_CU_SHARED, 1),
        [("tick",), ("instantiate",), ("admit", 0, 12.0, (6, 0.75)),
         ("admit", 0, 75.0, (8, 0.9))]),
    "dedicated-heads-at-the-vnic-threshold": (
        (descriptor_set(1), Scenario.S1_DEDICATED, 1),
        [("edge", 0, -1, (6, 0.75)), ("edge", 0, 0, (6, 0.75)), ("edge", 0, 1, (6, 0.75))]),
    "pool-of-two-heads-at-the-vnic-threshold": (
        (descriptor_set(2), Scenario.S3_CU_SHARED, 2),
        [("scale", ScaleTarget.DU, UP, 1), ("edge", 1, -1, (4, 0.5)),
         ("edge", 1, 0, (4, 0.5)), ("edge", 1, 1, (4, 0.5))]),
    # The next allocation must check the new heads, not those built before.
    "shared-du-heads-built-before-a-scale-up": (
        (descriptor_set(2), Scenario.S4_DU_SHARED, 1),
        [("allocate",), ("instantiate",), ("admit", 0, 20.0, (6, 0.75)),
         ("scale", SHARED_DU, UP, 0), ("admit", 0, 20.0, (6, 0.75)), ("observe",),
         ("allocate",), ("admit", 0, 20.0, (6, 0.75)), ("admit", 0, 20.0, (6, 0.75)),
         ("observe",), ("allocate",), ("observe",)]),
    "shared-cu-above-a-subnet-cu-level": (
        (descriptor_set(2, 4), Scenario.S2_ALL_SHARED, 2),
        [("scale", ScaleTarget.CU, UP, 0), ("admit", 0, 50.0, (6, 0.75)),
         ("admit", 1, 50.0, (6, 0.75)), ("tick",)]),
    "unit-set-rebuilt-mid-run": (
        (descriptor_set(2, 4), Scenario.S4_DU_SHARED, 1),
        [("admit", 0, 50.0, (6, 0.75)), ("tick",), ("instantiate",), ("tick",)]),
    "du-pool-resized-by-hand": (
        (descriptor_set(2), Scenario.S1_DEDICATED, 2),
        [("admit", 0, 50.0, (6, 0.75)), ("tick",),
         ("handoff", ("edit", ("level", 0, "du", 2))), ("tick",)]),
    # No CU level covers the load and the largest has no IL: a finding.
    "il-tie-with-no-covering-cu-level": (
        (il_descriptor_set(2, (1, 1), ((0, 0), (0, 1))), Scenario.S2_ALL_SHARED, 2),
        [("edit", ("append", 0, 57, (8, 0.9))), ("scale", SHARED_DU, UP, 0)]),
    # The idle subnet's first covering CU level ties with the next; the
    # loaded subnet's has no IL, and two covering ILs tie for cheapest.
    "il-ties-between-equal-cu-levels": (
        (il_descriptor_set(2, (1, 1, 2, 2, 2), ((0, 0), (0, 1), (1, 1), (3, 1), (4, 1))),
         Scenario.S4_DU_SHARED, 2),
        [("edit", ("append", 1, 84, (8, 0.9))), ("scale", SHARED_DU, UP, 0)]),
    # After the tick's shared-DU scale-up both subnets follow: a 1-vCPU CU
    # level holds the shared CU's total, but not eMBB within its cap.
    "shared-cu-follow-keeps-the-slice-cap": (
        (il_descriptor_set(2, (1, 2), ((1, 0), (0, 1), (1, 1))), Scenario.S2_ALL_SHARED, 2),
        [("admit", 0, 145.0, (6, 0.75)), ("tick",)]),
    # eMBB declares no auxiliary NSD and shares its DU with nobody, so
    # uRLLC, which declares one, cannot join it.
    "aux-subnet-after-one-without": (
        (parse_descriptor_set(mixed_aux_documents()), Scenario.S4_DU_SHARED, 1),
        [("instantiate",), ("admit", 0, 20.0, (6, 0.75)), ("tick",)]),
}


@pytest.mark.parametrize("setup, steps", PINNED.values(), ids=PINNED.keys())
def test_pinned_cases_replay_through_the_machine(setup, steps):
    ds, scenario, n_start = setup
    machine = EngineAgainstReference()
    machine.start((ds, scenario, PARAMS, n_start))
    checks = (machine.engine_agrees_with_the_reference, machine.units_stay_consistent,
              machine.allocation_isolates_the_shared_instances)
    for name, *args in steps:
        getattr(machine, name)(*args)
        for check in checks:
            check()


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
        assert (sub.demand_prbs(), *sub.mcs()) == slice_load(sub.admitted_drbs)
        assert sub._folded() == _fold(sub.admitted_drbs)
        # One more DRB continues the kept fold as a refold would.
        extra = drb(-1, probe)
        assert _fold((extra,), sub._folded()) == _fold((*sub.admitted_drbs, extra))


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
    # down to the smallest float); every load the engine projects in closed
    # form equals the reference's, from the consumption models, to the bit.
    for s, mine in zip(orch._slices, drbs):
        orch.subnets[s].admitted_drbs = tuple(
            AdmittedDrb(Drb(f"h{j}", s, DrbQos(1.0, 20.0, 0.99)), *d) for j, d in enumerate(mine))
    orch._relayout()
    split = dict(zip(orch._slices, prbs))
    assert rows(orch._project(split)) == rows(mirror(orch).project(split))


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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(orch=deployments(), which=st.integers(0, 3), prbs=st.integers(1, 1500),
       edge=st.sampled_from((None, -1, 0, 1)), mcs=st.sampled_from(MCS))
def test_admission_head_loads_equal_the_projection(orch, which, prbs, edge, mcs):
    # A DRB of ``prbs`` PRBs arrives at a slice, or with ``edge`` one that
    # moves the slice to its breaking point, give or take a PRB. Each head
    # admission checks gets, to the bit, the loads the projection gives it
    # at the post-admission demand, and the Decision is the first limit
    # over every instance the slice owns.
    slices = orch._slices
    s = slices[which % len(slices)]
    demand = {t: orch.subnets[t].demand_prbs() for t in slices}
    if edge is not None:
        prbs = max(breaking_point(orch, demand, s) - demand[s] + edge, 1)
    m, cr = mcs
    drb = Drb("arrival", s, DrbQos(tput_for_prbs(orch.ds, s, prbs, m, cr), 20.0, 0.99))
    checked = []
    head_loads = orch._head_loads

    def spy(head, *args):
        loads = head_loads(head, *args)
        checked.append((head, loads))
        return loads

    with patch.object(orch, "_head_loads", spy):
        decision = orch.admit_drb(s, drb, m, cr)
    sub = orch.subnets[s]
    if not decision.admitted:
        profile = orch.ds.nsst_for(s).slice_profile
        est = estimate_prbs(drb.qos.throughput_mbps, m, cr, profile.numerology_index,
                            profile.dl_ul_symbol_ratio)
        sub.admitted_drbs += (AdmittedDrb(drb, est, m, cr),)
    after = {t: orch.subnets[t].demand_prbs() for t in slices}
    for head, (per_slice, vnic_prbs) in checked:
        [projected] = orch._project(after, insts=[head])
        assert (per_slice, vnic_prbs) == (projected.per_slice, projected.prbs)
    full = first_limit(orch, [i for i in orch._project(after) if s in i.owners])
    assert (None if decision.admitted else decision) == full


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Baselines up to 1.5 vCPU, so that some deployments overload at zero PRBs.
@given(orch=deployments(max_c0=1.5), total_prbs=st.integers(0, 300))
def test_allocation_stays_within_demand_budget_and_isolation(orch, total_prbs):
    ref = mirror(orch)
    demand = {s: load[0] for s, load in ref.loads().items()}

    def isolated(alloc) -> bool:
        return not any(ref.limit(vm, vnic=False) for vm in ref.project(alloc))

    if not isolated(dict.fromkeys(demand, 0)):
        with pytest.raises(BaselineOverloadError):
            orch.allocate_prbs(total_prbs)
        return
    alloc = orch.allocate_prbs(total_prbs)
    assert alloc.keys() == demand.keys()
    assert all(0 <= alloc[s] <= demand[s] for s in alloc)
    assert sum(alloc.values()) <= total_prbs
    assert isolated(alloc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Baselines up to 1.5 vCPU, so that some deployments overload at zero
# PRBs, and budgets below and above demand, so that splits are trimmed
# and slack is handed back.
@given(orch=deployments(max_c0=1.5), total_prbs=st.integers(0, 400))
def test_allocation_on_shared_heads_equals_the_full_projection(orch, total_prbs):
    # The reference checks every shared instance of every trial split.
    ref = mirror(orch)
    try:
        expected = ref.allocate_prbs(total_prbs)
    except BaselineOverloadError as exc:
        with pytest.raises(BaselineOverloadError) as raised:
            orch.allocate_prbs(total_prbs)
        assert str(raised.value) == str(exc)
        return
    assert orch.allocate_prbs(total_prbs) == expected
    # The hand-off: every live instance projected once, at the split,
    # each summed once into its consumption.
    assert rows(orch.observe_utilization()) == rows(ref.project(expected))
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


def reference_snap(value: float) -> int:
    """The modulation order nearest ``value``, the lower one on a tie."""
    return min(MODULATION_ORDERS, key=lambda m: (abs(m - value), m))


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


@lru_cache(maxsize=None)
def odd_pool_set(n_slices: int):
    return build_descriptor_set(n_slices=n_slices, du_counts=(2, 3, 4), cu_vcpus=(1, 2, 4))


def wait_or_inf(prbs: int) -> float:
    try:
        return vnic_mean_wait(prbs, PARAMS)
    except VnicSaturatedError:
        return math.inf


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_slices=st.integers(1, 3), scenario=st.sampled_from(Scenario),
       loads=st.lists(st.tuples(st.integers(0, 40).map(lambda n: 2 * n + 1), st.sampled_from(MCS)),
                      min_size=3, max_size=3),
       rate=st.floats(0.0, 2.0), total_prbs=st.sampled_from((100, 273)))
def test_trace_rows_read_the_pool_maxima(n_slices, scenario, loads, rate, total_prbs):
    # Every DRB of a slice estimates to one odd PRB count, so that pool
    # splits leave remainders on the heads, and the policy moves the DU
    # pools between 2, 3 and 4 instances. On every tick each slice's
    # du_util and vnic_wait_s equal the maxima over every DU it owns in
    # that tick's snapshot.
    ds = odd_pool_set(n_slices)
    base = make_config(ds, ticks=30, total_prbs=total_prbs, params=PARAMS,
                       thresholds=THRESHOLDS, arrival_rate=rate, initial_drbs=2,
                       mean_holding=6.0, scenario=scenario)
    profiles = tuple(
        replace(p, qos=replace(p.qos, throughput_mbps=tput_for_prbs(ds, p.snssai, prbs, m, cr)),
                mcs_distribution=(McsAtom(m, cr, 1.0),))
        for p, (prbs, (m, cr)) in zip(base.profiles, loads))
    snapshots = []
    observe = Orchestrator.observe_utilization

    def recorded(orch):
        snapshots.append(observe(orch))
        return snapshots[-1]

    with patch.object(Orchestrator, "observe_utilization", recorded):
        trace = run(replace(base, profiles=profiles), ds)
    assert len(snapshots) == len(trace.rows)
    for row, snapshot in zip(trace.rows, snapshots):
        for sr in row.slices:
            dus = [i for i in snapshot if i.kind == "du" and sr.snssai in i.owners]
            assert sr.du_util == max(i.utilization for i in dus)
            assert sr.vnic_wait_s == max(wait_or_inf(i.prbs) for i in dus)
