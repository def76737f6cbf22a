"""A naive reference orchestrator, written from the rules the README
states rather than from the engine.

It keeps only lifecycle state, in the engine's public records, and the
policy's histories keyed by ``(ScaleTarget, Snssai | None)``. Everything
else is derived afresh on every call: the instances are built from the
descriptors, every DRB list is refolded and every instance projected
with the consumption models. Admission checks every instance the slice
owns, the vNIC wait at any PRB count; allocation projects every trial
split in full. There is no memo, threshold, generation or pool-head
shortcut.

A behaviour change lands here first: change the rule in this file, watch
the state machine in ``tests/test_properties.py`` fail, then change the
engine. ``tests/test_leftovers.py`` checks that this file imports neither
``Orchestrator`` nor any private name of ``ranslice``.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Sequence

from ranslice.descriptors import DescriptorSet, Snssai
from ranslice.orchestrator import (
    REJECT_VCPU_CAP, REJECT_VNIC_DELAY, REJECT_VNIC_SATURATED, AdmittedDrb, AtBoundaryError,
    AuxServiceInstance, BaselineOverloadError, Decision, Direction, Instance, NoMatchingIlError,
    OrchestrationError, ScaleTarget, ScalingCause, ScalingEvent, ScalingThresholds,
    SubnetInstance, UnknownSnssaiError)
from ranslice.resources import (
    MODULATION_ORDERS, CapacityBudget, ResourceModelParams, SliceLoad, VnicSaturatedError,
    check_isolation, cu_vcpu_consumption, du_vcpu_consumption, estimate_prbs, vnic_mean_wait)
from ranslice.topology import Drb, Scenario, dedicated_du_ids, shared_cu_id, shared_du_ids

CU, DU, SHARED_DU = ScaleTarget.CU, ScaleTarget.DU, ScaleTarget.SHARED_DU


def slice_load(drbs: Sequence[AdmittedDrb]) -> tuple[int, int, float]:
    """Demand PRBs and PRB-weighted (modulation order, code rate) of a
    slice's DRBs, the order snapped to the nearest valid one (the lower on
    a tie); (0, 2, 1.0) when they demand nothing."""
    total = sum(a.est_prbs for a in drbs)
    if not total:
        return 0, 2, 1.0
    m = sum(a.est_prbs * a.modulation_order for a in drbs) / total
    cr = sum(a.est_prbs * a.code_rate for a in drbs) / total
    return total, min(MODULATION_ORDERS, key=lambda o: (abs(o - m), o)), cr


class Reference:
    """The orchestrator's lifecycle; see the module docstring."""

    def __init__(self, ds: DescriptorSet, scenario: Scenario, params: ResourceModelParams,
                 budget: CapacityBudget, thresholds: ScalingThresholds,
                 vnic_delay_cap_s: float):
        self.ds, self.scenario, self.params, self.budget = ds, scenario, params, budget
        self.thresholds, self.vnic_delay_cap_s = thresholds, vnic_delay_cap_s
        self.clock = 0
        self.subnets: dict[Snssai, SubnetInstance] = {}
        self.aux: AuxServiceInstance | None = None
        self.events: list[ScalingEvent] = []
        self.findings: list[str] = []
        self.hist: dict[tuple, deque[float]] = {}
        self.last: dict[tuple, tuple[int, Direction]] = {}

    def slices(self) -> list[Snssai]:
        return sorted(self.subnets, key=Snssai.key)

    def nsd(self, s: Snssai):
        return self.ds.gnb_nsds[self.subnets[s].nsd_ref]

    def vcpus(self, nsd, kind: str, sl: str) -> int:
        """What a CU or DU scale level of ``nsd`` provisions."""
        aspect, vnfd = ((nsd.sa_cu, self.ds.cu_vnfd(nsd)) if kind == "cu"
                        else (nsd.sa_du, self.ds.du_vnfd(nsd)))
        return self.ds.sl_total_vcpus(aspect.sl(sl), vnfd)

    # -- instances and loads ----------------------------------------------------

    def instantiate_subnet(self, s: Snssai) -> SubnetInstance:
        """At the cheapest IL; under a shared DU, at the auxiliary IL (made
        by the first subnet, if it declares one) with the cheapest CU level
        declared there. Under a shared DU every later subnet must reference
        the live auxiliary NSD."""
        nsst = self.ds.nsst_for(s)
        nsd = self.ds.gnb_nsd_for(nsst)
        if self.scenario.du_shared:
            if self.subnets and (self.aux is None or nsd.aux_nsd_ref != self.aux.aux_nsd_ref):
                raise OrchestrationError(f"{s} does not reference the live auxiliary NSD")
            if not self.subnets and nsd.aux_nsd_ref is not None:
                first = self.ds.aux_nsds[nsd.aux_nsd_ref].ils[0].id
                self.aux = AuxServiceInstance(nsd.aux_nsd_ref, first)
        if self.aux is not None:
            ils = [il for il in nsd.ils if il.du_sl == self.aux.current_il]
            if not ils:
                raise OrchestrationError(f"no IL of {s} at the auxiliary level")
            il = min(ils, key=lambda il: self.vcpus(nsd, "cu", il.cu_sl))
        else:
            il = min(nsd.ils, key=lambda il: self.vcpus(nsd, "cu", il.cu_sl)
                     + self.vcpus(nsd, "du", il.du_sl))
        sub = self.subnets[s] = SubnetInstance(s, nsst.id, nsd.id, il.id, il.cu_sl, il.du_sl)
        return sub

    def instances(self, over: tuple | None = None) -> list[Instance]:
        """The DU pools (the shared one, or each slice's), then the CUs
        (the shared one at the largest subnet CU level, or each slice's);
        ``over``, a (unit, level) pair, puts one unit at another level."""
        def level(unit, now):
            return over[1] if over is not None and over[0] == unit else now

        slices = self.slices()
        vms = []
        if self.aux is not None:
            il = self.ds.aux_nsds[self.aux.aux_nsd_ref].il(level((SHARED_DU, None),
                                                                 self.aux.current_il))
            vcpus = self.ds.du_vnfd(self.nsd(slices[0])).flavour(il.du_il_ref).vcpus
            vms += [Instance(vm_id, "du", tuple(slices), float(vcpus), i, il.du_count)
                    for i, vm_id in enumerate(shared_du_ids(il.du_count))]
        else:
            for s in slices:
                nsd = self.nsd(s)
                c = nsd.sa_du.sl(level((DU, s), self.subnets[s].du_sl)).constituents[0]
                vcpus = self.ds.du_vnfd(nsd).flavour(c.flavour_ref).vcpus
                vms += [Instance(vm_id, "du", (s,), float(vcpus), i, c.instance_count)
                        for i, vm_id in enumerate(dedicated_du_ids(s, c.instance_count))]
        cu = {s: float(self.vcpus(self.nsd(s), "cu", level((CU, s), self.subnets[s].cu_sl)))
              for s in slices}
        if self.scenario.cu_shared and slices:
            return vms + [Instance(shared_cu_id(), "cu", tuple(slices), max(cu.values()))]
        return vms + [Instance(self.nsd(s).cu_id, "cu", (s,), cu[s]) for s in slices]

    def loads(self, arriving: tuple[Snssai, AdmittedDrb] | None = None) -> dict:
        """Each slice's slice_load, ``arriving`` added to its slice's DRBs."""
        extra = {arriving[0]: (arriving[1],)} if arriving else {}
        return {s: slice_load(sub.admitted_drbs + extra.get(s, ())) for s, sub in self.subnets.items()}

    def project(self, prbs: Mapping[Snssai, int], loads: dict | None = None,
                vms: list[Instance] | None = None) -> list[Instance]:
        """``vms`` (default: the live ones) loaded at the split ``prbs``: a
        slice's PRBs split evenly over its DU pool, the remainder to the
        lowest indices, each share costed by the consumption model at the
        slice's MCS (from ``loads``, by default refolded now)."""
        loads = self.loads() if loads is None else loads
        out = []
        for vm in self.instances() if vms is None else vms:
            model = du_vcpu_consumption if vm.kind == "du" else cu_vcpu_consumption
            per_slice, through = {}, 0
            for s in vm.owners:
                share = prbs[s] // vm.pool + (vm.index < prbs[s] % vm.pool)
                per_slice[s] = model(SliceLoad(s, share, *loads[s][1:]), self.params)
                through += share
            out.append(Instance(vm.instance_id, vm.kind, vm.owners, vm.capacity, vm.index,
                                vm.pool, per_slice, through, sum(per_slice.values())))
        return out

    def limit(self, vm: Instance, vnic: bool = True) -> Decision | None:
        """The first limit ``vm`` breaks: isolation if several slices own
        it, then (with ``vnic``) vNIC saturation and the delay cap."""
        if len(vm.owners) > 1:
            result = check_isolation(vm.per_slice, CapacityBudget(vm.capacity,
                                                                  self.budget.per_slice_cap))
            if not result.ok:
                return Decision(False, reason=REJECT_VCPU_CAP,
                                detail=f"{vm.instance_id}: {'; '.join(result.violations)}")
        if vnic:
            try:
                wait = vnic_mean_wait(vm.prbs, self.params)
            except VnicSaturatedError as exc:
                return Decision(False, reason=REJECT_VNIC_SATURATED,
                                detail=f"{vm.instance_id}: {exc}")
            if wait > self.vnic_delay_cap_s:
                return Decision(False, reason=REJECT_VNIC_DELAY,
                                detail=f"{vm.instance_id}: mean wait {wait * 1e3:.3f} ms "
                                       f"exceeds cap {self.vnic_delay_cap_s * 1e3:.3f} ms")
        return None

    # -- admission and allocation ------------------------------------------------

    def admit_drb(self, s: Snssai, drb: Drb, modulation_order: int,
                  code_rate: float) -> Decision:
        """Admit iff no instance the slice owns breaks a limit with every
        slice at its demand, the arriving slice's including the DRB. A DRB
        of another slice raises ValueError."""
        if drb.snssai is not s:
            raise ValueError(f"DRB {drb.drb_id!r} belongs to slice {drb.snssai}, not {s}")
        sub = self.subnets[s]
        profile = self.ds.nssts[sub.nsst_ref].slice_profile
        est = estimate_prbs(drb.qos.throughput_mbps, modulation_order, code_rate,
                            profile.numerology_index, profile.dl_ul_symbol_ratio)
        entry = AdmittedDrb(drb, est, modulation_order, code_rate)
        loads = self.loads((s, entry))
        for vm in self.project({t: load[0] for t, load in loads.items()}, loads):
            if s in vm.owners and (reject := self.limit(vm)) is not None:
                return reject
        sub.admitted_drbs += (entry,)
        return Decision(True, est_prbs=est)

    def depart_drb(self, s: Snssai, drb_id: str) -> bool:
        sub = self.subnets[s]
        for i, entry in enumerate(sub.admitted_drbs):
            if entry.drb.drb_id == drb_id:
                sub.admitted_drbs = sub.admitted_drbs[:i] + sub.admitted_drbs[i + 1:]
                return True
        return False

    def allocate_prbs(self, total_prbs: int) -> dict[Snssai, int]:
        """Split ``total_prbs`` in proportion to demand (largest remainder,
        ties by key), take one PRB at a time from the largest allocation
        (ties by key) while a shared instance breaks isolation, then hand
        slack back round-robin wherever isolation still holds."""
        slices = self.slices()
        loads = self.loads()
        demand = {s: loads[s][0] for s in slices}
        total_demand = sum(demand.values())
        if total_demand <= total_prbs:
            alloc = dict(demand)
        else:
            shares = {s: total_prbs * demand[s] / total_demand for s in slices}
            alloc = {s: int(shares[s]) for s in slices}
            leftover = total_prbs - sum(alloc.values())
            for s in sorted(slices, key=lambda s: (-(shares[s] - alloc[s]), s.key()))[:leftover]:
                alloc[s] += 1

        vms = self.instances()

        def broken(split) -> list[Instance]:
            return [vm for vm in self.project(split, loads, vms)
                    if len(vm.owners) > 1 and self.limit(vm, vnic=False) is not None]

        while bad := broken(alloc):
            reducible = [s for s in slices if alloc[s] > 0]
            if not reducible:
                vm = bad[0]
                raise BaselineOverloadError(
                    f"{vm.instance_id}: isolation fails with no PRBs allocated; slice "
                    f"baselines sum to {sum(vm.per_slice.values()):.4f} vCPU against capacity "
                    f"{vm.capacity:.4f}, per-slice cap {self.budget.per_slice_cap:g}")
            alloc[max(reducible, key=lambda s: (alloc[s], s.key()))] -= 1
        changed = True
        while changed:
            changed = False
            for s in slices:
                if alloc[s] < demand[s] and sum(alloc.values()) < total_prbs:
                    trial = {**alloc, s: alloc[s] + 1}
                    if not broken(trial):
                        alloc, changed = trial, True
        for s in slices:
            self.subnets[s].allocated_prbs = alloc[s]
        return alloc

    # -- scaling ----------------------------------------------------------------

    def units(self) -> list[tuple]:
        """Policy order: each subnet's CU, then the shared DU pool or each
        subnet's dedicated DU pool."""
        slices = self.slices()
        pools = [(SHARED_DU, None)] if self.aux is not None else [(DU, s) for s in slices]
        return [(CU, s) for s in slices] + pools

    @staticmethod
    def own(unit: tuple, vms: list[Instance]) -> list[Instance]:
        kind = "cu" if unit[0] is CU else "du"
        return [vm for vm in vms if vm.kind == kind and (unit[1] is None or unit[1] in vm.owners)]

    def levels(self, unit: tuple) -> tuple[list[str], str]:
        """A unit's levels in order, and its current one."""
        target, s = unit
        if target is SHARED_DU:
            return ([il.id for il in self.ds.aux_nsds[self.aux.aux_nsd_ref].ils],
                    self.aux.current_il)
        aspect = self.nsd(s).sa_cu if target is CU else self.nsd(s).sa_du
        sub = self.subnets[s]
        return [sl.id for sl in aspect.sls], sub.cu_sl if target is CU else sub.du_sl

    def step(self, unit: tuple, direction: Direction) -> tuple[str | None, object]:
        """The adjacent level in ``direction`` (None at a boundary) and the
        IL that puts the unit there (None if not declared)."""
        levels, now = self.levels(unit)
        j = levels.index(now) + (1 if direction is Direction.UP else -1)
        if not 0 <= j < len(levels):
            return None, None
        target, s = unit
        if target is SHARED_DU:
            return levels[j], self.ds.aux_nsds[self.aux.aux_nsd_ref].il(levels[j])
        sub = self.subnets[s]
        pair = (levels[j], sub.du_sl) if target is CU else (sub.cu_sl, levels[j])
        return levels[j], self.nsd(s).find_il(*pair)

    def scale(self, target: ScaleTarget, direction: Direction,
              snssai: Snssai | None = None) -> list[ScalingEvent]:
        """One level in ``direction``, the cause a load increase up and a
        load decrease down, on the unit's event and every follow-up."""
        unit = (target, snssai)
        if snssai not in self.subnets and not (target is SHARED_DU and snssai is None):
            raise UnknownSnssaiError(f"subnet {snssai} not instantiated")
        if unit not in self.units():
            raise OrchestrationError(f"no live unit {unit}")
        current = self.levels(unit)[1]
        level, il = self.step(unit, direction)
        if level is None:
            raise AtBoundaryError(f"{unit} at {current}")
        if il is None:
            raise NoMatchingIlError(f"{unit} to {level}")
        cause = (ScalingCause.LOAD_INCREASE if direction is Direction.UP
                 else ScalingCause.LOAD_DECREASE)
        events = [ScalingEvent(self.clock, target, snssai, current, level, cause)]
        if target is SHARED_DU:
            self.aux.current_il = level
            events += filter(None, (self.follow(s, cause) for s in self.slices()))
        else:
            sub = self.subnets[snssai]
            sub.cu_sl, sub.du_sl, sub.current_il = il.cu_sl, il.du_sl, il.id
        self.events += events
        return events

    def follow(self, s: Snssai, cause: ScalingCause) -> ScalingEvent | None:
        """Re-point subnet ``s`` at the new auxiliary DU level: with the
        smallest CU level covering the CU load it carries (the largest if
        none does); if that IL is not declared, the cheapest covering IL;
        if none, keep the old view and record a finding. A level covers
        the load if its vCPUs hold the total and, where several slices
        share the CU, each slice stays within its cap."""
        sub, nsd, du_sl = self.subnets[s], self.nsd(s), self.aux.current_il
        loads = self.loads()
        carried = self.slices() if self.scenario.cu_shared else [s]
        uses = {t: cu_vcpu_consumption(SliceLoad(t, *loads[t]), self.params) for t in carried}

        def covers(cu_sl: str) -> bool:
            vcpus = self.vcpus(nsd, "cu", cu_sl)
            if len(uses) > 1:
                return check_isolation(uses, CapacityBudget(vcpus, self.budget.per_slice_cap)).ok
            return vcpus >= sum(uses.values())

        covering = [sl.id for sl in nsd.sa_cu.sls if covers(sl.id)]
        chosen = nsd.find_il(covering[0] if covering else nsd.sa_cu.sls[-1].id, du_sl)
        if chosen is None:
            candidates = [il for il in nsd.ils if il.du_sl == du_sl and covers(il.cu_sl)]
            if not candidates:
                self.findings.append(
                    f"InconsistentIl: {s}: no declared IL matches du_sl {du_sl!r}")
                return None
            chosen = min(candidates, key=lambda il: self.vcpus(nsd, "cu", il.cu_sl))
        previous = sub.current_il
        sub.cu_sl, sub.du_sl, sub.current_il = chosen.cu_sl, chosen.du_sl, chosen.id
        if chosen.id == previous:
            return None
        return ScalingEvent(self.clock, ScaleTarget.SUBNET_IL, s, previous, chosen.id, cause)

    # -- the policy -------------------------------------------------------------

    def observe_utilization(self) -> list[Instance]:
        """Project at the allocations and sample each unit: a CU its
        slice's use over the subnet's own CU level, a DU pool its summed
        use over its summed capacity."""
        snapshot = self.project({s: sub.allocated_prbs for s, sub in self.subnets.items()})
        for unit in self.units():
            mine = self.own(unit, snapshot)
            if unit[0] is CU:
                s = unit[1]
                util = mine[0].per_slice[s] / self.vcpus(self.nsd(s), "cu", self.subnets[s].cu_sl)
            else:
                util = sum(vm.consumption for vm in mine) / sum(vm.capacity for vm in mine)
            self.hist.setdefault(unit, deque(maxlen=self.thresholds.window)).append(util)
        return snapshot

    def apply_scaling_policies(self) -> list[ScalingEvent]:
        """Per unit: up over ``hi`` and down under ``lo`` on the windowed
        mean, unless it reverses the last decision inside the cooldown,
        the adjacent level has no IL, or a scale-down would break a limit
        (capacity if dedicated, isolation, the vNIC for a DU pool) on the
        unit's instances at the allocations."""
        t = self.thresholds
        events = []
        for unit in self.units():
            samples = self.hist.get(unit)
            if not samples:
                continue
            mean = sum(samples) / len(samples)
            decision = Direction.UP if mean > t.hi else Direction.DOWN if mean < t.lo else None
            last = self.last.get(unit)
            if decision is None or (last is not None and last[1] != decision
                                    and self.clock - last[0] < t.cooldown):
                continue
            level, il = self.step(unit, decision)
            if il is None:
                continue
            if decision is Direction.DOWN:
                alloc = {s: sub.allocated_prbs for s, sub in self.subnets.items()}
                below = self.project(alloc, vms=self.instances(over=(unit, level)))
                if any((len(vm.owners) == 1 and vm.consumption > vm.capacity)
                       or self.limit(vm, vnic=unit[0] is not CU) is not None
                       for vm in self.own(unit, below)):
                    continue
            events += self.scale(unit[0], decision, unit[1])
            self.last[unit] = (self.clock, decision)
        return events

    def advance_clock(self) -> None:
        self.clock += 1
