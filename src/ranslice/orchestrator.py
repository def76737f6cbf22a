"""Lifecycle state machine for slice subnets over one gNB deployment.

Plays the NFVO/VNFM/slice-subnet-manager roles: instantiates subnets
from their templates, admits DRBs under the isolation predicate,
allocates PRBs at coarse time scale, and scales instances. A slice's CU
scales independently per subnet; a shared DU scales exactly once through
the auxiliary service, after which every referencing subnet's
instantiation level is updated to the new DU level (its CU level
re-selected from its own demand).

All mutating operations run on one logical thread (single-writer);
read-only snapshots are safe to take concurrently.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .descriptors import DescriptorSet, GnbNsd, Snssai, validate
from .descriptors.validate import ValidationReport
from .errors import RansliceError
from .resources import (
    CapacityBudget,
    ResourceModelParams,
    SliceLoad,
    check_isolation,
    cu_vcpu_consumption,
    du_vcpu_consumption,
    estimate_prbs,
    MODULATION_ORDERS,
    vnic_mean_wait,
    VnicSaturatedError,
)
from .topology import Drb, Scenario, dedicated_du_ids, shared_cu_id, shared_du_ids


class OrchestrationError(RansliceError):
    pass


class UnknownSnssaiError(OrchestrationError):
    pass


class DescriptorInvalidError(OrchestrationError):
    """Descriptor findings block instantiation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(f"descriptor set has findings:\n{report}")


class AtBoundaryError(OrchestrationError):
    """No adjacent scale level in the requested direction."""


class NoMatchingIlError(OrchestrationError):
    """The gNB NSD declares no IL for the requested (cu_sl, du_sl) pair."""


class BaselineOverloadError(OrchestrationError):
    """Per-slice baselines alone break isolation on a shared instance, so
    no PRB split is feasible, not even zero PRBs for every slice."""


class Direction(enum.Enum):
    UP = "up"
    DOWN = "down"


class ScaleTarget(enum.Enum):
    CU = "cu"
    DU = "du"                    # dedicated per-subnet DU pool
    SHARED_DU = "shared_du"
    # Coordinated per-subnet IL update after a shared-DU scaling; not a
    # scaling execution of its own.
    SUBNET_IL = "subnet_il"


# A scaling unit: a subnet's CU, a subnet's dedicated DU pool, or the
# shared DU pool (no snssai). Each unit has ordered levels, one history
# and scales on its own.
Unit = tuple[ScaleTarget, Snssai | None]


class ScalingCause(enum.Enum):
    LOAD_INCREASE = "load_increase"
    LOAD_DECREASE = "load_decrease"


@dataclass(frozen=True)
class ScalingEvent:
    time: int
    target: ScaleTarget
    snssai: Snssai | None
    from_level: str
    to_level: str
    cause: ScalingCause

    def __post_init__(self):
        if self.from_level == self.to_level:
            raise ValueError("scaling event must change level")

    def __str__(self) -> str:
        who = self.target.value if self.snssai is None else f"{self.target.value}({self.snssai})"
        return f"{who}:{self.from_level}->{self.to_level}"


@dataclass(frozen=True)
class ScalingThresholds:
    """Trigger rule for the scaling policy: scale up when the windowed
    mean utilization exceeds ``hi``, down below ``lo``; an opposite
    decision within ``cooldown`` ticks of the last one is suppressed."""

    hi: float = 0.8
    lo: float = 0.3
    window: int = 5
    cooldown: int = 3

    def __post_init__(self):
        if not 0 < self.lo < self.hi <= 1:
            raise ValueError("thresholds must satisfy 0 < lo < hi <= 1")
        if self.window < 1 or self.cooldown < 0:
            raise ValueError("window must be >= 1 and cooldown >= 0")


REJECT_VCPU_CAP = "vcpu_cap"
REJECT_VNIC_SATURATED = "vnic_saturated"
REJECT_VNIC_DELAY = "vnic_delay"


@dataclass(frozen=True)
class Decision:
    """Outcome of one admission: admitted with the DRB's PRB estimate, or
    rejected with a reason (one of the REJECT_* codes) and a detail
    naming the instance that breaks the limit."""

    admitted: bool
    est_prbs: int = 0
    reason: str = ""
    detail: str = ""


@dataclass(frozen=True)
class AdmittedDrb:
    drb: Drb
    est_prbs: int
    modulation_order: int
    code_rate: float


@dataclass
class SubnetInstance:
    """Runtime state of one RAN slice subnet: its current instantiation
    level (and the two scale levels it combines), admitted bearers and
    the PRBs last allocated to it."""

    snssai: Snssai
    nsst_ref: str
    nsd_ref: str
    current_il: str
    cu_sl: str
    du_sl: str
    admitted_drbs: list[AdmittedDrb] = field(default_factory=list)
    allocated_prbs: int = 0

    def demand_prbs(self) -> int:
        return sum(a.est_prbs for a in self.admitted_drbs)


@dataclass
class AuxServiceInstance:
    """The auxiliary network service coordinating a shared DU: scaling
    executes here exactly once, and its IL pins the DU scale level of
    every referencing subnet."""

    aux_nsd_ref: str
    current_il: str


@dataclass(frozen=True)
class Instance:
    """One live VNF instance: its kind, the slices it serves, whether it
    is shared between several of them, its flavour capacity (vCPUs) and
    its position ``index`` in a pool of ``pool`` instances that split
    each owner's PRBs evenly (a CU is a pool of one)."""

    instance_id: str
    kind: str                    # "cu" | "du"
    owners: tuple[Snssai, ...]
    shared: bool
    capacity: float
    index: int = 0
    pool: int = 1


@dataclass(frozen=True)
class InstanceUtil:
    """Projected state of one live VNF instance: per-slice vCPU use,
    PRBs flowing through its vNIC, and the flavour capacity."""

    instance_id: str
    kind: str                    # "cu" | "du"
    shared: bool
    owners: tuple[Snssai, ...]
    per_slice: Mapping[Snssai, float]
    prbs: int
    capacity: float

    @property
    def consumption(self) -> float:
        return sum(self.per_slice.values())

    @property
    def utilization(self) -> float:
        return self.consumption / self.capacity


def evaluate_scaling_policy(history: Sequence[float], thresholds: ScalingThresholds,
                            can_up: bool = True, can_down: bool = True,
                            last_event: tuple[int, Direction] | None = None,
                            now: int = 0) -> Direction | None:
    """Threshold policy with hysteresis over a utilization history.

    The mean is taken over the last ``window`` samples (fewer if the
    history is shorter). Returns None between thresholds, at a level
    boundary, or when the opposite of the last decision falls inside the
    cooldown.
    """
    if not history:
        raise ValueError("history must be non-empty")
    recent = list(history)[-thresholds.window:]
    mean = sum(recent) / len(recent)
    if mean > thresholds.hi and can_up:
        decision = Direction.UP
    elif mean < thresholds.lo and can_down:
        decision = Direction.DOWN
    else:
        return None
    if last_event is not None:
        last_tick, last_dir = last_event
        if last_dir != decision and now - last_tick < thresholds.cooldown:
            return None
    return decision


def _share(total: int, pool: int, index: int) -> int:
    """Instance ``index``'s part of ``total`` PRBs split evenly (integer
    split, remainder to the first instances) over a pool of ``pool``."""
    base, rem = divmod(total, pool)
    return base + (1 if index < rem else 0)


def _snap_modulation(value: float) -> int:
    return min(MODULATION_ORDERS, key=lambda m: (abs(m - value), m))


def _own(unit: Unit, insts: Sequence[InstanceUtil]) -> list[InstanceUtil]:
    """The unit's own instances: a CU unit's CU, a DU pool's DUs."""
    target, snssai = unit
    kind = "cu" if target is ScaleTarget.CU else "du"
    return [i for i in insts if i.kind == kind and (snssai is None or snssai in i.owners)]


class Orchestrator:
    """Single-writer orchestration state over a validated descriptor set."""

    def __init__(self, ds: DescriptorSet, scenario: Scenario,
                 params: ResourceModelParams,
                 budget: CapacityBudget,
                 thresholds: ScalingThresholds = ScalingThresholds(),
                 vnic_delay_cap_s: float = 2e-3):
        report = validate(ds)
        if not report.ok:
            raise DescriptorInvalidError(report)
        self.ds = ds
        self.scenario = scenario
        self.params = params
        self.budget = budget
        self.thresholds = thresholds
        self.vnic_delay_cap_s = vnic_delay_cap_s
        self.clock = 0
        self.subnets: dict[Snssai, SubnetInstance] = {}
        self.aux: AuxServiceInstance | None = None
        self.events: list[ScalingEvent] = []
        self.findings: list[str] = []
        self._hist: dict[Unit, deque[float]] = {}
        self._last_scale: dict[Unit, tuple[int, Direction]] = {}

    # -- descriptor lookups -------------------------------------------------

    def _nsd(self, snssai: Snssai) -> GnbNsd:
        return self.ds.gnb_nsds[self.subnets[snssai].nsd_ref]

    def _cu_capacity_of(self, nsd: GnbNsd, cu_sl: str) -> int:
        return self.ds.sl_total_vcpus(nsd, nsd.sa_cu.sl(cu_sl), self.ds.cu_vnfd(nsd))

    def _il_capacity(self, nsd: GnbNsd, il) -> int:
        du = self.ds.sl_total_vcpus(nsd, nsd.sa_du.sl(il.du_sl), self.ds.du_vnfd(nsd))
        return self._cu_capacity_of(nsd, il.cu_sl) + du

    # -- lifecycle ----------------------------------------------------------

    def instantiate_subnet(self, snssai: Snssai) -> SubnetInstance:
        """Create the subnet at the lowest declared IL of its gNB NSD; in
        shared-DU scenarios the DU level is pinned to the auxiliary
        service, created by the first subnet and reused afterwards."""
        if snssai in self.subnets:
            raise OrchestrationError(f"subnet {snssai} already instantiated")
        nsst = self.ds.nsst_for(snssai)
        if nsst is None:
            raise UnknownSnssaiError(f"no NSST declares snssai {snssai}")
        nsd = self.ds.gnb_nsd_for(nsst)

        if self.scenario.du_shared and nsd.aux_nsd_ref is None and self.subnets:
            # A single subnet may "share" its DU without coordination, but
            # actual sharing across subnets needs the auxiliary service.
            raise OrchestrationError(
                f"scenario {self.scenario.value} shares the DU across subnets "
                f"but gnb_nsd[{nsd.id}] declares no auxiliary NSD")
        if self.scenario.du_shared and nsd.aux_nsd_ref is not None:
            if self.aux is None:
                first = self.ds.aux_nsds[nsd.aux_nsd_ref].ils[0]
                self.aux = AuxServiceInstance(aux_nsd_ref=nsd.aux_nsd_ref, current_il=first.id)
            elif nsd.aux_nsd_ref != self.aux.aux_nsd_ref:
                raise OrchestrationError(
                    f"gnb_nsd[{nsd.id}] references auxiliary NSD "
                    f"{nsd.aux_nsd_ref!r}, but {self.aux.aux_nsd_ref!r} is live")
            candidates = [il for il in nsd.ils if il.du_sl == self.aux.current_il]
            if not candidates:
                raise OrchestrationError(
                    f"gnb_nsd[{nsd.id}] declares no IL at auxiliary level "
                    f"{self.aux.current_il!r}")
            il = min(candidates, key=lambda i: self._cu_capacity_of(nsd, i.cu_sl))
        else:
            il = min(nsd.ils, key=lambda i: self._il_capacity(nsd, i))

        subnet = SubnetInstance(
            snssai=snssai, nsst_ref=nsst.id, nsd_ref=nsd.id,
            current_il=il.id, cu_sl=il.cu_sl, du_sl=il.du_sl,
        )
        self.subnets[snssai] = subnet
        return subnet

    def _sorted_slices(self) -> list[Snssai]:
        return sorted(self.subnets, key=lambda s: s.key())

    # -- load projection ------------------------------------------------------

    def _slice_mcs(self, snssai: Snssai,
                   extra: tuple[Snssai, int, int, float] | None = None) -> tuple[int, float]:
        """PRB-weighted average MCS over the admitted DRBs of a slice, the
        modulation snapped to a valid order. (2, 1.0) when idle."""
        entries = [(a.est_prbs, a.modulation_order, a.code_rate)
                   for a in self.subnets[snssai].admitted_drbs]
        if extra is not None and extra[0] == snssai:
            entries.append((extra[1], extra[2], extra[3]))
        total = sum(w for w, _, _ in entries)
        if total == 0:
            return 2, 1.0
        mean_m = sum(w * m for w, m, _ in entries) / total
        mean_cr = sum(w * cr for w, _, cr in entries) / total
        return _snap_modulation(mean_m), mean_cr

    def instances(self, over: Mapping[Unit, str] | None = None) -> list[Instance]:
        """The live VNF instances: the shared DU pool or each subnet's
        dedicated DU pool, then the shared CU or each subnet's CU. The
        one place where ids, owners and capacities come from the scale
        levels and the auxiliary IL. ``over`` puts units at hypothetical
        levels without touching state."""
        over = over or {}
        slices = self._sorted_slices()
        if not slices:
            return []
        # With a single owning subnet a "shared" instance degenerates to a
        # dedicated one: there is no other slice for the cap to protect.
        multi = len(slices) > 1
        insts: list[Instance] = []
        if self.aux is not None:
            il = self.ds.aux_nsds[self.aux.aux_nsd_ref].il(
                over.get((ScaleTarget.SHARED_DU, None), self.aux.current_il))
            any_nsd = self.ds.gnb_nsds[next(iter(self.subnets.values())).nsd_ref]
            vcpus = float(self.ds.du_vnfd(any_nsd).flavour(il.du_il_ref).vcpus)
            insts += [Instance(du_id, "du", tuple(slices), multi, vcpus, i, il.du_count)
                      for i, du_id in enumerate(shared_du_ids(il.du_count))]
        else:
            for s in slices:
                nsd = self._nsd(s)
                sl = nsd.sa_du.sl(over.get((ScaleTarget.DU, s), self.subnets[s].du_sl))
                if len(sl.constituents) != 1:
                    raise OrchestrationError(
                        f"DU scale level {sl.id!r} must have exactly one constituent")
                c = sl.constituents[0]
                vcpus = float(self.ds.du_vnfd(nsd).flavour(c.flavour_ref).vcpus)
                insts += [Instance(du_id, "du", (s,), False, vcpus, i, c.instance_count)
                          for i, du_id in enumerate(dedicated_du_ids(s, c.instance_count))]

        cu_vcpus = {}
        for s in slices:
            level = over.get((ScaleTarget.CU, s), self.subnets[s].cu_sl)
            cu_vcpus[s] = float(self._cu_capacity_of(self._nsd(s), level))
        if self.scenario.cu_shared:
            insts.append(Instance(shared_cu_id(), "cu", tuple(slices), multi,
                                  max(cu_vcpus.values())))
        else:
            insts += [Instance(self._nsd(s).cu_id, "cu", (s,), False, cu_vcpus[s])
                      for s in slices]
        return insts

    def _project(self, prbs_by_slice: Mapping[Snssai, int],
                 extra: tuple[Snssai, int, int, float] | None = None,
                 over: Mapping[Unit, str] | None = None) -> list[InstanceUtil]:
        """Per-instance consumption/PRB projection of ``instances(over)``
        for a given PRB split: a slice's PRBs spread evenly over the DU
        pool serving it, and its CU carries the full slice load."""
        params = self.params
        mcs = {s: self._slice_mcs(s, extra) for s in self.subnets}
        projected = []
        for inst in self.instances(over):
            consumption = du_vcpu_consumption if inst.kind == "du" else cu_vcpu_consumption
            per_slice = {}
            prbs = 0
            for s in inst.owners:
                share = _share(prbs_by_slice.get(s, 0), inst.pool, inst.index)
                per_slice[s] = consumption(SliceLoad(s, share, *mcs[s]), params)
                prbs += share
            projected.append(InstanceUtil(inst.instance_id, inst.kind, inst.shared,
                                          inst.owners, per_slice, prbs, inst.capacity))
        return projected

    def _demand_map(self) -> dict[Snssai, int]:
        return {s: self.subnets[s].demand_prbs() for s in self._sorted_slices()}

    def _allocated_map(self) -> dict[Snssai, int]:
        return {s: self.subnets[s].allocated_prbs for s in self._sorted_slices()}

    # -- admission ------------------------------------------------------------

    def admit_drb(self, snssai: Snssai, drb: Drb,
                  modulation_order: int, code_rate: float) -> Decision:
        """Admit the DRB iff, with every slice at its post-admission
        demand, isolation holds on each shared instance the DRB touches
        and no touched vNIC saturates or exceeds the delay cap."""
        if snssai not in self.subnets:
            raise UnknownSnssaiError(f"subnet {snssai} not instantiated")
        nsst = self.ds.nssts[self.subnets[snssai].nsst_ref]
        profile = nsst.slice_profile
        est = estimate_prbs(drb.qos.throughput_mbps, modulation_order, code_rate,
                            profile.numerology_index, profile.dl_ul_symbol_ratio)
        demand = self._demand_map()
        demand[snssai] = demand[snssai] + est
        extra = (snssai, est, modulation_order, code_rate)
        for inst in self._project(demand, extra=extra):
            if snssai in inst.owners:
                reject = self._limit(inst)
                if reject is not None:
                    return reject
        self.subnets[snssai].admitted_drbs.append(
            AdmittedDrb(drb=drb, est_prbs=est,
                        modulation_order=modulation_order, code_rate=code_rate))
        return Decision(True, est_prbs=est)

    def _limit(self, inst: InstanceUtil, vnic: bool = True) -> Decision | None:
        """The first limit ``inst`` breaks, or None: isolation if the
        instance is shared, then (with ``vnic``) vNIC saturation and the
        vNIC delay cap."""
        if inst.shared:
            result = check_isolation(
                inst.per_slice, CapacityBudget(inst.capacity, self.budget.per_slice_cap))
            if not result.ok:
                return Decision(False, reason=REJECT_VCPU_CAP,
                                detail=f"{inst.instance_id}: {'; '.join(result.violations)}")
        if vnic:
            try:
                wait = vnic_mean_wait(inst.prbs, self.params)
            except VnicSaturatedError as exc:
                return Decision(False, reason=REJECT_VNIC_SATURATED,
                                detail=f"{inst.instance_id}: {exc}")
            if wait > self.vnic_delay_cap_s:
                return Decision(False, reason=REJECT_VNIC_DELAY,
                                detail=f"{inst.instance_id}: mean wait {wait * 1e3:.3f} ms "
                                       f"exceeds cap {self.vnic_delay_cap_s * 1e3:.3f} ms")
        return None

    def depart_drb(self, snssai: Snssai, drb_id: str) -> bool:
        subnet = self.subnets[snssai]
        for i, entry in enumerate(subnet.admitted_drbs):
            if entry.drb.drb_id == drb_id:
                del subnet.admitted_drbs[i]
                return True
        return False

    # -- PRB allocation ---------------------------------------------------------

    def _isolation_feasible(self, prbs_by_slice: Mapping[Snssai, int]) -> bool:
        return all(self._limit(inst, vnic=False) is None
                   for inst in self._project(prbs_by_slice))

    def allocate_prbs(self, total_prbs: int) -> dict[Snssai, int]:
        """Split the PRB budget across subnets proportionally to their
        admitted demand (largest-remainder rounding), then trim the
        largest allocations one PRB at a time until isolation holds on
        every shared instance, and finally round-robin any slack back.
        Deterministic; allocations never exceed a slice's demand. Raises
        BaselineOverloadError when isolation fails even at zero PRBs."""
        if total_prbs < 0:
            raise ValueError("total_prbs must be >= 0")
        slices = self._sorted_slices()
        demand = self._demand_map()
        total_demand = sum(demand.values())

        if total_demand <= total_prbs:
            alloc = dict(demand)
        else:
            shares = {s: total_prbs * demand[s] / total_demand for s in slices}
            alloc = {s: int(shares[s]) for s in slices}
            leftover = total_prbs - sum(alloc.values())
            by_remainder = sorted(slices, key=lambda s: (-(shares[s] - alloc[s]), s.key()))
            for s in by_remainder[:leftover]:
                alloc[s] += 1

        while not self._isolation_feasible(alloc):
            reducible = [s for s in slices if alloc[s] > 0]
            if not reducible:
                inst = next(i for i in self._project(alloc)
                            if self._limit(i, vnic=False) is not None)
                raise BaselineOverloadError(
                    f"{inst.instance_id}: isolation fails with no PRBs allocated; slice "
                    f"baselines sum to {inst.consumption:.4f} vCPU against capacity "
                    f"{inst.capacity:.4f}, per-slice cap {self.budget.per_slice_cap:g}")
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
                if self._isolation_feasible(trial):
                    alloc = trial
                    changed = True

        for s in slices:
            self.subnets[s].allocated_prbs = alloc[s]
        return alloc

    # -- scaling ------------------------------------------------------------------

    def _units(self) -> list[Unit]:
        """Every scaling unit, in policy order: each subnet's CU, then the
        shared DU pool or each subnet's dedicated DU pool."""
        slices = self._sorted_slices()
        units: list[Unit] = [(ScaleTarget.CU, s) for s in slices]
        if self.aux is not None:
            return units + [(ScaleTarget.SHARED_DU, None)]
        return units + [(ScaleTarget.DU, s) for s in slices]

    def _step(self, unit: Unit, direction: Direction) -> tuple[str, str | None]:
        """The unit's current level and the adjacent one in ``direction``
        (None at a boundary)."""
        target, snssai = unit
        if target is ScaleTarget.SHARED_DU:
            levels = [il.id for il in self.ds.aux_nsds[self.aux.aux_nsd_ref].ils]
            current = self.aux.current_il
        elif target is ScaleTarget.CU:
            levels, current = self._nsd(snssai).sa_cu.sl_ids(), self.subnets[snssai].cu_sl
        else:
            levels, current = self._nsd(snssai).sa_du.sl_ids(), self.subnets[snssai].du_sl
        j = levels.index(current) + (1 if direction is Direction.UP else -1)
        return current, (levels[j] if 0 <= j < len(levels) else None)

    def _target_il(self, unit: Unit, level: str):
        """The IL that puts ``unit`` at ``level``: the auxiliary IL for the
        shared pool, else the subnet's declared IL for its new (cu_sl,
        du_sl) pair, None if it declares none."""
        target, snssai = unit
        if target is ScaleTarget.SHARED_DU:
            return self.ds.aux_nsds[self.aux.aux_nsd_ref].il(level)
        subnet = self.subnets[snssai]
        pair = (level, subnet.du_sl) if target is ScaleTarget.CU else (subnet.cu_sl, level)
        return self._nsd(snssai).find_il(*pair)

    def scale(self, target: ScaleTarget, direction: Direction,
              snssai: Snssai | None = None,
              cause: ScalingCause = ScalingCause.LOAD_INCREASE) -> list[ScalingEvent]:
        """Move one scaling unit one level in ``direction`` and return the
        events, the unit's own first.

        CU and DU (a dedicated pool) scale the subnet ``snssai``: its
        other level stays and its current IL becomes the declared IL for
        the new pair. SHARED_DU scales the shared pool exactly once, on
        the auxiliary service; every referencing subnet then follows with
        a SUBNET_IL event (see _follow_aux)."""
        if target is ScaleTarget.SHARED_DU:
            if self.aux is None:
                raise OrchestrationError("no auxiliary service instance is live")
            snssai = None
        elif target is ScaleTarget.SUBNET_IL:
            raise OrchestrationError("subnet ILs follow a shared-DU scaling")
        elif snssai not in self.subnets:
            raise UnknownSnssaiError(f"subnet {snssai} not instantiated")
        elif target is ScaleTarget.DU and self.aux is not None:
            raise OrchestrationError("shared DUs scale through the auxiliary service")
        unit = (target, snssai)
        current, level = self._step(unit, direction)
        who = "auxiliary service" if snssai is None else f"{target.value} of {snssai}"
        if level is None:
            raise AtBoundaryError(f"{who} has no level {direction.value} from {current!r}")
        il = self._target_il(unit, level)
        if il is None:
            raise NoMatchingIlError(
                f"gnb_nsd[{self.subnets[snssai].nsd_ref}] declares no IL putting "
                f"{who} at {level!r}")
        events = [ScalingEvent(time=self.clock, target=target, snssai=snssai,
                               from_level=current, to_level=level, cause=cause)]
        if target is ScaleTarget.SHARED_DU:
            self.aux.current_il = level
            events += filter(None, (self._follow_aux(s, cause) for s in self._sorted_slices()))
        else:
            subnet = self.subnets[snssai]
            subnet.cu_sl, subnet.du_sl, subnet.current_il = il.cu_sl, il.du_sl, il.id
        self.events.extend(events)
        return events

    def _follow_aux(self, s: Snssai, cause: ScalingCause) -> ScalingEvent | None:
        """Point subnet ``s`` at an IL whose DU level equals the auxiliary
        IL, its CU level re-selected from its own demand. A subnet with no
        usable IL keeps its previous view and an InconsistentIl finding is
        recorded."""
        subnet = self.subnets[s]
        nsd = self._nsd(s)
        new_du_sl = self.aux.current_il
        if nsd.sa_du.sl(new_du_sl) is None:
            self.findings.append(
                f"InconsistentIl: {s}: sa_du has no scale level {new_du_sl!r}")
            return None
        need = cu_vcpu_consumption(SliceLoad(s, subnet.demand_prbs(), *self._slice_mcs(s)),
                                   self.params)
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
        event = ScalingEvent(time=self.clock, target=ScaleTarget.SUBNET_IL, snssai=s,
                             from_level=subnet.current_il, to_level=chosen.id, cause=cause)
        subnet.cu_sl, subnet.du_sl, subnet.current_il = chosen.cu_sl, chosen.du_sl, chosen.id
        return event

    # -- policy-driven scaling ----------------------------------------------------

    def observe_utilization(self) -> list[InstanceUtil]:
        """Project utilization at the current allocations, append one
        sample per scaling unit to its history, and return the snapshot.
        A CU's sample is its slice's consumption over the subnet's own CU
        level; a DU pool's is the pool's consumption over its capacity."""
        insts = self._project(self._allocated_map())
        for unit in self._units():
            target, s = unit
            mine = _own(unit, insts)
            if target is ScaleTarget.CU:
                util = mine[0].per_slice[s] / self._cu_capacity_of(self._nsd(s),
                                                                   self.subnets[s].cu_sl)
            else:
                util = sum(i.consumption for i in mine) / sum(i.capacity for i in mine)
            self._history(unit).append(util)
        return insts

    def _history(self, unit: Unit) -> deque[float]:
        if unit not in self._hist:
            self._hist[unit] = deque(maxlen=max(self.thresholds.window, 1))
        return self._hist[unit]

    def _down_feasible(self, unit: Unit, level: str) -> bool:
        """Whether the unit's own instances, projected at the current
        allocations with the unit at ``level``, stay within capacity,
        isolation and (DU pools only) the vNIC limits."""
        vnic = unit[0] is not ScaleTarget.CU
        return not any(
            (not inst.shared and inst.consumption > inst.capacity)
            or self._limit(inst, vnic=vnic) is not None
            for inst in _own(unit, self._project(self._allocated_map(), over={unit: level})))

    def apply_scaling_policies(self) -> list[ScalingEvent]:
        """Evaluate the threshold policy per scaling unit and apply the
        resulting scalings. A step is possible only to a level with a
        declared IL; a scale-down that would break a limit at the current
        allocations is suppressed, so admitted DRBs are never evicted."""
        events: list[ScalingEvent] = []
        for unit in self._units():
            hist = self._history(unit)
            if not hist:
                continue
            up, down = (self._step(unit, d)[1] for d in (Direction.UP, Direction.DOWN))
            decision = evaluate_scaling_policy(
                hist, self.thresholds,
                can_up=up is not None and self._target_il(unit, up) is not None,
                can_down=down is not None and self._target_il(unit, down) is not None,
                last_event=self._last_scale.get(unit), now=self.clock)
            if decision is None or (decision is Direction.DOWN
                                    and not self._down_feasible(unit, down)):
                continue
            cause = (ScalingCause.LOAD_INCREASE if decision is Direction.UP
                     else ScalingCause.LOAD_DECREASE)
            events += self.scale(unit[0], decision, unit[1], cause)
            self._last_scale[unit] = (self.clock, decision)
        return events

    # -- accounting ----------------------------------------------------------------

    def live_vm_count(self) -> int:
        """Live VMs: one per live CU or DU instance."""
        return len(self.instances())

    def advance_clock(self) -> None:
        self.clock += 1
