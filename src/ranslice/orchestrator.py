"""Lifecycle state machine for slice subnets over one gNB deployment.

Plays the NFVO/VNFM/slice-subnet-manager roles: instantiates subnets
from their templates, admits DRBs under the isolation predicate,
allocates PRBs at coarse time scale, and scales instances. A slice's CU
scales independently per subnet; a shared DU scales exactly once through
the auxiliary service, after which every referencing subnet's
instantiation level is updated to the new DU level (its CU level
re-selected from the demand its CU carries).

All mutating operations run on one logical thread (single-writer);
read-only snapshots are safe to take concurrently. State changes only
through the lifecycle operations; the tick path trusts that (see _relayout).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Mapping, Sequence

from .descriptors import DescriptorSet, GnbNsd, Snssai, validate
from .descriptors.parse import closed
from .descriptors.validate import ValidationReport
from .errors import RansliceError
from .resources import (
    CapacityBudget,
    ResourceModelParams,
    SliceLoad,
    check_isolation,
    cu_vcpu_consumption,
    du_vcpu_consumption,  # unused here; perfbench/tracing.py patches this name
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
# Where each slice's DU pool (a range) and CU sit in an instance tuple.
Pools = Mapping[Snssai, tuple[range, int]]


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


@closed
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


@dataclass(slots=True)
class Decision:
    """Outcome of one admission: admitted with the DRB's PRB estimate, or
    rejected with a reason (one of the REJECT_* codes) and a detail
    naming the instance that breaks the limit."""

    admitted: bool
    est_prbs: int = 0
    reason: str = ""
    detail: str = ""


# Frozen, as is its Drb: SubnetInstance._folded trusts a tuple of them by
# identity, which holds only while no entry can change.
@dataclass(frozen=True)
class AdmittedDrb:
    drb: Drb
    est_prbs: int
    modulation_order: int
    code_rate: float


_NO_DRBS = (0, 0, 0.0, (2, 1.0))


def _fold(drbs: Sequence[AdmittedDrb], sums: tuple = _NO_DRBS) -> tuple:
    """``sums`` (demand PRBs, sum of est_prbs * modulation_order, sum of
    est_prbs * code_rate, their MCS) continued over ``drbs`` by an explicit
    left fold, so that a refold and a continuation agree to the bit."""
    demand, m_sum, cr_sum, _ = sums
    for a in drbs:
        demand += a.est_prbs
        m_sum += a.est_prbs * a.modulation_order
        cr_sum += a.est_prbs * a.code_rate
    mcs = (_snap_modulation(m_sum / demand), cr_sum / demand) if demand else (2, 1.0)
    return demand, m_sum, cr_sum, mcs


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
    admitted_drbs: tuple[AdmittedDrb, ...] = ()
    allocated_prbs: int = 0
    _memo: tuple = field(default=((), _NO_DRBS), init=False, repr=False, compare=False)

    def _folded(self) -> tuple:
        """The _fold sums over the admitted DRBs. The memo keeps (the tuple
        last folded, its sums) and is refolded when ``admitted_drbs`` is
        another tuple (departure assigns one); admission continues the
        sums in place."""
        drbs = self.admitted_drbs
        memo = self._memo
        if memo[0] is not drbs:
            memo = self._memo = (drbs, _fold(drbs))
        return memo[1]

    def demand_prbs(self) -> int:
        return self._folded()[0]

    def mcs(self) -> tuple[int, float]:
        """PRB-weighted average MCS over the admitted DRBs, the modulation
        snapped to a valid order; (2, 1.0) when idle."""
        return self._folded()[3]


@dataclass
class AuxServiceInstance:
    """The auxiliary network service coordinating a shared DU: scaling
    executes here exactly once, and its IL pins the DU scale level of
    every referencing subnet."""

    aux_nsd_ref: str
    current_il: str


@dataclass(slots=True)
class Instance:
    """One VNF instance: its kind, the slices it serves, its flavour
    capacity (vCPUs) and its position ``index`` in a pool of ``pool``
    instances that split each owner's PRBs evenly (a CU is a pool of
    one). A projection fills in its load: each owner's vCPU use, the
    PRBs through its vNIC and ``consumption``, their sum, summed once
    there as ``sum(per_slice.values())``."""

    instance_id: str
    kind: str                    # "cu" | "du"
    owners: tuple[Snssai, ...]
    capacity: float
    index: int = 0
    pool: int = 1
    per_slice: Mapping[Snssai, float] = field(default_factory=dict)
    prbs: int = 0
    consumption: float = 0.0

    @property
    def shared(self) -> bool:
        """Whether several slices own it. With a single owner a "shared"
        instance degenerates to a dedicated one: there is no other slice
        for the cap to protect."""
        return len(self.owners) > 1

    @property
    def utilization(self) -> float:
        return self.consumption / self.capacity


def evaluate_scaling_policy(history: Sequence[float], thresholds: ScalingThresholds,
                            last_event: tuple[int, Direction] | None = None,
                            now: int = 0) -> Direction | None:
    """Threshold policy with hysteresis over a utilization history.

    The mean is taken over the last ``window`` samples (fewer if the
    history is shorter). Returns None between thresholds, or when the
    opposite of the last decision falls inside the cooldown.
    """
    n = len(history)
    if not n:
        raise ValueError("history must be non-empty")
    if n > thresholds.window:
        history, n = islice(history, n - thresholds.window, None), thresholds.window
    mean = sum(history) / n
    if mean > thresholds.hi:
        decision = Direction.UP
    elif mean < thresholds.lo:
        decision = Direction.DOWN
    else:
        return None
    if last_event is not None:
        last_tick, last_dir = last_event
        if last_dir != decision and now - last_tick < thresholds.cooldown:
            return None
    return decision


def _snap_modulation(value: float) -> int:
    """The modulation order nearest ``value``, the lower one on a tie, and
    2 for NaN: the orders (2, 4, 6, 8) split at the midpoints 3, 5 and 7.

    Comparing with a midpoint decides as comparing the float distances to
    the orders either side of it does, ties included. A fold's value (a
    PRB-weighted mean of orders) lies in [2, 8], and for a value between
    two adjacent orders both distances to them are computed exactly, by
    Sterbenz's lemma (``x - y`` is exact when y/2 <= x <= 2y), so rounding
    cannot carry a value across a midpoint. Every other order is farther
    by at least 2, far beyond any rounding error."""
    if not value > 3:           # NaN too
        return 2
    if value <= 5:
        return 4
    return 6 if value <= 7 else 8


def _vnic_threshold(params: ResourceModelParams, cap: float) -> int:
    """The fewest vNIC PRBs at which vnic_mean_wait saturates, exceeds
    ``cap`` or raises OverflowError (a PRB count beyond any float): below
    it the vNIC limits hold, at and above it one breaks or the call raises.

    Exact, because that outcome is monotone in the PRBs, float rounding
    included. The arrival rate ``pkt_per_prb * n`` does not fall as n
    grows, since rounding is monotone; saturation (rate >= service rate)
    and the conversion overflow then persist. Below saturation the gap to
    the service rate does not grow, so the wait 1/gap - 1/service rate
    does not fall, or is NaN for every such n where 1/service rate
    overflows, which no cap rejects. 0 PRBs break nothing (the wait is 0
    or NaN), so the count is bracketed by doubling from 1 and bisected
    against vnic_mean_wait itself."""
    def breaks(n: int) -> bool:
        try:
            return vnic_mean_wait(n, params) > cap
        except (VnicSaturatedError, OverflowError):
            return True

    lo, hi = 0, 1
    while not breaks(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if breaks(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(eq=False, slots=True)
class _UnitRecord:
    """One scaling unit: ``holder.attr`` is its live level (a subnet's
    cu_sl or du_sl, or the auxiliary IL), one of ``levels`` in order, and
    ``caps`` a CU's vCPUs per level; then its utilization history and
    last policy decision."""

    target: ScaleTarget
    snssai: Snssai | None
    holder: SubnetInstance | AuxServiceInstance
    attr: str
    levels: list[str]
    caps: dict[str, int]
    hist: deque[float]
    last: tuple[int, Direction] | None = None


def _own(rec: _UnitRecord, pools: Pools) -> range:
    """Where the unit's own instances sit in the tuple ``pools`` indexes:
    a CU unit's CU, or a DU pool's DUs (the shared pool is every slice's)."""
    dus, cu = pools[rec.snssai] if rec.snssai is not None else next(iter(pools.values()))
    return range(cu, cu + 1) if rec.target is ScaleTarget.CU else dus


@dataclass(slots=True)
class _Layout:
    """What the live levels and subnets lay out, with the tick work that
    is constant over them: the live instances and their pool index (see
    Orchestrator.pools), the positions of the shared pool heads (``index
    == 0``, several owners) that allocate_prbs checks, the live scaling
    units in policy order (each subnet's CU, then the shared DU pool or
    each subnet's dedicated DU pool), and per unit in that order what
    observe_utilization samples: its history, then for a CU its slice,
    its CU's position and the vCPUs of the subnet's CU level, for a DU
    pool None, the pool's positions and their summed capacity."""

    instances: tuple[Instance, ...]
    pools: Pools
    heads: list[int]
    units: list[_UnitRecord]
    observed: list[tuple]


class Orchestrator:
    """Single-writer orchestration state over a validated descriptor set."""

    def __init__(self, ds: DescriptorSet, scenario: Scenario,
                 params: ResourceModelParams,
                 budget: CapacityBudget,
                 thresholds: ScalingThresholds = ScalingThresholds(),
                 vnic_delay_cap_s: float = 2e-3):
        if not vnic_delay_cap_s > 0:     # NaN fails too
            raise ValueError("vnic_delay_cap_s must be > 0")
        report = validate(ds)
        if not report.ok:
            raise DescriptorInvalidError(report)
        self.ds = ds
        self.scenario = scenario
        self._params = params
        self._budget = budget
        self._thresholds = thresholds
        self._vnic_delay_cap_s = vnic_delay_cap_s
        self.clock = 0
        self.subnets: dict[Snssai, SubnetInstance] = {}
        self.aux: AuxServiceInstance | None = None
        self.events: list[ScalingEvent] = []
        self.findings: list[str] = []
        # The slices by key and each scaling unit's record, kept for life;
        # the layout over the live levels, dropped (None) by _relayout.
        self._slices: tuple[Snssai, ...] = ()
        self._unit_recs: dict[Unit, _UnitRecord] = {}
        self._layout: _Layout | None = None
        # exp(beta * m) per modulation order, the MCS factor of _project.
        self._exp = {m: math.exp(params.beta * m) for m in MODULATION_ORDERS}
        # The fewest vNIC PRBs at which a vNIC limit binds (see _vnic_threshold).
        self._vnic_prbs = _vnic_threshold(params, vnic_delay_cap_s)
        # Isolation budgets by instance capacity (the per-slice cap is fixed).
        self._budgets: dict[float, CapacityBudget] = {}
        # Lifecycle operations that changed state, counted (the
        # generation); allocate_prbs hands (generation, projection) over.
        self._generation = 0
        self._handoff: tuple[int, list[Instance]] | None = None
        self._checked: list[Instance] | None = None

    @property
    def params(self) -> ResourceModelParams:
        """The model parameters, fixed at construction."""
        return self._params

    @property
    def budget(self) -> CapacityBudget:
        """The capacity budget, fixed at construction."""
        return self._budget

    @property
    def thresholds(self) -> ScalingThresholds:
        """The scaling thresholds, fixed at construction."""
        return self._thresholds

    @property
    def vnic_delay_cap_s(self) -> float:
        """The vNIC mean-wait cap admission enforces, fixed at construction."""
        return self._vnic_delay_cap_s

    # -- descriptor lookups -------------------------------------------------

    def _nsd(self, snssai: Snssai) -> GnbNsd:
        return self.ds.gnb_nsds[self.subnets[snssai].nsd_ref]

    def _cu_capacity_of(self, nsd: GnbNsd, cu_sl: str) -> int:
        return self.ds.sl_total_vcpus(nsd.sa_cu.sl(cu_sl), self.ds.cu_vnfd(nsd))

    def _il_capacity(self, nsd: GnbNsd, il) -> int:
        du = self.ds.sl_total_vcpus(nsd.sa_du.sl(il.du_sl), self.ds.du_vnfd(nsd))
        return self._cu_capacity_of(nsd, il.cu_sl) + du

    # -- lifecycle ----------------------------------------------------------

    def instantiate_subnet(self, snssai: Snssai) -> SubnetInstance:
        """Create the subnet at the lowest declared IL of its gNB NSD. Under
        DU sharing the DU level is pinned to the auxiliary service, which
        the first subnet creates if it declares one; every subnet after the
        first must reference that live auxiliary NSD. Raises
        OrchestrationError if the orchestrator was given no Scenario."""
        if not isinstance(self.scenario, Scenario):
            raise OrchestrationError(f"scenario must be a Scenario, got {self.scenario!r}")
        if snssai in self.subnets:
            raise OrchestrationError(f"subnet {snssai} already instantiated")
        nsst = self.ds.nsst_for(snssai)
        if nsst is None:
            raise UnknownSnssaiError(f"no NSST declares snssai {snssai}")
        nsd = self.ds.gnb_nsd_for(nsst)

        live = self.aux and self.aux.aux_nsd_ref
        if self.scenario.du_shared and self.subnets and (live is None or nsd.aux_nsd_ref != live):
            raise OrchestrationError(
                f"scenario {self.scenario.value} shares the DU across subnets: gnb_nsd[{nsd.id}] "
                f"references auxiliary NSD {nsd.aux_nsd_ref!r}, the live one is {live!r}")
        if self.scenario.du_shared and not self.subnets and nsd.aux_nsd_ref is not None:
            first = self.ds.aux_nsds[nsd.aux_nsd_ref].ils[0]
            self.aux = AuxServiceInstance(aux_nsd_ref=nsd.aux_nsd_ref, current_il=first.id)
        if self.aux is not None:
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
        self._slices = tuple(sorted(self.subnets, key=Snssai.key))
        self._relayout()
        return subnet

    def _relayout(self) -> None:
        """Drop the instance layout, and with it the tick work built over
        it, and count a change of state, so that a hand-off made before is
        not used. Code that edits levels, DRBs or allocations by hand must
        call it after the edit."""
        self._layout = None
        self._generation += 1

    # -- load projection ------------------------------------------------------

    def _laid_out(self) -> _Layout:
        """The layout of the live levels and subnets, built on the first
        read after instantiate_subnet or scale, the only places where they
        change."""
        lay = self._layout
        if lay is None:
            insts, pools = self._build_instances({})
            slices = self._slices
            units = [self._unit(ScaleTarget.CU, s) for s in slices] + (
                [self._unit(ScaleTarget.SHARED_DU, None)] if self.aux is not None
                else [self._unit(ScaleTarget.DU, s) for s in slices])
            observed = []
            for rec in units:
                own = _own(rec, pools)
                if rec.target is ScaleTarget.CU:
                    observed.append((rec.hist, rec.snssai, own[0], rec.caps[rec.holder.cu_sl]))
                else:
                    observed.append((rec.hist, None, own, sum(insts[j].capacity for j in own)))
            heads = [j for j, inst in enumerate(insts) if inst.index == 0 and inst.shared]
            lay = self._layout = _Layout(insts, pools, heads, units, observed)
        return lay

    def instances(self) -> tuple[Instance, ...]:
        """The live VNF instances: the shared DU pool or each subnet's
        dedicated DU pool, then the shared CU or each subnet's CU (see
        _build_instances)."""
        return self._laid_out().instances

    def pools(self) -> Pools:
        """Where each slice's DU pool (a range of positions) and CU sit in
        the live instances. Read-only."""
        return self._laid_out().pools

    def _build_instances(self, over: Mapping[Unit, str]) -> tuple[tuple[Instance, ...], Pools]:
        """The instances with ``over`` putting units at hypothetical levels,
        and their pool index (see pools). The one place where ids, owners
        and capacities come from the scale levels and the auxiliary IL."""
        slices = self._slices
        if not slices:
            return (), {}
        insts: list[Instance] = []
        dus: dict[Snssai, range] = {}
        if self.aux is not None:
            il = self.ds.aux_nsds[self.aux.aux_nsd_ref].il(
                over.get((ScaleTarget.SHARED_DU, None), self.aux.current_il))
            any_nsd = self.ds.gnb_nsds[next(iter(self.subnets.values())).nsd_ref]
            vcpus = float(self.ds.du_vnfd(any_nsd).flavour(il.du_il_ref).vcpus)
            insts += [Instance(du_id, "du", tuple(slices), vcpus, i, il.du_count)
                      for i, du_id in enumerate(shared_du_ids(il.du_count))]
            dus = dict.fromkeys(slices, range(il.du_count))
        else:
            for s in slices:
                nsd = self._nsd(s)
                sl = nsd.sa_du.sl(over.get((ScaleTarget.DU, s), self.subnets[s].du_sl))
                c = sl.constituents[0]
                vcpus = float(self.ds.du_vnfd(nsd).flavour(c.flavour_ref).vcpus)
                dus[s] = range(len(insts), len(insts) + c.instance_count)
                insts += [Instance(du_id, "du", (s,), vcpus, i, c.instance_count)
                          for i, du_id in enumerate(dedicated_du_ids(s, c.instance_count))]

        cu_vcpus = {}
        for s in slices:
            level = over.get((ScaleTarget.CU, s), self.subnets[s].cu_sl)
            cu_vcpus[s] = float(self._cu_capacity_of(self._nsd(s), level))
        if self.scenario.cu_shared:
            cus = dict.fromkeys(slices, len(insts))
            insts.append(Instance(shared_cu_id(), "cu", tuple(slices), max(cu_vcpus.values())))
        else:
            cus = {s: len(insts) + k for k, s in enumerate(slices)}
            insts += [Instance(self._nsd(s).cu_id, "cu", (s,), cu_vcpus[s]) for s in slices]
        return tuple(insts), {s: (dus[s], cus[s]) for s in slices}

    def _project(self, prbs_by_slice: Mapping[Snssai, int],
                 insts: Sequence[Instance] | None = None) -> list[Instance]:
        """Copies of ``insts`` (default: the live instances) with their load
        filled in for a PRB split naming every owner: each owner's vCPU use
        and the vNIC PRBs. A slice's PRBs split evenly over the DU pool
        serving it (an integer split, the remainder to the lowest indices),
        and its CU carries the full slice load. Each owner's (code rate,
        exp(beta * modulation order)) is read once per call. A load is
        du_vcpu_consumption's expression in its order, times cu_scale on a
        CU as in cu_vcpu_consumption, so the floats are the models'."""
        p = self._params
        c0, k, cu_scale, exp, subnets = p.c0, p.k, p.cu_scale, self._exp, self.subnets
        rates: dict[Snssai, tuple[float, float]] = {}
        out = []
        for inst in self.instances() if insts is None else insts:
            du, pool, index = inst.kind == "du", inst.pool, inst.index
            per_slice = {}
            prbs = 0
            for s in inst.owners:
                base, rem = divmod(prbs_by_slice[s], pool)
                share = base + 1 if index < rem else base
                rate = rates.get(s)
                if rate is None:
                    m, cr = subnets[s].mcs()
                    rate = rates[s] = (cr, exp[m])
                load = c0 + k * share * rate[0] * rate[1]
                per_slice[s] = load if du else cu_scale * load
                prbs += share
            out.append(Instance(inst.instance_id, inst.kind, inst.owners, inst.capacity,
                                index, pool, per_slice, prbs, sum(per_slice.values())))
        return out

    def _allocated_map(self) -> dict[Snssai, int]:
        return {s: self.subnets[s].allocated_prbs for s in self._slices}

    # -- admission ------------------------------------------------------------

    def admit_drb(self, snssai: Snssai, drb: Drb,
                  modulation_order: int, code_rate: float) -> Decision:
        """Admit the DRB iff, with every slice at its post-admission
        demand, isolation holds on each shared instance the DRB touches
        and no touched vNIC saturates or exceeds the delay cap. Checked on
        the pool heads that decide it (see _owned_by), DU head first, up
        to the first break, with the loads _head_loads computes. A head
        with one owner has no isolation check and carries ceil(demand /
        pool) vNIC PRBs, so below the vNIC threshold its loads are not
        computed. Raises ValueError, changing nothing, for an invalid MCS
        or a DRB of another slice."""
        if modulation_order not in MODULATION_ORDERS:
            raise ValueError(f"modulation_order must be one of {MODULATION_ORDERS}")
        if not 0 < code_rate <= 1:     # NaN fails too
            raise ValueError("code_rate must be in (0, 1]")
        subnet = self.subnets.get(snssai)
        if subnet is None:
            raise UnknownSnssaiError(f"subnet {snssai} not instantiated")
        if drb.snssai is not snssai:
            raise ValueError(f"DRB {drb.drb_id!r} belongs to slice {drb.snssai}, not {snssai}")
        profile = self.ds.nssts[subnet.nsst_ref].slice_profile
        est = estimate_prbs(drb.qos.throughput_mbps, modulation_order, code_rate,
                            profile.numerology_index, profile.dl_ul_symbol_ratio)
        # The DRB continues the subnet's fold as _fold would.
        demand, m_sum, cr_sum, _ = subnet._folded()
        demand += est
        m_sum += est * modulation_order
        cr_sum += est * code_rate
        after = (demand, m_sum, cr_sum,
                 (_snap_modulation(m_sum / demand), cr_sum / demand) if demand else (2, 1.0))
        for head in self._owned_by(snssai):
            if head.shared or -(-demand // head.pool) >= self._vnic_prbs:
                reject = self._limit(head, loads=self._head_loads(head, snssai, after))
                if reject is not None:
                    return reject
        subnet.admitted_drbs = drbs = (
            *subnet.admitted_drbs, AdmittedDrb(drb, est, modulation_order, code_rate))
        subnet._memo = (drbs, after)
        self._generation += 1
        return Decision(True, est_prbs=est)

    def _head_loads(self, head: Instance, snssai: Snssai,
                    after: tuple) -> tuple[dict[Snssai, float], int]:
        """Each owner's vCPU use on the pool head ``head`` and its vNIC PRBs,
        as _project computes them, with ``snssai`` at the fold ``after``
        and every other owner at its own: a head (``index == 0``) carries
        ceil(demand / pool) of each owner's PRBs, the larger share of the
        split."""
        p = self._params
        c0, k, cu_scale, exp, subnets = p.c0, p.k, p.cu_scale, self._exp, self.subnets
        du, pool = head.kind == "du", head.pool
        per_slice = {}
        prbs = 0
        for s in head.owners:
            demand, _, _, (m, cr) = after if s is snssai else subnets[s]._folded()
            share = -(-demand // pool)
            load = c0 + k * share * cr * exp[m]
            per_slice[s] = load if du else cu_scale * load
            prbs += share
        return per_slice, prbs

    def _owned_by(self, snssai: Snssai) -> list[Instance]:
        """The heads (``index == 0``) of the pools ``snssai`` owns: the
        first instance of its DU pool and its CU.

        The pool-head rule, on which admission, allocation (the shared
        heads), scale-down (_down_feasible) and sim.run's trace rows rest:
        a pool's head is its most-loaded instance. A pool's split of an
        owner's PRBs (_project) gives the remainder to the lowest indices,
        so a head carries at least the PRBs of every other instance of its
        pool, per owner and through its vNIC, and a pool's instances share
        one flavour, so one capacity. Every load and limit is
        non-decreasing in PRBs, float rounding included: the consumption
        models (k > 0), their sum and its utilization, the per-slice cap,
        the vNIC wait, vNIC saturation and the delay cap. So a head's
        utilization and vNIC wait are its pool's maxima, to the bit, and
        any instance of a pool that breaks a limit has a head that breaks
        one too, the head first in the pool: checking the heads alone gives
        the same Decision as checking every owned instance."""
        lay = self._laid_out()
        dus, cu = lay.pools[snssai]
        return [lay.instances[dus[0]], lay.instances[cu]]

    def _limit(self, inst: Instance, vnic: bool = True,
               loads: tuple[Mapping[Snssai, float], int] | None = None) -> Decision | None:
        """The first limit ``inst`` breaks, or None: isolation if the
        instance is shared, then (with ``vnic``) vNIC saturation and the
        vNIC delay cap, at ``loads`` (per-slice vCPU, vNIC PRBs) if given.
        The vNIC wait is computed only at or above the vNIC threshold,
        where it breaks a limit (see _vnic_threshold)."""
        if loads is None:
            per_slice, prbs = inst.per_slice, inst.prbs
        else:
            per_slice, prbs = loads
        if inst.shared:
            budget = self._budgets.get(inst.capacity)
            if budget is None:
                budget = self._budgets[inst.capacity] = CapacityBudget(
                    inst.capacity, self._budget.per_slice_cap)
            result = check_isolation(per_slice, budget)
            if not result.ok:
                return Decision(False, reason=REJECT_VCPU_CAP,
                                detail=f"{inst.instance_id}: {'; '.join(result.violations)}")
        if vnic and prbs >= self._vnic_prbs:
            try:
                wait = vnic_mean_wait(prbs, self._params)
            except VnicSaturatedError as exc:
                return Decision(False, reason=REJECT_VNIC_SATURATED,
                                detail=f"{inst.instance_id}: {exc}")
            if wait > self._vnic_delay_cap_s:
                return Decision(False, reason=REJECT_VNIC_DELAY,
                                detail=f"{inst.instance_id}: mean wait {wait * 1e3:.3f} ms "
                                       f"exceeds cap {self._vnic_delay_cap_s * 1e3:.3f} ms")
        return None

    def depart_drb(self, snssai: Snssai, drb_id: str) -> bool:
        subnet = self.subnets.get(snssai)
        if subnet is None:
            raise UnknownSnssaiError(f"subnet {snssai} not instantiated")
        drbs = subnet.admitted_drbs
        for i, entry in enumerate(drbs):
            if entry.drb.drb_id == drb_id:
                subnet.admitted_drbs = drbs[:i] + drbs[i + 1:]
                self._generation += 1
                return True
        return False

    # -- PRB allocation ---------------------------------------------------------

    def _first_break(self, heads: Sequence[Instance],
                     prbs_by_slice: Mapping[Snssai, int]) -> Instance | None:
        """The first of ``heads``, projected at ``prbs_by_slice``, that
        breaks isolation, or None if none does."""
        return next((head for head in self._project(prbs_by_slice, heads)
                     if self._limit(head, vnic=False) is not None), None)

    def allocate_prbs(self, total_prbs: int) -> dict[Snssai, int]:
        """Split the PRB budget across subnets proportionally to their
        admitted demand (largest-remainder rounding), then trim the
        largest allocations one PRB at a time until isolation holds on
        every shared instance, and finally round-robin any slack back.
        Deterministic; allocations never exceed a slice's demand. Raises
        BaselineOverloadError when isolation fails even at zero PRBs.

        Isolation is checked on the shared pool heads alone (``index ==
        0``, several owners): only a shared instance has an isolation
        check, and a head decides for its pool (see _owned_by). The live
        instances are projected at the first split. If no shared head
        breaks there, that split is final: untrimmed, either every slice
        has its demand or the budget is spent, so there is no slack to
        hand back. Otherwise the trim and slack loops run on the heads
        alone and the final split is projected. The final projection is
        handed to the next observe_utilization, which uses it only if no
        lifecycle operation changed state in between (the generation is
        unchanged)."""
        if type(total_prbs) is not int or total_prbs < 0:
            raise ValueError(f"total_prbs must be an int >= 0, got {total_prbs!r}")
        slices = self._slices
        demand = {s: self.subnets[s].demand_prbs() for s in slices}
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

        lay = self._laid_out()
        projected = self._project(alloc, lay.instances)
        if any(self._limit(projected[j], vnic=False) is not None for j in lay.heads):
            heads = [lay.instances[j] for j in lay.heads]
            while (broken := self._first_break(heads, alloc)) is not None:
                reducible = [s for s in slices if alloc[s] > 0]
                if not reducible:
                    raise BaselineOverloadError(
                        f"{broken.instance_id}: isolation fails with no PRBs allocated; slice "
                        f"baselines sum to {broken.consumption:.4f} vCPU against capacity "
                        f"{broken.capacity:.4f}, per-slice cap {self._budget.per_slice_cap:g}")
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
                    if self._first_break(heads, trial) is None:
                        alloc = trial
                        changed = True
            projected = self._project(alloc, lay.instances)

        for s in slices:
            self.subnets[s].allocated_prbs = alloc[s]
        self._handoff = (self._generation, projected)
        return alloc

    # -- scaling ------------------------------------------------------------------

    def _unit(self, target: ScaleTarget, snssai: Snssai | None) -> _UnitRecord:
        """The record of the unit ``(target, snssai)``, made when first met
        and kept for the orchestrator's life."""
        rec = self._unit_recs.get((target, snssai))
        if rec is None:
            caps: dict[str, int] = {}
            if target is ScaleTarget.SHARED_DU:
                holder, attr = self.aux, "current_il"
                levels = [il.id for il in self.ds.aux_nsds[self.aux.aux_nsd_ref].ils]
            elif target is ScaleTarget.DU:
                holder, attr = self.subnets[snssai], "du_sl"
                levels = self._nsd(snssai).sa_du.sl_ids()
            else:
                holder, attr, nsd = self.subnets[snssai], "cu_sl", self._nsd(snssai)
                levels = nsd.sa_cu.sl_ids()
                caps = {sl: self._cu_capacity_of(nsd, sl) for sl in levels}
            rec = self._unit_recs[(target, snssai)] = _UnitRecord(
                target, snssai, holder, attr, levels, caps,
                deque(maxlen=max(self._thresholds.window, 1)))
        return rec

    def _step(self, rec: _UnitRecord, direction: Direction) -> tuple[str, str | None]:
        """The unit's current level and the adjacent one in ``direction``
        (None at a boundary)."""
        current = getattr(rec.holder, rec.attr)
        j = rec.levels.index(current) + (1 if direction is Direction.UP else -1)
        return current, (rec.levels[j] if 0 <= j < len(rec.levels) else None)

    def _target_il(self, rec: _UnitRecord, level: str):
        """The IL that puts the unit at ``level``: the auxiliary IL for the
        shared pool, else the subnet's declared IL for its new (cu_sl,
        du_sl) pair, None if it declares none."""
        if rec.target is ScaleTarget.SHARED_DU:
            return self.ds.aux_nsds[self.aux.aux_nsd_ref].il(level)
        subnet = rec.holder
        pair = (level, subnet.du_sl) if rec.target is ScaleTarget.CU else (subnet.cu_sl, level)
        return self._nsd(rec.snssai).find_il(*pair)

    def scale(self, target: ScaleTarget, direction: Direction,
              snssai: Snssai | None = None) -> list[ScalingEvent]:
        """Move one scaling unit one level in ``direction`` and return the
        events, the unit's own first, each with the cause ``direction``
        gives: a load increase up, a load decrease down.

        CU and DU (a dedicated pool) scale the subnet ``snssai``: its
        other level stays and its current IL becomes the declared IL for
        the new pair. SHARED_DU, given no ``snssai``, scales the shared
        pool exactly once, on the auxiliary service; every referencing
        subnet then follows with a SUBNET_IL event (see _follow_aux). Any
        other unit that is not live raises: a slice that is not
        instantiated (UnknownSnssaiError, with SHARED_DU too), SHARED_DU
        given a slice, a shared DU without an auxiliary service, a DU
        under a shared DU and SUBNET_IL. So does a ``direction`` that is
        not a Direction."""
        if not isinstance(direction, Direction):
            raise OrchestrationError(f"direction must be a Direction, got {direction!r}")
        shared = target is ScaleTarget.SHARED_DU
        if snssai not in self.subnets and not (shared and snssai is None):
            raise UnknownSnssaiError(f"subnet {snssai} not instantiated")
        rec = next((r for r in self._laid_out().units
                    if r.target is target and r.snssai == snssai), None)
        if rec is None:
            whose = "" if snssai is None else f" for {snssai}"
            raise OrchestrationError(f"no live {target.value} unit{whose} under scenario "
                                     f"{getattr(self.scenario, 'value', self.scenario)}")
        current, level = self._step(rec, direction)
        who = "auxiliary service" if snssai is None else f"{target.value} of {snssai}"
        if level is None:
            raise AtBoundaryError(f"{who} has no level {direction.value} from {current!r}")
        il = self._target_il(rec, level)
        if il is None:
            raise NoMatchingIlError(
                f"gnb_nsd[{rec.holder.nsd_ref}] declares no IL putting {who} at {level!r}")
        cause = (ScalingCause.LOAD_INCREASE if direction is Direction.UP
                 else ScalingCause.LOAD_DECREASE)
        events = [ScalingEvent(time=self.clock, target=target, snssai=snssai,
                               from_level=current, to_level=level, cause=cause)]
        if shared:
            self.aux.current_il = level
            events += filter(None, (self._follow_aux(s, cause) for s in self._slices))
        else:
            rec.holder.cu_sl, rec.holder.du_sl, rec.holder.current_il = il.cu_sl, il.du_sl, il.id
        self._relayout()
        self.events.extend(events)
        return events

    def _follow_aux(self, s: Snssai, cause: ScalingCause) -> ScalingEvent | None:
        """Point subnet ``s`` at an IL whose DU level equals the auxiliary
        IL, its CU level re-selected to cover the demand its CU carries:
        its own, or every subnet's under a shared CU, whose isolation then
        holds at any allocation within demand: a level covers it if it
        holds the total and, shared by several slices, each slice within
        its cap (the cap 1 for one). A subnet with no usable IL keeps its
        previous view and an InconsistentIl finding is recorded. A subnet
        already at the chosen IL gets no event."""
        subnet = self.subnets[s]
        nsd = self._nsd(s)
        new_du_sl = self.aux.current_il
        loaded = self._slices if self.scenario.cu_shared else [s]
        uses = {t: cu_vcpu_consumption(SliceLoad(t, self.subnets[t].demand_prbs(),
                                                 *self.subnets[t].mcs()), self._params)
                for t in loaded}
        cap = self._budget.per_slice_cap if len(uses) > 1 else 1.0
        covering = [sl.id for sl in nsd.sa_cu.sls if check_isolation(
            uses, CapacityBudget(self._cu_capacity_of(nsd, sl.id), cap)).ok]
        chosen = nsd.find_il(covering[0] if covering else nsd.sa_cu.sls[-1].id, new_du_sl)
        if chosen is None:
            candidates = [il for il in nsd.ils if il.du_sl == new_du_sl and il.cu_sl in covering]
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

    # -- policy-driven scaling ----------------------------------------------------

    def observe_utilization(self) -> list[Instance]:
        """Project utilization at the current allocations, append one
        sample per scaling unit to its history, and return the snapshot.
        A CU's sample is its slice's consumption over the subnet's own CU
        level; a DU pool's is the pool's consumption over its capacity.
        Reuses the projection allocate_prbs handed over when no lifecycle
        operation ran since; the hand-off is used at most once."""
        handoff, self._handoff = self._handoff, None
        if handoff is not None and handoff[0] == self._generation:
            insts = self._checked = handoff[1]
        else:
            insts = self._project(self._allocated_map())
            self._checked = None
        for hist, cu_of, at, capacity in self._laid_out().observed:
            if cu_of is not None:
                hist.append(insts[at].per_slice[cu_of] / capacity)
            else:
                hist.append(sum([insts[j].consumption for j in at]) / capacity)
        return insts

    def isolation_violations(self, snapshot: Sequence[Instance]) -> int:
        """How many instances of ``snapshot`` break isolation, which only a
        shared one has; 0 unchecked for the hand-off projection, which
        allocate_prbs has checked."""
        if snapshot is self._checked:
            return 0
        return sum(self._limit(inst, vnic=False) is not None
                   for inst in snapshot if inst.shared)

    def _down_feasible(self, rec: _UnitRecord, level: str) -> bool:
        """Whether the unit's own instances, projected at the current
        allocations with the unit at ``level``, stay within capacity,
        isolation and (DU pools only) the vNIC limits. Checked on the
        head of the unit's own instances alone (see _owned_by)."""
        over, pools = self._build_instances({(rec.target, rec.snssai): level})
        [head] = self._project(self._allocated_map(), insts=[over[_own(rec, pools)[0]]])
        return not ((not head.shared and head.consumption > head.capacity)
                    or self._limit(head, vnic=rec.target is not ScaleTarget.CU) is not None)

    def apply_scaling_policies(self) -> list[ScalingEvent]:
        """Evaluate the threshold policy per scaling unit and apply the
        resulting scalings. A step is possible only to a level with a
        declared IL; a scale-down that would break a limit at the current
        allocations is suppressed, so admitted DRBs are never evicted."""
        events: list[ScalingEvent] = []
        for rec in self._laid_out().units:
            if not rec.hist:
                continue
            decision = evaluate_scaling_policy(rec.hist, self._thresholds,
                                               last_event=rec.last, now=self.clock)
            if decision is None:
                continue
            level = self._step(rec, decision)[1]
            if (level is None or self._target_il(rec, level) is None
                    or (decision is Direction.DOWN and not self._down_feasible(rec, level))):
                continue
            events += self.scale(rec.target, decision, rec.snssai)
            rec.last = (self.clock, decision)
        return events

    # -- accounting ----------------------------------------------------------------

    def live_vm_count(self) -> int:
        """Live VMs: one per live CU or DU instance."""
        return len(self.instances())

    def advance_clock(self) -> None:
        self.clock += 1
