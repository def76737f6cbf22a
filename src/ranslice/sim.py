"""Time-stepped simulation harness.

One tick is one coarse-time-scale RRM period. Within a tick the order is
fixed: departures, arrivals + admission, PRB allocation, utilization
observation, policy-driven scalings, trace row. All randomness comes
from per-profile seeded streams (arrival counts, per-DRB MCS and holding
time are drawn unconditionally at arrival), so identical inputs yield
identical traces and exports, and the demand seen by every scenario in a
comparison is the same.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from .descriptors import DescriptorSet, Snssai, validate
from .errors import RansliceError
from .orchestrator import (
    DescriptorInvalidError,
    Orchestrator,
    ScalingEvent,
    ScalingThresholds,
)
from .resources import (
    CapacityBudget,
    MODULATION_ORDERS,
    ResourceModelParams,
    check_isolation,
    vnic_mean_wait,
    VnicSaturatedError,
)
from .topology import Drb, DrbQos, Scenario, build_instance_graph

CSV_TRACE_HEADER = ("tick", "slice", "prbs", "du_util", "cu_util", "vnic_wait_ms",
                    "admitted", "rejected", "vm_count", "event")
CSV_SUMMARY_HEADER = ("scenario", "ticks", "mean_vm_count", "total_vcpu_ticks",
                      "arrived", "admitted", "rejected", "rejection_rate",
                      "mean_vnic_wait_ms", "isolation_violations")


class ConfigError(RansliceError):
    """Malformed simulation configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class McsAtom:
    modulation_order: int
    code_rate: float
    p: float

    def __post_init__(self):
        if self.modulation_order not in MODULATION_ORDERS:
            raise ValueError(f"modulation_order must be one of {MODULATION_ORDERS}")
        if not 0 < self.code_rate <= 1:
            raise ValueError("code_rate must be in (0, 1]")
        if self.p < 0:
            raise ValueError("probability must be >= 0")


@dataclass(frozen=True)
class DemandProfile:
    """Demand of one slice subnet: Poisson DRB arrivals per tick with a
    shared QoS template, geometric holding times, and an MCS distribution
    sampled per DRB. ``initial_drbs`` arrive at tick 0 (before the random
    arrivals), which with a zero rate and infinite holding gives a
    constant-demand run."""

    snssai: Snssai
    drb_arrival_rate: float
    qos: DrbQos
    mean_holding: float
    mcs_distribution: tuple[McsAtom, ...]
    seed: int = 0
    initial_drbs: int = 0

    def __post_init__(self):
        if not 0 <= self.drb_arrival_rate <= 700:
            raise ValueError("drb_arrival_rate must be in [0, 700] DRBs/tick")
        if not (self.mean_holding >= 1):
            raise ValueError("mean_holding must be >= 1 tick (inf allowed)")
        if not self.mcs_distribution:
            raise ValueError("mcs_distribution must be non-empty")
        total = sum(a.p for a in self.mcs_distribution)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mcs_distribution probabilities sum to {total}, expected 1")
        if self.initial_drbs < 0:
            raise ValueError("initial_drbs must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    ticks: int
    total_prbs: int
    budget: CapacityBudget
    params: ResourceModelParams
    thresholds: ScalingThresholds
    profiles: tuple[DemandProfile, ...]
    scenario: Scenario | None = None
    vnic_delay_cap_ms: float = 2.0
    seed: int | None = None

    def __post_init__(self):
        if self.ticks < 1:
            raise ConfigError("ticks", f"must be >= 1, got {self.ticks}")
        if self.total_prbs < 0:
            raise ConfigError("total_prbs", f"must be >= 0, got {self.total_prbs}")
        if self.vnic_delay_cap_ms <= 0:
            raise ConfigError("vnic_delay_cap_ms", "must be > 0")
        seen: set[Snssai] = set()
        for i, profile in enumerate(self.profiles):
            if profile.snssai in seen:
                raise ConfigError(f"profiles[{i}]",
                                  f"duplicate profile for slice {profile.snssai}")
            seen.add(profile.snssai)


@dataclass(frozen=True)
class InstanceStat:
    instance_id: str
    kind: str
    consumption: float
    capacity: float

    @property
    def utilization(self) -> float:
        return self.consumption / self.capacity


@dataclass(frozen=True)
class SliceRow:
    snssai: Snssai
    prbs: int
    du_util: float
    cu_util: float
    vnic_wait_s: float
    arrived: int
    admitted: int
    rejected: int


@dataclass(frozen=True)
class TickRow:
    tick: int
    slices: tuple[SliceRow, ...]
    instances: tuple[InstanceStat, ...]
    events: tuple[ScalingEvent, ...]
    vm_count: int
    isolation_violations: int


@dataclass
class SimTrace:
    scenario: Scenario
    total_prbs: int
    rows: list[TickRow] = field(default_factory=list)
    topology: dict[str, Any] = field(default_factory=dict)
    findings: list[str] = field(default_factory=list)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.value,
            "total_prbs": self.total_prbs,
            "topology": self.topology,
            "findings": list(self.findings),
            "ticks": [
                {
                    "tick": row.tick,
                    "vm_count": row.vm_count,
                    "isolation_violations": row.isolation_violations,
                    "events": [str(e) for e in row.events],
                    "instances": {
                        inst.instance_id: {
                            "kind": inst.kind,
                            "consumption": inst.consumption,
                            "capacity": inst.capacity,
                        }
                        for inst in row.instances
                    },
                    "slices": {
                        sr.snssai.key(): {
                            "prbs": sr.prbs,
                            "du_util": sr.du_util,
                            "cu_util": sr.cu_util,
                            "vnic_wait_ms": sr.vnic_wait_s * 1e3,
                            "arrived": sr.arrived,
                            "admitted": sr.admitted,
                            "rejected": sr.rejected,
                        }
                        for sr in row.slices
                    },
                }
                for row in self.rows
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_TRACE_HEADER)
        for row in self.rows:
            for sr in row.slices:
                events = ";".join(
                    str(e) for e in row.events
                    if e.snssai is None or e.snssai == sr.snssai)
                writer.writerow([
                    row.tick, sr.snssai.key(), sr.prbs,
                    f"{sr.du_util:.6f}", f"{sr.cu_util:.6f}",
                    f"{sr.vnic_wait_s * 1e3:.6f}",
                    sr.admitted, sr.rejected, row.vm_count, events,
                ])
        return buf.getvalue()


@dataclass(frozen=True)
class ScenarioSummary:
    scenario: Scenario
    ticks: int
    mean_vm_count: float
    total_vcpu_ticks: float
    arrived: int
    admitted: int
    rejected: int
    rejection_rate: float
    mean_vnic_wait_s: float
    isolation_violations: int

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.value,
            "ticks": self.ticks,
            "mean_vm_count": self.mean_vm_count,
            "total_vcpu_ticks": self.total_vcpu_ticks,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejection_rate": self.rejection_rate,
            "mean_vnic_wait_ms": self.mean_vnic_wait_s * 1e3,
            "isolation_violations": self.isolation_violations,
        }


@dataclass
class SummaryTable:
    summaries: list[ScenarioSummary]

    def to_json_obj(self) -> list[dict[str, Any]]:
        return [s.to_json_obj() for s in self.summaries]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_SUMMARY_HEADER)
        for s in self.summaries:
            writer.writerow([
                s.scenario.value, s.ticks,
                f"{s.mean_vm_count:.6f}", f"{s.total_vcpu_ticks:.6f}",
                s.arrived, s.admitted, s.rejected,
                f"{s.rejection_rate:.6f}", f"{s.mean_vnic_wait_s * 1e3:.6f}",
                s.isolation_violations,
            ])
        return buf.getvalue()


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _holding_ticks(rng: random.Random, mean_holding: float) -> int | None:
    """Geometric holding with the given mean; None means never departs."""
    u = rng.random()
    if math.isinf(mean_holding):
        return None
    p = 1.0 / mean_holding
    if p >= 1.0:
        return 1
    if u == 0.0:
        return 1
    return 1 + int(math.log(1.0 - u) / math.log(1.0 - p))


def _sample_mcs(rng: random.Random, atoms: Sequence[McsAtom]) -> McsAtom:
    u = rng.random()
    acc = 0.0
    for atom in atoms:
        acc += atom.p
        if u < acc:
            return atom
    return atoms[-1]


def _check_profiles(config: SimConfig, ds: DescriptorSet) -> dict[Snssai, DemandProfile]:
    declared = set(ds.snssais())
    if not declared:
        raise ConfigError("profiles", "the descriptor set declares no slice subnet")
    by_snssai = {p.snssai: p for p in config.profiles}
    missing = declared - set(by_snssai)
    extra = set(by_snssai) - declared
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing profile for " + ", ".join(sorted(str(s) for s in missing)))
        if extra:
            parts.append("profile for undeclared slice " + ", ".join(sorted(str(s) for s in extra)))
        raise ConfigError("profiles", "; ".join(parts))
    return by_snssai


def _safe_wait(prbs: int, params: ResourceModelParams) -> float:
    try:
        return vnic_mean_wait(prbs, params)
    except VnicSaturatedError:
        return math.inf


def run(config: SimConfig, ds: DescriptorSet) -> SimTrace:
    """Drive the orchestrator for ``config.ticks`` ticks and record the
    trace. Deterministic for identical (config, ds)."""
    report = validate(ds)
    if not report.ok:
        raise DescriptorInvalidError(report)
    if config.scenario is None:
        raise ConfigError("scenario", "no scenario selected")
    profiles = _check_profiles(config, ds)

    orch = Orchestrator(ds, config.scenario, config.params, config.budget,
                        config.thresholds, config.vnic_delay_cap_ms * 1e-3)
    slices = ds.snssais()
    for s in slices:
        orch.instantiate_subnet(s)

    trace = SimTrace(scenario=config.scenario, total_prbs=config.total_prbs,
                     topology=build_instance_graph(ds, orch.instances()))

    rngs = {s: random.Random(f"{config.seed}:{profiles[s].seed}:{s.key()}")
            for s in slices}
    departures: dict[int, list[tuple[Snssai, str]]] = {}

    for tick in range(config.ticks):
        for snssai, drb_id in departures.pop(tick, []):
            orch.depart_drb(snssai, drb_id)

        admitted_count = {s: 0 for s in slices}
        rejected_count = {s: 0 for s in slices}
        arrived_count = {s: 0 for s in slices}
        for s in slices:
            profile = profiles[s]
            rng = rngs[s]
            n = _poisson(rng, profile.drb_arrival_rate)
            if tick == 0:
                n += profile.initial_drbs
            for i in range(n):
                atom = _sample_mcs(rng, profile.mcs_distribution)
                holding = _holding_ticks(rng, profile.mean_holding)
                drb = Drb(drb_id=f"{s.key()}:{tick}:{i}", snssai=s, qos=profile.qos)
                decision = orch.admit_drb(s, drb, atom.modulation_order, atom.code_rate)
                arrived_count[s] += 1
                if decision.admitted:
                    admitted_count[s] += 1
                    if holding is not None:
                        departures.setdefault(tick + holding, []).append((s, drb.drb_id))
                else:
                    rejected_count[s] += 1

        alloc = orch.allocate_prbs(config.total_prbs)
        snapshot = orch.observe_utilization()
        events = orch.apply_scaling_policies()

        violations = 0
        for inst in snapshot:
            if inst.shared:
                result = check_isolation(
                    inst.per_slice,
                    CapacityBudget(inst.capacity, config.budget.per_slice_cap))
                if not result.ok:
                    violations += 1

        slice_rows = []
        for s in slices:
            du_insts = [i for i in snapshot if i.kind == "du" and s in i.owners]
            cu_inst = next(i for i in snapshot if i.kind == "cu" and s in i.owners)
            slice_rows.append(SliceRow(
                snssai=s,
                prbs=alloc[s],
                du_util=max(i.utilization for i in du_insts),
                cu_util=cu_inst.utilization,
                vnic_wait_s=max(_safe_wait(i.prbs, config.params) for i in du_insts),
                arrived=arrived_count[s],
                admitted=admitted_count[s],
                rejected=rejected_count[s],
            ))

        trace.rows.append(TickRow(
            tick=tick,
            slices=tuple(slice_rows),
            instances=tuple(InstanceStat(i.instance_id, i.kind, i.consumption, i.capacity)
                            for i in snapshot),
            events=tuple(events),
            vm_count=orch.live_vm_count(),
            isolation_violations=violations,
        ))
        orch.advance_clock()

    trace.findings = list(orch.findings)
    return trace


def summarize(trace: SimTrace) -> ScenarioSummary:
    ticks = len(trace.rows)
    arrived = sum(sr.arrived for row in trace.rows for sr in row.slices)
    admitted = sum(sr.admitted for row in trace.rows for sr in row.slices)
    rejected = sum(sr.rejected for row in trace.rows for sr in row.slices)
    waits = [sr.vnic_wait_s for row in trace.rows for sr in row.slices]
    return ScenarioSummary(
        scenario=trace.scenario,
        ticks=ticks,
        mean_vm_count=sum(row.vm_count for row in trace.rows) / ticks,
        total_vcpu_ticks=sum(inst.consumption for row in trace.rows
                             for inst in row.instances),
        arrived=arrived,
        admitted=admitted,
        rejected=rejected,
        rejection_rate=(rejected / arrived) if arrived else 0.0,
        mean_vnic_wait_s=(sum(waits) / len(waits)) if waits else 0.0,
        isolation_violations=sum(row.isolation_violations for row in trace.rows),
    )


def compare_scenarios(config: SimConfig, ds: DescriptorSet,
                      scenarios: Sequence[Scenario]) -> SummaryTable:
    """Run every scenario against the same demand seed and summarize
    resource use, rejections and vNIC waiting per scenario."""
    if not scenarios:
        raise ConfigError("scenarios", "at least one scenario required")
    summaries = []
    for scenario in scenarios:
        trace = run(replace(config, scenario=scenario), ds)
        summaries.append(summarize(trace))
    return SummaryTable(summaries=summaries)


def export(obj: SimTrace | SummaryTable, format: str, path: str) -> None:
    """Write a trace or summary table to ``path``. Output is bit-stable
    for identical inputs; CSV column order is fixed (see CSV_* headers)."""
    if format == "csv":
        text = obj.to_csv()
    elif format == "json":
        text = json.dumps(obj.to_json_obj(), indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError("format", f"unknown export format {format!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
