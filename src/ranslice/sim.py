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
from json.encoder import encode_basestring_ascii as _str
from typing import Any, Sequence

# perfbench/tracing.py patches validate
from .descriptors import DescriptorSet, Snssai, parse_snssai, validate
from .descriptors.parse import closed
from .errors import RansliceError
from .orchestrator import (
    Instance,
    Orchestrator,
    ScalingEvent,
    ScalingThresholds,
)
from .resources import (
    CapacityBudget,
    MODULATION_ORDERS,
    ResourceModelParams,
    check_isolation,  # unused here; perfbench/tracing.py patches this name
    estimate_prbs,
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


@closed
@dataclass(frozen=True)
class McsAtom:
    modulation_order: int
    code_rate: float
    p: float = 1.0

    def __post_init__(self):
        if self.modulation_order not in MODULATION_ORDERS:
            raise ValueError(f"modulation_order must be one of {MODULATION_ORDERS}")
        if not 0 < self.code_rate <= 1:
            raise ValueError("code_rate must be in (0, 1]")
        if not self.p >= 0:  # NaN fails too
            raise ValueError("probability must be >= 0")


@closed
@dataclass(frozen=True)
class DemandProfile:
    """Demand of one slice subnet: Poisson DRB arrivals per tick with a
    shared QoS template, geometric holding times, and an MCS distribution
    sampled per DRB. ``initial_drbs`` arrive at tick 0 (before the random
    arrivals), which with a zero rate and infinite holding gives a
    constant-demand run."""

    snssai: Snssai = field(metadata={"parse": parse_snssai})
    drb_arrival_rate: float
    qos: DrbQos
    mean_holding: float = field(metadata={"inf": True})
    mcs_distribution: tuple[McsAtom, ...] = field(metadata={"key": "mcs", "nonempty": True})
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


@closed
@dataclass(frozen=True)
class SimConfig:
    """One simulation run, as its config file states it; the metadata
    gives the file's own key or section where it differs from the field."""

    ticks: int
    total_prbs: int
    budget: CapacityBudget = field(default_factory=CapacityBudget)
    params: ResourceModelParams = field(default_factory=ResourceModelParams,
                                        metadata={"key": "resource"})
    thresholds: ScalingThresholds = field(default_factory=ScalingThresholds,
                                          metadata={"key": "scaling"})
    profiles: tuple[DemandProfile, ...] = field(default=(), metadata={"nonempty": True})
    scenario: Scenario | None = None
    vnic_delay_cap_ms: float = field(default=2.0, metadata={"section": "admission", "inf": True})
    seed: int | None = None

    def __post_init__(self):
        for name in ("ticks", "total_prbs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(name, f"expected an integer, got {value!r}")
        if self.ticks < 1:
            raise ConfigError("ticks", f"must be >= 1, got {self.ticks}")
        if self.total_prbs < 0:
            raise ConfigError("total_prbs", f"must be >= 0, got {self.total_prbs}")
        if not self.vnic_delay_cap_ms > 0:  # NaN fails too
            raise ConfigError("vnic_delay_cap_ms", "must be > 0")
        seen: set[Snssai] = set()
        for i, profile in enumerate(self.profiles):
            if profile.snssai in seen:
                raise ConfigError(f"profiles[{i}]",
                                  f"duplicate profile for slice {profile.snssai}")
            seen.add(profile.snssai)


@dataclass(slots=True)
class SliceRow:
    snssai: Snssai
    prbs: int
    du_util: float
    cu_util: float
    vnic_wait_s: float
    arrived: int
    admitted: int
    rejected: int


@dataclass(slots=True)
class TickRow:
    """One tick of a run. ``layout`` is the instance tuple
    ``Orchestrator.instances()`` returned at observation, before the
    tick's scalings: the same object on every row until a relayout, so
    rows share it. ``consumptions`` holds each instance's vCPU
    consumption that tick, in layout order. Rows of one run with equal
    slice values share one ``slices`` tuple, its SliceRows included, and
    rows of one layout with equal consumptions share one
    ``consumptions`` tuple (see run); the exporters render each shared
    object once."""

    tick: int
    slices: tuple[SliceRow, ...]
    layout: tuple[Instance, ...]
    consumptions: tuple[float, ...]
    events: tuple[ScalingEvent, ...]
    vm_count: int
    isolation_violations: int


# SimTrace.to_json indents a tick's fields by _TICK_PAD and an instance's
# or a slice's fields by _ENTRY_PAD.
_TICK_PAD = " " * 6
_ENTRY_PAD = " " * 10
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _block(value: Any, pad: str) -> str:
    """``value`` as indented, key-sorted JSON for a line indented by ``pad``."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _value(value: Any, pad: str = _ENTRY_PAD) -> str:
    """The JSON text of ``value`` for a line indented by ``pad``."""
    t = type(value)
    if t is float:
        text = repr(value)
        return _NONFINITE.get(text, text)
    if t is int:
        return repr(value)
    if t is str:
        return _str(value)
    return _block(value, pad)


def _object(members: list[str]) -> str:
    """A tick's instance or slice mapping, from its members' texts."""
    return "{" + ",".join(members) + "\n      }" if members else "{}"


def _layout_template(layout: Sequence[Instance]) -> tuple[str, tuple[int, ...]]:
    """A layout's instance mapping as a %-format template with one ``%s``
    per instance for its consumption, and the layout positions that fill
    them in turn: ids sorted, a duplicate id keeping its last entry."""
    last = {inst.instance_id: j for j, inst in enumerate(layout)}
    order = tuple(last[k] for k in sorted(last))
    members = []
    for j in order:
        inst = layout[j]
        head = (f'\n        {_str(inst.instance_id)}: {{'
                f'\n          "capacity": {_value(inst.capacity)},'
                '\n          "consumption": ')
        tail = f',\n          "kind": {_value(inst.kind)}\n        }}'
        members.append(head.replace("%", "%%") + "%s" + tail.replace("%", "%%"))
    return _object(members), order


def _slices_block(slices: Sequence[SliceRow]) -> str:
    """A tick's slice mapping for SimTrace.to_json: keys sorted, a
    duplicate key keeping its last entry."""
    by_key = {sr.snssai.key(): sr for sr in slices}
    members = []
    for k, sr in sorted(by_key.items()):
        admitted, arrived, prbs, rejected = sr.admitted, sr.arrived, sr.prbs, sr.rejected
        cu, du, wait = sr.cu_util, sr.du_util, sr.vnic_wait_s * 1e3
        members.append(
            f'\n        {_str(k)}: {{'
            f'\n          "admitted": '
            f'{admitted if type(admitted) is int else _value(admitted)},'
            f'\n          "arrived": {arrived if type(arrived) is int else _value(arrived)},'
            f'\n          "cu_util": '
            f'{cu if type(cu) is float and cu - cu == 0 else _value(cu)},'
            f'\n          "du_util": '
            f'{du if type(du) is float and du - du == 0 else _value(du)},'
            f'\n          "prbs": {prbs if type(prbs) is int else _value(prbs)},'
            f'\n          "rejected": '
            f'{rejected if type(rejected) is int else _value(rejected)},'
            f'\n          "vnic_wait_ms": '
            f'{wait if type(wait) is float and wait - wait == 0 else _value(wait)}'
            '\n        }')
    return _object(members)


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
                            "consumption": consumption,
                            "capacity": inst.capacity,
                        }
                        for inst, consumption in zip(row.layout, row.consumptions)
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

    def to_json(self) -> str:
        """The trace as ``json.dumps(self.to_json_obj(), indent=2,
        sort_keys=True)`` would write it, byte for byte, but written
        straight from ``rows``: the fixed keys of a tick, an instance and
        a slice are literals in sorted order. Instance ids and slice keys
        are strings, sorted per tick; as in ``to_json_obj``, a duplicate
        keeps its last entry. Each distinct layout is rendered once (see
        _layout_template), each distinct consumptions tuple of a layout
        is spliced into it once, and each distinct slices tuple is
        rendered once (_slices_block): the caches are keyed on object
        identity, which the rows keep alive for the call. Exact ints and
        finite floats are written inline with their repr, which is json's
        text for them; anything else goes through _value."""
        out = ['{\n  "findings": ', _block(list(self.findings), "  "),
               ',\n  "scenario": ', _value(self.scenario.value, "  "),
               ',\n  "ticks": ']
        # Per layout id: its template, its fill order and the instance
        # blocks rendered so far, by consumptions id.
        layouts: dict[int, tuple[str, tuple[int, ...], dict[int, str]]] = {}
        slice_blocks: dict[int, str] = {}
        sep = "["
        for row in self.rows:
            events = ("[" + ",".join("\n        " + _str(str(e)) for e in row.events)
                      + "\n      ]") if row.events else "[]"
            layout = row.layout
            rendered = layouts.get(id(layout))
            if rendered is None:
                rendered = layouts[id(layout)] = (*_layout_template(layout), {})
            template, order, blocks = rendered
            cons = row.consumptions
            insts = blocks.get(id(cons))
            if insts is None:
                # x - x == 0 holds for a finite float alone.
                insts = blocks[id(cons)] = template % tuple([
                    repr(c) if type(c) is float and c - c == 0 else _value(c)
                    for c in [cons[j] for j in order]])
            slices = slice_blocks.get(id(row.slices))
            if slices is None:
                slices = slice_blocks[id(row.slices)] = _slices_block(row.slices)
            tick, vms, violations = row.tick, row.vm_count, row.isolation_violations
            # The shared blocks go into out as they are, copied once by the
            # final join.
            out += (
                f'{sep}\n    {{\n      "events": {events},\n      "instances": ',
                insts,
                ',\n      "isolation_violations": '
                f'{violations if type(violations) is int else _value(violations, _TICK_PAD)},'
                '\n      "slices": ',
                slices,
                f',\n      "tick": {tick if type(tick) is int else _value(tick, _TICK_PAD)},'
                f'\n      "vm_count": {vms if type(vms) is int else _value(vms, _TICK_PAD)}'
                '\n    }')
            sep = ","
        out += ["\n  ]" if self.rows else "[]",
                ',\n  "topology": ', _block(self.topology, "  "),
                ',\n  "total_prbs": ', _value(self.total_prbs, "  "), "\n}"]
        return "".join(out)

    def to_csv(self) -> str:
        """One line per tick and slice. Each SliceRow's cells are
        formatted once per call, keyed on its identity, which the rows
        keep alive for the call."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_TRACE_HEADER)
        cells: dict[int, tuple] = {}
        for row in self.rows:
            for sr in row.slices:
                own = cells.get(id(sr))
                if own is None:
                    own = cells[id(sr)] = (
                        sr.snssai.key(), sr.prbs,
                        f"{sr.du_util:.6f}", f"{sr.cu_util:.6f}",
                        f"{sr.vnic_wait_s * 1e3:.6f}",
                        sr.admitted, sr.rejected)
                events = ";".join(
                    str(e) for e in row.events
                    if e.snssai is None or e.snssai == sr.snssai) if row.events else ""
                writer.writerow((row.tick, *own, row.vm_count, events))
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

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
    for i, profile in enumerate(config.profiles):
        sp = ds.nsst_for(profile.snssai).slice_profile
        for j, atom in enumerate(profile.mcs_distribution):
            try:
                estimate_prbs(profile.qos.throughput_mbps, atom.modulation_order,
                              atom.code_rate, sp.numerology_index, sp.dl_ul_symbol_ratio)
            except ValueError as exc:
                raise ConfigError(f"profiles[{i}].mcs[{j}]", str(exc)) from exc
    return by_snssai


def _safe_wait(prbs: int, params: ResourceModelParams) -> float:
    try:
        return vnic_mean_wait(prbs, params)
    except VnicSaturatedError:
        return math.inf


def run(config: SimConfig, ds: DescriptorSet) -> SimTrace:
    """Drive the orchestrator for ``config.ticks`` ticks and record the
    trace. Deterministic for identical (config, ds)."""
    # Validates the descriptors (a finding beats a config error); stores the scenario unread.
    orch = Orchestrator(ds, config.scenario, config.params, config.budget,
                        config.thresholds, config.vnic_delay_cap_ms * 1e-3)
    if config.scenario is None:
        raise ConfigError("scenario", "no scenario selected")
    profiles = _check_profiles(config, ds)
    slices = ds.snssais()
    for s in slices:
        orch.instantiate_subnet(s)

    trace = SimTrace(scenario=config.scenario, total_prbs=config.total_prbs,
                     topology=build_instance_graph(ds, orch.instances()))

    # Each slice's profile and its own seeded stream, in slice order.
    draws = [(s, profiles[s], random.Random(f"{config.seed}:{profiles[s].seed}:{s.key()}"))
             for s in slices]
    departures: dict[int, list[tuple[Snssai, str]]] = {}
    waits: dict[int, float] = {}    # a DU-pool head's vNIC wait per PRB count
    shared_slices: dict[tuple, tuple[SliceRow, ...]] = {}   # by values, per run
    shared_cons: dict[tuple[float, ...], tuple[float, ...]] = {}   # per layout
    layout = None

    for tick in range(config.ticks):
        for snssai, drb_id in departures.pop(tick, []):
            orch.depart_drb(snssai, drb_id)

        counts = []                 # per slice: (arrived, admitted)
        for s, profile, rng in draws:
            n = _poisson(rng, profile.drb_arrival_rate)
            if tick == 0:
                n += profile.initial_drbs
            admitted = 0
            for i in range(n):
                atom = _sample_mcs(rng, profile.mcs_distribution)
                holding = _holding_ticks(rng, profile.mean_holding)
                drb = Drb(drb_id=f"{s.key()}:{tick}:{i}", snssai=s, qos=profile.qos)
                if orch.admit_drb(s, drb, atom.modulation_order, atom.code_rate).admitted:
                    admitted += 1
                    if holding is not None:
                        departures.setdefault(tick + holding, []).append((s, drb.drb_id))
            counts.append((n, admitted))

        alloc = orch.allocate_prbs(config.total_prbs)
        snapshot = orch.observe_utilization()
        # The instances the snapshot projects and where each slice's DU-pool
        # head and CU sit in them, read before a scaling replaces the layout.
        # A head's utilization and vNIC wait are its pool's maxima (see
        # Orchestrator._owned_by).
        if orch.instances() is not layout:
            layout, pools = orch.instances(), orch.pools()
            places = [(s, pools[s][0][0], pools[s][1]) for s in slices]
            shared_cons = {}
        events = orch.apply_scaling_policies()
        violations = orch.isolation_violations(snapshot)

        values = []     # six per slice, in slice order
        for (s, du, cu), (n, admitted) in zip(places, counts):
            head = snapshot[du]
            if head.prbs not in waits:
                waits[head.prbs] = _safe_wait(head.prbs, config.params)
            values += (alloc[s], head.utilization, snapshot[cu].utilization,
                       waits[head.prbs], n, admitted)
        # Rows with equal values share one object, so the exporters render
        # it once. Here equal values mean equal text: each field always has
        # one type (exact ints, floats), and no float written is -0.0, the
        # one float equal to another of different text (a NaN is equal
        # only to itself, the same object). c0 >= 0, every load adds a
        # non-negative term to it and a consumption sums from 0, so loads
        # and utilizations are >= +0.0; a vNIC wait is 1/(mu - lam) - 1/mu,
        # +0.0 at 0 PRBs (x - x) and positive above. For arbitrary rows,
        # keying on value would not be exact, so this lives here and not
        # in the writers. The slice order is the run's, so the key is one
        # flat tuple of numbers: a row that never repeats keeps that one
        # tuple alive besides its SliceRows.
        key = tuple(values)
        slice_rows = shared_slices.get(key)
        if slice_rows is None:
            rows, i = [], 0
            for s in slices:
                prbs, du_util, cu_util, wait, n, admitted = key[i:i + 6]
                rows.append(SliceRow(s, prbs, du_util, cu_util, wait, n, admitted, n - admitted))
                i += 6
            slice_rows = shared_slices[key] = tuple(rows)
        cons = tuple([i.consumption for i in snapshot])
        trace.rows.append(TickRow(
            tick=tick,
            slices=slice_rows,
            layout=layout,
            consumptions=shared_cons.setdefault(cons, cons),
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
        total_vcpu_ticks=sum(c for row in trace.rows for c in row.consumptions),
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


# Characters per write in export.
_WRITE_CHARS = 1 << 16


def export(obj: SimTrace | SummaryTable, format: str, path: str) -> None:
    """Write a trace or summary table to ``path``. Output is bit-stable
    for identical inputs; CSV column order is fixed (see CSV_* headers)."""
    if format == "csv":
        text, end = obj.to_csv(), ""
    elif format == "json":
        text, end = obj.to_json(), "\n"
    else:
        raise ConfigError("format", f"unknown export format {format!r}")
    # Written in slices and the newline on its own: appending it, or
    # encoding the whole text at once, would copy the text.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for i in range(0, len(text), _WRITE_CHARS):
            fh.write(text[i:i + _WRITE_CHARS])
        fh.write(end)
