"""Concrete CU/DU/RU instance graphs for the four component-sharing
scenarios.

Sharing semantics with K slice subnets and n DUs per gNB:

* s1: CU and DUs specific to each subnet (K CUs, K*n DUs).
* s2: entire gNB shared (1 CU, n DUs).
* s3: CU shared, DUs per subnet (1 CU, K*n DUs); the shared CU keeps a
  matching table from S-NSSAI to the subnet's DU identifiers.
* s4: DUs shared, CU per subnet (K CUs, n DUs); the shared DUs keep a
  matching table from CU identifier to S-NSSAI.

RUs are physical and shared in every scenario. Graphs are immutable, so
concurrent readers are safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from .descriptors import DescriptorSet, Snssai
from .errors import RansliceError


class Scenario(enum.Enum):
    S1_DEDICATED = "s1"
    S2_ALL_SHARED = "s2"
    S3_CU_SHARED = "s3"
    S4_DU_SHARED = "s4"

    @classmethod
    def from_str(cls, raw: str) -> "Scenario":
        for member in cls:
            if member.value == raw.lower():
                return member
        raise ValueError(f"unknown scenario {raw!r} (expected s1, s2, s3 or s4)")

    @property
    def cu_shared(self) -> bool:
        return self in (Scenario.S2_ALL_SHARED, Scenario.S3_CU_SHARED)

    @property
    def du_shared(self) -> bool:
        return self in (Scenario.S2_ALL_SHARED, Scenario.S4_DU_SHARED)


class SliceAwareness(enum.Enum):
    """gNB functions that must identify the slice a DRB belongs to."""

    INTRA_SLICE_RRM_DU = "intra_slice_rrm_du"
    INTRA_SLICE_RRM_CU = "intra_slice_rrm_cu"
    RRC_LAYER = "rrc_layer"


class TopologyError(RansliceError):
    pass


class NoSlicesError(TopologyError):
    pass


@dataclass(frozen=True)
class DrbQos:
    throughput_mbps: float
    latency_ms: float
    reliability: float

    def __post_init__(self):
        if self.throughput_mbps <= 0 or self.latency_ms <= 0:
            raise ValueError("throughput and latency must be positive")
        if not 0 < self.reliability <= 1:
            raise ValueError("reliability must be in (0, 1]")


@dataclass(frozen=True)
class Drb:
    """A data radio bearer of one slice subnet."""

    drb_id: str
    snssai: Snssai
    qos: DrbQos


@dataclass(frozen=True)
class NodeInstance:
    instance_id: str
    owners: frozenset[Snssai]


@dataclass(frozen=True)
class InstanceGraph:
    scenario: Scenario
    cu_instances: tuple[NodeInstance, ...]
    du_instances: tuple[NodeInstance, ...]
    ru_units: tuple[str, ...]
    cu_to_dus: Mapping[str, tuple[str, ...]]
    du_to_rus: Mapping[str, tuple[str, ...]]
    # Matching tables, populated exactly in the scenario that needs them:
    # s3 gives the shared CU the DU pool of each slice, s4 gives the
    # shared DUs the slice owning each CU.
    snssai_to_du: Mapping[Snssai, tuple[str, ...]] = field(default_factory=dict)
    cu_to_snssai: Mapping[str, Snssai] = field(default_factory=dict)

    def slices(self) -> list[Snssai]:
        found: set[Snssai] = set()
        for cu in self.cu_instances:
            found |= cu.owners
        return sorted(found, key=lambda s: s.key())

    def total_vnf_instances(self) -> int:
        return len(self.cu_instances) + len(self.du_instances)


def shared_cu_id() -> str:
    return "cu-shared"


def shared_du_ids(count: int) -> list[str]:
    return [f"du-shared-{i + 1}" for i in range(count)]


def dedicated_du_ids(snssai: Snssai, count: int) -> list[str]:
    return [f"du-{snssai.key()}-{i + 1}" for i in range(count)]


def build_instance_graph(ds: DescriptorSet, scenario: Scenario,
                         n_dus_per_gnb: int) -> InstanceGraph:
    """Instantiate the CU/DU/RU graph of one gNB deployment for the given
    sharing scenario. Slice order (and all ids) are deterministic."""
    if n_dus_per_gnb < 1:
        raise ValueError("n_dus_per_gnb must be >= 1")
    snssais = ds.snssais()
    if not snssais:
        raise NoSlicesError("descriptor set declares no slice subnet")
    all_owners = frozenset(snssais)

    cu_ids_by_slice: dict[Snssai, str] = {}
    for s in snssais:
        nsst = ds.nsst_for(s)
        nsd = ds.gnb_nsd_for(nsst) if nsst else None
        cu_ids_by_slice[s] = nsd.cu_id if nsd is not None else f"cu-{s.key()}"

    if scenario.cu_shared:
        cu_instances = (NodeInstance(shared_cu_id(), all_owners),)
    else:
        cu_instances = tuple(NodeInstance(cu_ids_by_slice[s], frozenset({s}))
                             for s in snssais)

    snssai_to_du: dict[Snssai, tuple[str, ...]] = {}
    if scenario.du_shared:
        pool = tuple(shared_du_ids(n_dus_per_gnb))
        du_instances = tuple(NodeInstance(du, all_owners) for du in pool)
        du_pools = {s: pool for s in snssais}
    else:
        du_instances_list: list[NodeInstance] = []
        du_pools = {}
        for s in snssais:
            pool = tuple(dedicated_du_ids(s, n_dus_per_gnb))
            du_pools[s] = pool
            du_instances_list.extend(NodeInstance(du, frozenset({s})) for du in pool)
        du_instances = tuple(du_instances_list)
        if scenario is Scenario.S3_CU_SHARED:
            snssai_to_du = {s: du_pools[s] for s in snssais}

    cu_to_snssai: dict[str, Snssai] = {}
    if scenario is Scenario.S4_DU_SHARED:
        cu_to_snssai = {cu_ids_by_slice[s]: s for s in snssais}

    ru_units: list[str] = []
    for s in snssais:
        nsst = ds.nsst_for(s)
        nsd = ds.gnb_nsd_for(nsst) if nsst else None
        for ref in (nsd.ru_pnfd_refs if nsd else ()):
            if ref not in ru_units:
                ru_units.append(ref)

    cu_to_dus: dict[str, tuple[str, ...]] = {}
    for cu in cu_instances:
        reachable: list[str] = []
        for du in du_instances:
            if cu.owners & du.owners:
                reachable.append(du.instance_id)
        cu_to_dus[cu.instance_id] = tuple(reachable)
    du_to_rus = {du.instance_id: tuple(ru_units) for du in du_instances}

    return InstanceGraph(
        scenario=scenario,
        cu_instances=cu_instances,
        du_instances=du_instances,
        ru_units=tuple(ru_units),
        cu_to_dus=cu_to_dus,
        du_to_rus=du_to_rus,
        snssai_to_du=snssai_to_du,
        cu_to_snssai=cu_to_snssai,
    )


def slice_awareness_required(scenario: Scenario) -> frozenset[SliceAwareness]:
    """Which gNB functions must become slice-aware under each scenario.
    Dedicated components stay slice-agnostic; a shared DU forces the
    time-sensitive DU-side RRM to be slice-aware, a shared CU forces the
    CU-side RRM and the RRC layer."""
    flags: set[SliceAwareness] = set()
    if scenario.du_shared:
        flags.add(SliceAwareness.INTRA_SLICE_RRM_DU)
    if scenario.cu_shared:
        flags.add(SliceAwareness.INTRA_SLICE_RRM_CU)
        flags.add(SliceAwareness.RRC_LAYER)
    return frozenset(flags)
