"""The four component-sharing scenarios, DRBs, instance ids and the
exported topology of a deployment's live instances.

Sharing semantics with K slice subnets and n DUs per gNB:

* s1: CU and DUs specific to each subnet (K CUs, K*n DUs).
* s2: entire gNB shared (1 CU, n DUs).
* s3: CU shared, DUs per subnet (1 CU, K*n DUs); the shared CU keeps a
  matching table from S-NSSAI to the subnet's DU identifiers.
* s4: DUs shared, CU per subnet (K CUs, n DUs); the shared DUs keep a
  matching table from CU identifier to S-NSSAI.

RUs are physical and shared in every scenario.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from .descriptors import DescriptorSet, Snssai

if TYPE_CHECKING:
    from .orchestrator import Instance


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


def shared_cu_id() -> str:
    return "cu-shared"


def shared_du_ids(count: int) -> list[str]:
    return [f"du-shared-{i + 1}" for i in range(count)]


def dedicated_du_ids(snssai: Snssai, count: int) -> list[str]:
    return [f"du-{snssai.key()}-{i + 1}" for i in range(count)]


def build_instance_graph(ds: DescriptorSet, instances: Sequence[Instance]) -> dict[str, Any]:
    """The exported topology of a deployment's live instances (see
    ``Orchestrator.instances``): CU and DU ids in instance order, the RU
    units of every served slice, and the matching tables. A CU serving
    several slices over dedicated DUs (s3) maps each S-NSSAI to its DU
    pool; DUs serving several slices behind dedicated CUs (s4) map each
    CU id to its S-NSSAI. A single-slice deployment needs neither."""
    cus = [i for i in instances if i.kind == "cu"]
    dus = [i for i in instances if i.kind == "du"]
    snssais = sorted({s for cu in cus for s in cu.owners}, key=lambda s: s.key())
    ru_units: list[str] = []
    for s in snssais:
        for ref in ds.gnb_nsd_for(ds.nsst_for(s)).ru_pnfd_refs:
            if ref not in ru_units:
                ru_units.append(ref)
    snssai_to_du: dict[str, list[str]] = {}
    if any(cu.shared for cu in cus) and not any(du.shared for du in dus):
        for du in dus:
            snssai_to_du.setdefault(du.owners[0].key(), []).append(du.instance_id)
    cu_to_snssai: dict[str, str] = {}
    if any(du.shared for du in dus) and not any(cu.shared for cu in cus):
        cu_to_snssai = {cu.instance_id: cu.owners[0].key() for cu in cus}
    return {
        "cu_instances": [cu.instance_id for cu in cus],
        "du_instances": [du.instance_id for du in dus],
        "ru_units": ru_units,
        "snssai_to_du": dict(sorted(snssai_to_du.items())),
        "cu_to_snssai": dict(sorted(cu_to_snssai.items())),
    }


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
