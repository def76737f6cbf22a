"""Domain types for the gNB lifecycle-management template hierarchy.

The hierarchy is: RAN slice-subnet templates (NSST) reference a gNB
network-service descriptor (NSD), which references CU/DU VNF descriptors,
RU PNF descriptors and, when the DU is shared between slice subnets, an
auxiliary NSD whose instantiation levels mirror the DU scale levels.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping


class ServiceType(enum.Enum):
    EMBB = "eMBB"
    URLLC = "uRLLC"
    MMTC = "mMTC"


class RlcMode(enum.Enum):
    AM = "AM"
    UM = "UM"


class HarqTarget(enum.Enum):
    SPECTRAL_EFFICIENCY = "spectral_efficiency"
    COVERAGE = "coverage"
    ROUND_TRIP_TIME = "round_trip_time"


# The one Snssai per (service_type, subtype); see Snssai.__new__.
_SNSSAIS: dict[tuple[ServiceType, str | None], Snssai] = {}


@dataclass(frozen=True, eq=False, init=False)
class Snssai:
    """Slice identifier: one of the three main service types plus an
    optional subtype for a specific vertical use case.

    Interned: constructing one returns the one object for its fields, so
    equality and hashing are identity, done in C. An empty subtype is no
    subtype, as in key(), so a slice is the same object wherever its key
    is the same. Slices key most of the orchestrator's dicts, and their
    sort order is by key(), never by hash."""

    service_type: ServiceType
    subtype: str | None = None

    def __new__(cls, service_type: ServiceType, subtype: str | None = None) -> Snssai:
        if subtype == "":
            subtype = None
        fields = (service_type, subtype)
        found = _SNSSAIS.get(fields)
        if found is None:
            found = object.__new__(cls)
            object.__setattr__(found, "service_type", service_type)
            object.__setattr__(found, "subtype", subtype)
            object.__setattr__(found, "_key", f"{service_type.value}.{subtype}"
                               if subtype else service_type.value)
            # Built before it is published; threads racing on one slice
            # all get whichever object setdefault stored first.
            found = _SNSSAIS.setdefault(fields, found)
        return found

    def __reduce__(self):
        # Unpickling and copying go through __new__, so they return the
        # interned object of this process.
        return Snssai, (self.service_type, self.subtype)

    def key(self) -> str:
        return self._key

    def __str__(self) -> str:
        return self.key()


@dataclass(frozen=True)
class SliceProfile:
    """Declarative per-layer NR configuration carried by an NSST.

    The attributes configure the DRB treatment of one slice subnet
    (PDCP duplication/ciphering, RLC mode, HARQ optimisation target,
    numerology and downlink/uplink symbol balance). They are carried
    and round-tripped; no protocol processing is attached to them.
    """

    snssai: Snssai
    pdcp_duplication: bool
    pdcp_ciphering: bool
    rlc_mode: RlcMode
    rlc_segmentation: bool
    numerology_index: int
    harq_target: HarqTarget
    dl_ul_symbol_ratio: float


@dataclass(frozen=True)
class RanNsst:
    id: str
    snssai: Snssai | None
    slice_profile: SliceProfile | None
    fcaps: Mapping[str, Any] = field(default_factory=dict)
    gnb_nsd_ref: str | None = None


@dataclass(frozen=True)
class ConstituentSpec:
    """One constituent entry of a scale level: which component, how many
    instances, and the VM flavour (a VNFD IL id) backing each instance."""

    constituent_ref: str
    instance_count: int
    flavour_ref: str


@dataclass(frozen=True)
class ScaleLevel:
    id: str
    constituents: tuple[ConstituentSpec, ...]


@dataclass(frozen=True)
class ScalingAspect:
    """An independently scalable dimension; its scale levels are ordered
    by total vCPU capacity (validated), declaration order breaking ties."""

    id: str
    sls: tuple[ScaleLevel, ...]

    def sl_ids(self) -> list[str]:
        return [sl.id for sl in self.sls]

    def sl(self, sl_id: str) -> ScaleLevel | None:
        for sl in self.sls:
            if sl.id == sl_id:
                return sl
        return None


@dataclass(frozen=True)
class InstantiationLevel:
    """One scale level chosen per scaling aspect. A missing selection is
    representable (and reported by validation as IncompleteIl)."""

    id: str
    cu_sl: str | None
    du_sl: str | None


@dataclass(frozen=True)
class GnbNsd:
    """Lifecycle-management descriptor of one gNB.

    Two scaling aspects: one for the (single) slice-specific CU, one for
    the DU pool. ``cu_id`` identifies the CU constituent so that shared
    DUs can associate user data with its slice; it is not part of current
    3GPP identifiers and defaults to ``<nsd-id>-cu``, also when empty.
    """

    id: str
    cu_id: str = field(default="", kw_only=True)
    sa_cu: ScalingAspect | None
    sa_du: ScalingAspect | None
    ils: tuple[InstantiationLevel, ...]
    cu_vnfd_ref: str | None
    du_vnfd_ref: str | None
    ru_pnfd_refs: tuple[str, ...] = ()
    aux_nsd_ref: str | None = None

    def __post_init__(self):
        if not self.cu_id:
            object.__setattr__(self, "cu_id", f"{self.id}-cu")

    def il(self, il_id: str) -> InstantiationLevel | None:
        for il in self.ils:
            if il.id == il_id:
                return il
        return None

    def find_il(self, cu_sl: str, du_sl: str) -> InstantiationLevel | None:
        for il in self.ils:
            if il.cu_sl == cu_sl and il.du_sl == du_sl:
                return il
        return None


@dataclass(frozen=True)
class VmFlavour:
    """A VNFD instantiation level: one VNF instance mapped to one VM."""

    id: str
    vcpus: int
    cpu_ghz: float
    mem_gb: float


@dataclass(frozen=True)
class Vnfd:
    """CU or DU VNF descriptor. It carries a single implicit scaling
    aspect, so its scale levels and instantiation levels coincide."""

    id: str
    shared: bool = field(default=False, kw_only=True)
    ils: tuple[VmFlavour, ...]

    def flavour(self, flavour_id: str) -> VmFlavour | None:
        for fl in self.ils:
            if fl.id == flavour_id:
                return fl
        return None


@dataclass(frozen=True)
class ConnectivityPoint:
    name: str
    gbps: float


@dataclass(frozen=True)
class Pnfd:
    id: str
    cps: tuple[ConnectivityPoint, ...]


@dataclass(frozen=True)
class AuxIl:
    """Auxiliary-service instantiation level: number of shared DU
    instances and the DU flavour backing each of them."""

    id: str
    du_count: int
    du_il_ref: str


@dataclass(frozen=True)
class AuxiliaryNsd:
    """Coordination descriptor for a shared DU: its ILs coincide with the
    DU scale levels of every referencing gNB NSD, so a shared-DU scaling
    executes exactly once, here."""

    id: str
    ils: tuple[AuxIl, ...]

    def il(self, il_id: str) -> AuxIl | None:
        for il in self.ils:
            if il.id == il_id:
                return il
        return None


@dataclass(frozen=True)
class DescriptorSet:
    """Parsed collection of descriptors, keyed by id within each kind.

    References between descriptors are kept symbolic; resolution happens
    during validation and in the accessors below (which return None when
    a reference does not resolve).
    """

    nssts: Mapping[str, RanNsst] = field(default_factory=dict)
    gnb_nsds: Mapping[str, GnbNsd] = field(default_factory=dict)
    vnfds: Mapping[str, Vnfd] = field(default_factory=dict)
    pnfds: Mapping[str, Pnfd] = field(default_factory=dict)
    aux_nsds: Mapping[str, AuxiliaryNsd] = field(default_factory=dict)

    def __len__(self) -> int:
        return (len(self.nssts) + len(self.gnb_nsds) + len(self.vnfds)
                + len(self.pnfds) + len(self.aux_nsds))

    def snssais(self) -> list[Snssai]:
        """All slice identifiers, sorted by key for deterministic iteration."""
        found = [n.snssai for n in self.nssts.values() if n.snssai is not None]
        return sorted(found, key=lambda s: s.key())

    def nsst_for(self, snssai: Snssai) -> RanNsst | None:
        for nsst in self.nssts.values():
            if nsst.snssai == snssai:
                return nsst
        return None

    def gnb_nsd_for(self, nsst: RanNsst) -> GnbNsd | None:
        if nsst.gnb_nsd_ref is None:
            return None
        return self.gnb_nsds.get(nsst.gnb_nsd_ref)

    def cu_vnfd(self, nsd: GnbNsd) -> Vnfd | None:
        if nsd.cu_vnfd_ref is None:
            return None
        return self.vnfds.get(nsd.cu_vnfd_ref)

    def du_vnfd(self, nsd: GnbNsd) -> Vnfd | None:
        if nsd.du_vnfd_ref is None:
            return None
        return self.vnfds.get(nsd.du_vnfd_ref)

    def sl_total_vcpus(self, sl: ScaleLevel, vnfd: Vnfd | None) -> int | None:
        """Total vCPUs a scale level provisions; None if a flavour is
        unresolved (the validator reports that separately)."""
        if vnfd is None:
            return None
        total = 0
        for spec in sl.constituents:
            flavour = vnfd.flavour(spec.flavour_ref)
            if flavour is None:
                return None
            total += spec.instance_count * flavour.vcpus
        return total

