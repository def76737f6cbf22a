"""Structural validation of a parsed DescriptorSet.

Findings are data, not exceptions: an empty report means every type
invariant holds and every cross-reference resolves. Codes are stable
strings so callers (and the CLI) can match on them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .model import DescriptorSet, GnbNsd, ScalingAspect, Snssai, Vnfd

# Finding codes
MISSING_FIELD = "MissingField"
UNRESOLVED_REF = "UnresolvedRef"
DUPLICATE_SNSSAI = "DuplicateSnssai"
BAD_NUMEROLOGY = "BadNumerology"
BAD_SYMBOL_RATIO = "BadSymbolRatio"
EMPTY_SCALING_ASPECT = "EmptyScalingAspect"
EMPTY_SCALE_LEVEL = "EmptyScaleLevel"
BAD_INSTANCE_COUNT = "BadInstanceCount"
UNKNOWN_FLAVOUR = "UnknownFlavour"
UNORDERED_SCALE_LEVELS = "UnorderedScaleLevels"
EMPTY_ILS = "EmptyIls"
INCOMPLETE_IL = "IncompleteIl"
UNKNOWN_SL = "UnknownSl"
BAD_VCPU_COUNT = "BadVcpuCount"
BAD_FLAVOUR = "BadFlavour"
EMPTY_VNFD = "EmptyVnfd"
SHARED_CU_VNFD = "SharedCuVnfd"
CU_VNFD_MULTI_REF = "CuVnfdMultiRef"
CU_IL_MISMATCH = "CuIlMismatch"
MISSING_AUXILIARY_NSD = "MissingAuxiliaryNsd"
AUX_IL_MISMATCH = "AuxIlMismatch"
SHARED_VNFD_SINGLE_REF = "SharedVnfdSingleRef"
NO_CONNECTIVITY_POINTS = "NoConnectivityPoints"
MULTI_CONSTITUENT_DU_SL = "MultiConstituentDuSl"
AUX_VNFD_MISMATCH = "AuxVnfdMismatch"
DUPLICATE_CU_ID = "DuplicateCuId"
RESERVED_CU_ID = "ReservedCuId"


@dataclass(frozen=True)
class Finding:
    code: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.detail}"


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> set[str]:
        return {f.code for f in self.findings}

    def add(self, code: str, subject: str, detail: str) -> None:
        self.findings.append(Finding(code, subject, detail))

    def __str__(self) -> str:
        if self.ok:
            return "no findings"
        return "\n".join(str(f) for f in self.findings)


def _check_nssts(ds: DescriptorSet, report: ValidationReport) -> None:
    seen: dict[Snssai, str] = {}
    for nsst in ds.nssts.values():
        subject = f"ran_nsst[{nsst.id}]"
        if nsst.snssai is None:
            report.add(MISSING_FIELD, subject, "snssai missing")
        else:
            prev = seen.setdefault(nsst.snssai, nsst.id)
            if prev != nsst.id:
                report.add(DUPLICATE_SNSSAI, subject,
                           f"snssai {nsst.snssai} already used by {prev}")
        if nsst.slice_profile is None:
            report.add(MISSING_FIELD, subject, "slice_profile missing")
        else:
            p = nsst.slice_profile
            if not 0 <= p.numerology_index <= 4:
                report.add(BAD_NUMEROLOGY, subject,
                           f"numerology_index {p.numerology_index} outside [0, 4]")
            if not math.isfinite(p.dl_ul_symbol_ratio) or p.dl_ul_symbol_ratio <= 0:
                report.add(BAD_SYMBOL_RATIO, subject,
                           f"dl_ul_symbol_ratio {p.dl_ul_symbol_ratio} not finite and positive")
        if nsst.gnb_nsd_ref is None:
            report.add(MISSING_FIELD, subject, "gnb_nsd_ref missing")
        elif nsst.gnb_nsd_ref not in ds.gnb_nsds:
            report.add(UNRESOLVED_REF, subject,
                       f"gnb_nsd_ref {nsst.gnb_nsd_ref!r} does not resolve")


def _check_scaling_aspect(ds: DescriptorSet, sa: ScalingAspect, vnfd: Vnfd | None,
                          subject: str, report: ValidationReport) -> None:
    if not sa.sls:
        report.add(EMPTY_SCALING_ASPECT, subject, "scale level list is empty")
        return
    capacities: list[int | None] = []
    for sl in sa.sls:
        sl_subject = f"{subject}.sls[{sl.id}]"
        if not sl.constituents:
            report.add(EMPTY_SCALE_LEVEL, sl_subject, "no constituents")
            capacities.append(None)
            continue
        for c in sl.constituents:
            if c.instance_count < 1:
                report.add(BAD_INSTANCE_COUNT, sl_subject,
                           f"{c.constituent_ref}: instance_count {c.instance_count} < 1")
            if vnfd is not None and vnfd.flavour(c.flavour_ref) is None:
                report.add(UNKNOWN_FLAVOUR, sl_subject,
                           f"flavour_ref {c.flavour_ref!r} not an IL of vnfd[{vnfd.id}]")
        capacities.append(ds.sl_total_vcpus(sl, vnfd))
    known = [c for c in capacities if c is not None]
    if len(known) == len(capacities):
        for prev, cur in zip(known, known[1:]):
            if cur < prev:
                report.add(UNORDERED_SCALE_LEVELS, subject,
                           "scale levels not ordered by non-decreasing total vCPUs")
                break


def _vnfd_ref(ds: DescriptorSet, nsd: GnbNsd, field: str, referrers: dict[str, list[str]],
              subject: str, report: ValidationReport) -> Vnfd | None:
    """The VNFD that ``nsd``'s ``field`` (cu_vnfd_ref or du_vnfd_ref)
    names, with ``nsd`` added to its ``referrers``; None, with a finding,
    if the reference is missing or does not resolve."""
    ref = getattr(nsd, field)
    if ref is None:
        report.add(MISSING_FIELD, subject, f"{field} missing")
    elif ref not in ds.vnfds:
        report.add(UNRESOLVED_REF, subject, f"{field} {ref!r} does not resolve")
    else:
        referrers.setdefault(ref, []).append(nsd.id)
        return ds.vnfds[ref]
    return None


# The DU ids that topology gives the engine's instances, ``du-shared-<n>``
# and ``du-<slice key>-<n>``, beside the shared CU's ``cu-shared``.
_DU_ID = re.compile(r"du-(.+)-[1-9][0-9]*")


def _check_gnb_nsds(ds: DescriptorSet, report: ValidationReport) -> None:
    cu_refs: dict[str, list[str]] = {}
    du_refs: dict[str, list[str]] = {}
    cu_ids: dict[str, str] = {}
    # Per auxiliary NSD, the DU VNFD of its first referrer and that NSD.
    aux_du_vnfds: dict[str, tuple[str, str]] = {}
    du_owners = {"shared", *(s.key() for s in ds.snssais())}
    for nsd in ds.gnb_nsds.values():
        subject = f"gnb_nsd[{nsd.id}]"
        prev = cu_ids.setdefault(nsd.cu_id, nsd.id)
        if prev != nsd.id:
            report.add(DUPLICATE_CU_ID, subject,
                       f"cu_id {nsd.cu_id!r} already used by gnb_nsd[{prev}]")
        du_id = _DU_ID.fullmatch(nsd.cu_id)
        if nsd.cu_id == "cu-shared" or (du_id is not None and du_id[1] in du_owners):
            report.add(RESERVED_CU_ID, subject,
                       f"cu_id {nsd.cu_id!r} is an instance id the engine generates")
        cu_vnfd = _vnfd_ref(ds, nsd, "cu_vnfd_ref", cu_refs, subject, report)
        du_vnfd = _vnfd_ref(ds, nsd, "du_vnfd_ref", du_refs, subject, report)
        for ref in nsd.ru_pnfd_refs:
            if ref not in ds.pnfds:
                report.add(UNRESOLVED_REF, subject, f"ru_pnfd_ref {ref!r} does not resolve")

        for name, sa, vnfd in (("sa_cu", nsd.sa_cu, cu_vnfd), ("sa_du", nsd.sa_du, du_vnfd)):
            if sa is None:
                report.add(MISSING_FIELD, subject, f"{name} missing")
            else:
                _check_scaling_aspect(ds, sa, vnfd, f"{subject}.{name}", report)
        # A DU scale level sizes one pool: one constituent, one flavour.
        if nsd.sa_du is not None:
            for sl in nsd.sa_du.sls:
                if len(sl.constituents) > 1:
                    report.add(MULTI_CONSTITUENT_DU_SL, f"{subject}.sa_du.sls[{sl.id}]",
                               f"{len(sl.constituents)} constituents, a DU pool takes one")

        if not nsd.ils:
            report.add(EMPTY_ILS, subject, "no instantiation levels declared")
        cu_sl_ids = set(nsd.sa_cu.sl_ids()) if nsd.sa_cu else set()
        du_sl_ids = set(nsd.sa_du.sl_ids()) if nsd.sa_du else set()
        for il in nsd.ils:
            il_subject = f"{subject}.ils[{il.id}]"
            if il.cu_sl is None or il.du_sl is None:
                missing = [name for name, v in (("cu_sl", il.cu_sl), ("du_sl", il.du_sl)) if v is None]
                report.add(INCOMPLETE_IL, il_subject,
                           f"selection missing for {', '.join(missing)}")
                continue
            if il.cu_sl not in cu_sl_ids:
                report.add(UNKNOWN_SL, il_subject, f"cu_sl {il.cu_sl!r} not a scale level of sa_cu")
            if il.du_sl not in du_sl_ids:
                report.add(UNKNOWN_SL, il_subject, f"du_sl {il.du_sl!r} not a scale level of sa_du")

        # CU: one VNF instance per gNB whose SL set mirrors the CU VNFD ILs.
        if cu_vnfd is not None:
            if cu_vnfd.shared:
                report.add(SHARED_CU_VNFD, subject,
                           f"cu_vnfd_ref {cu_vnfd.id!r} is marked shared")
            if nsd.sa_cu is not None and nsd.sa_cu.sls:
                sl_flavours = sorted(
                    c.flavour_ref for sl in nsd.sa_cu.sls for c in sl.constituents)
                il_ids = sorted(fl.id for fl in cu_vnfd.ils)
                if sl_flavours != il_ids:
                    report.add(CU_IL_MISMATCH, subject,
                               "sa_cu scale levels are not one-to-one with the CU VNFD ILs")

        # The auxiliary NSD rules hold wherever one is declared: under DU
        # sharing the engine follows it whatever the DU VNFD is marked.
        if nsd.aux_nsd_ref is None:
            if du_vnfd is not None and du_vnfd.shared:
                report.add(MISSING_AUXILIARY_NSD, subject,
                           f"du_vnfd_ref {du_vnfd.id!r} is shared but no aux_nsd_ref is declared")
        elif nsd.aux_nsd_ref not in ds.aux_nsds:
            report.add(UNRESOLVED_REF, subject,
                       f"aux_nsd_ref {nsd.aux_nsd_ref!r} does not resolve")
        else:
            if nsd.sa_du is not None:
                _check_aux_coincidence(ds, nsd, subject, report)
            # The shared pool takes its flavour from one DU VNFD.
            if du_vnfd is not None:
                vnfd_id, first = aux_du_vnfds.setdefault(nsd.aux_nsd_ref, (du_vnfd.id, nsd.id))
                if vnfd_id != du_vnfd.id:
                    report.add(AUX_VNFD_MISMATCH, subject,
                               f"aux_nsd_ref {nsd.aux_nsd_ref!r} already pools DU VNFD "
                               f"{vnfd_id!r} of gnb_nsd[{first}], not {du_vnfd.id!r}")

    _check_vnfd_reference_counts(ds, cu_refs, du_refs, report)


def _check_aux_coincidence(ds: DescriptorSet, nsd: GnbNsd, subject: str,
                           report: ValidationReport) -> None:
    aux = ds.aux_nsds[nsd.aux_nsd_ref]
    sa_du = nsd.sa_du
    if [il.id for il in aux.ils] != sa_du.sl_ids():
        report.add(AUX_IL_MISMATCH, subject,
                   f"aux_nsd[{aux.id}] IL ids do not coincide with sa_du scale levels")
        return
    for aux_il, sl in zip(aux.ils, sa_du.sls):
        if aux_il.du_count < 1:
            report.add(BAD_INSTANCE_COUNT, f"aux_nsd[{aux.id}].ils[{aux_il.id}]",
                       f"du_count {aux_il.du_count} < 1")
        if len(sl.constituents) != 1:
            continue            # reported as EmptyScaleLevel or MultiConstituentDuSl
        c = sl.constituents[0]
        if aux_il.du_count != c.instance_count or aux_il.du_il_ref != c.flavour_ref:
            report.add(AUX_IL_MISMATCH, subject,
                       f"aux_nsd[{aux.id}] IL {aux_il.id!r} does not match sa_du "
                       f"scale level {sl.id!r}")


def _check_vnfd_reference_counts(ds: DescriptorSet, cu_refs: dict[str, list[str]],
                                 du_refs: dict[str, list[str]],
                                 report: ValidationReport) -> None:
    for vnfd_id, referrers in cu_refs.items():
        if len(referrers) > 1:
            report.add(CU_VNFD_MULTI_REF, f"vnfd[{vnfd_id}]",
                       f"CU VNFD referenced by several gNB NSDs: {', '.join(referrers)}")
    for vnfd in ds.vnfds.values():
        if vnfd.shared and len(du_refs.get(vnfd.id, [])) < 2:
            report.add(SHARED_VNFD_SINGLE_REF, f"vnfd[{vnfd.id}]",
                       "shared VNFD must be referenced by at least two gNB NSDs")


def _check_vnfds(ds: DescriptorSet, report: ValidationReport) -> None:
    for vnfd in ds.vnfds.values():
        subject = f"vnfd[{vnfd.id}]"
        if not vnfd.ils:
            report.add(EMPTY_VNFD, subject, "no instantiation levels (VM flavours)")
        for fl in vnfd.ils:
            if fl.vcpus < 1:
                report.add(BAD_VCPU_COUNT, f"{subject}.ils[{fl.id}]",
                           f"vcpus {fl.vcpus} < 1")
            if fl.cpu_ghz <= 0 or fl.mem_gb <= 0:
                report.add(BAD_FLAVOUR, f"{subject}.ils[{fl.id}]",
                           "cpu_ghz and mem_gb must be positive")


def _check_pnfds(ds: DescriptorSet, report: ValidationReport) -> None:
    for pnfd in ds.pnfds.values():
        subject = f"pnfd[{pnfd.id}]"
        if not pnfd.cps:
            report.add(NO_CONNECTIVITY_POINTS, subject, "no connectivity points")
        for cp in pnfd.cps:
            if cp.gbps <= 0:
                report.add(BAD_FLAVOUR, f"{subject}.cps[{cp.name}]",
                           f"link capacity {cp.gbps} Gb/s must be positive")


def validate(ds: DescriptorSet) -> ValidationReport:
    """Check every descriptor invariant and cross-reference. Returns a
    report whose findings list is empty iff the set is well formed."""
    report = ValidationReport()
    _check_nssts(ds, report)
    _check_gnb_nsds(ds, report)
    _check_vnfds(ds, report)
    _check_pnfds(ds, report)
    return report
