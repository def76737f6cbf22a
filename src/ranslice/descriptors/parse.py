"""Parsing of descriptor documents into a typed DescriptorSet.

A document is a YAML (or JSON) mapping whose top-level keys name the
descriptor kind: ``ran_nsst``, ``gnb_nsd``, ``vnfd``, ``pnfd``,
``aux_nsd``. Each value is either one descriptor mapping or a list of
them. Parsing checks shape and field types only; cross-references stay
symbolic and structural invariants are checked by ``validate``, so that
an incomplete descriptor parses and is reported as a finding rather
than a parse error. The exception is enumerated fields (service type,
RLC mode, HARQ target), whose membership is part of the schema.
"""

from __future__ import annotations

from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence

import yaml

from ..errors import RansliceError
from .model import (
    AuxIl,
    AuxiliaryNsd,
    ConnectivityPoint,
    ConstituentSpec,
    DescriptorSet,
    GnbNsd,
    HarqTarget,
    InstantiationLevel,
    Pnfd,
    RanNsst,
    RlcMode,
    ScaleLevel,
    ScalingAspect,
    ServiceType,
    SliceProfile,
    Snssai,
    VmFlavour,
    Vnfd,
)

KINDS = ("ran_nsst", "gnb_nsd", "vnfd", "pnfd", "aux_nsd")

# libyaml's C scanner and parser when PyYAML was built with it; either way
# the objects come from PyYAML's SafeConstructor, so tags, resolvers and
# the loaded values are the same. Only the wording of syntax errors, and
# the line of an error at the end of the stream, differ.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_yaml(source: str | IO[str]) -> Any:
    """Load one YAML document from text or a text stream with the safe
    constructor. Raises yaml.YAMLError on malformed input."""
    return yaml.load(source, Loader=YAML_LOADER)


class DescriptorSyntaxError(RansliceError):
    """Malformed descriptor document (bad YAML, wrong shape or type)."""

    def __init__(self, document: str, message: str, line: int | None = None):
        self.document = document
        self.line = line
        self.message = message
        where = document if line is None else f"{document}:{line}"
        super().__init__(f"{where}: {message}")


class DuplicateIdError(RansliceError):
    """Two descriptors share one id (ids are unique across all kinds)."""

    def __init__(self, dup_id: str):
        self.dup_id = dup_id
        super().__init__(f"duplicate descriptor id {dup_id!r}")


def _at(path: str, text: str, sep: str = ".") -> str:
    """``text`` (a field name, or a message with ``sep=": "``) under
    ``path``; ``text`` alone where ``path`` is empty (the top level)."""
    return f"{path}{sep}{text}" if path else text


def _as_map(obj: Any, doc: str, path: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise DescriptorSyntaxError(
            doc, _at(path, f"expected a mapping, got {type(obj).__name__}", ": "))
    return obj


def _as_list(obj: Any, doc: str, path: str) -> list[Any]:
    if not isinstance(obj, Sequence) or isinstance(obj, (str, bytes)):
        raise DescriptorSyntaxError(doc, f"{path}: expected a list, got {type(obj).__name__}")
    return list(obj)


def _entries(m: Mapping[str, Any], key: str, doc: str,
             path: str) -> Iterator[tuple[Mapping[str, Any], str]]:
    """Each entry of the list field ``key`` of ``m`` (none if absent),
    checked to be a mapping, with its path ``{path}.{key}[{i}]``."""
    for i, entry in enumerate(_as_list(m.get(key, []), doc, f"{path}.{key}")):
        where = f"{path}.{key}[{i}]"
        yield _as_map(entry, doc, where), where


def _optional(m: Mapping[str, Any], key: str, parse: Callable[..., Any], doc: str,
              path: str, *args: Any) -> Any:
    """``parse`` of the sub-record ``key`` of ``m`` at ``{path}.{key}``
    (with ``args`` after the path), or None where it is absent."""
    v = m.get(key)
    return None if v is None else parse(v, doc, f"{path}.{key}", *args)


_EXPECTED = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


def _get(m: Mapping[str, Any], key: str, kind: type, doc: str, path: str,
         required: bool = False, default: Any = None) -> Any:
    """Field ``key`` of ``m``, checked to be a ``kind`` (str, int, float or
    bool), or ``default`` when absent. A bool is neither an int nor a
    float here, and an int read as a float comes back as a float."""
    v = m.get(key)
    if v is None:
        if required:
            raise DescriptorSyntaxError(doc, f"{_at(path, key)}: missing required field")
        return default
    accepted = (int, float) if kind is float else kind
    if not isinstance(v, accepted) or (isinstance(v, bool) and kind is not bool):
        raise DescriptorSyntaxError(doc, f"{_at(path, key)}: expected {_EXPECTED[kind]}")
    return float(v) if kind is float else v


def _get_enum(m: Mapping[str, Any], key: str, enum_cls, doc: str, path: str):
    raw = _get(m, key, str, doc, path, required=True)
    for member in enum_cls:
        if member.value == raw:
            return member
    allowed = ", ".join(member.value for member in enum_cls)
    raise DescriptorSyntaxError(doc, f"{_at(path, key)}: {raw!r} not one of {allowed}")


def parse_snssai(obj: Any, doc: str, path: str) -> Snssai:
    m = _as_map(obj, doc, path)
    service_type = _get_enum(m, "service_type", ServiceType, doc, path)
    subtype = _get(m, "subtype", str, doc, path)
    return Snssai(service_type=service_type, subtype=subtype)


def _parse_slice_profile(obj: Any, doc: str, path: str, snssai: Snssai | None) -> SliceProfile:
    m = _as_map(obj, doc, path)
    if snssai is None:
        raise DescriptorSyntaxError(doc, f"{path}: slice_profile requires a snssai on the NSST")
    return SliceProfile(
        snssai=snssai,
        pdcp_duplication=_get(m, "pdcp_duplication", bool, doc, path, required=True),
        pdcp_ciphering=_get(m, "pdcp_ciphering", bool, doc, path, required=True),
        rlc_mode=_get_enum(m, "rlc_mode", RlcMode, doc, path),
        rlc_segmentation=_get(m, "rlc_segmentation", bool, doc, path, required=True),
        numerology_index=_get(m, "numerology_index", int, doc, path, required=True),
        harq_target=_get_enum(m, "harq_target", HarqTarget, doc, path),
        dl_ul_symbol_ratio=_get(m, "dl_ul_symbol_ratio", float, doc, path, required=True),
    )


def _parse_fcaps(obj: Any, doc: str, path: str) -> dict[str, Any]:
    if obj is None:
        return {}
    m = _as_map(obj, doc, path)
    out: dict[str, Any] = {}
    for k, v in m.items():
        if not isinstance(k, str):
            raise DescriptorSyntaxError(doc, f"{path}: fcaps keys must be strings")
        if v is not None and not isinstance(v, (str, int, float, bool)):
            raise DescriptorSyntaxError(doc, f"{path}.{k}: fcaps values must be scalars")
        out[k] = v
    return out


def _parse_nsst(m: Mapping[str, Any], doc: str) -> RanNsst:
    nsst_id = _get(m, "id", str, doc, "ran_nsst", required=True)
    path = f"ran_nsst[{nsst_id}]"
    snssai = _optional(m, "snssai", parse_snssai, doc, path)
    return RanNsst(
        id=nsst_id,
        snssai=snssai,
        slice_profile=_optional(m, "slice_profile", _parse_slice_profile, doc, path, snssai),
        fcaps=_parse_fcaps(m.get("fcaps"), doc, f"{path}.fcaps"),
        gnb_nsd_ref=_get(m, "gnb_nsd_ref", str, doc, path),
    )


def _parse_scale_level(m: Mapping[str, Any], doc: str, path: str) -> ScaleLevel:
    sl_id = _get(m, "id", str, doc, path, required=True)
    constituents = tuple(ConstituentSpec(
        constituent_ref=_get(cm, "constituent_ref", str, doc, cpath, required=True),
        instance_count=_get(cm, "instance_count", int, doc, cpath, required=True),
        flavour_ref=_get(cm, "flavour_ref", str, doc, cpath, required=True),
    ) for cm, cpath in _entries(m, "constituents", doc, path))
    return ScaleLevel(id=sl_id, constituents=constituents)


def _parse_scaling_aspect(obj: Any, doc: str, path: str) -> ScalingAspect:
    m = _as_map(obj, doc, path)
    sa_id = _get(m, "id", str, doc, path, required=True)
    sls = tuple(_parse_scale_level(slm, doc, slpath)
                for slm, slpath in _entries(m, "sls", doc, path))
    return ScalingAspect(id=sa_id, sls=sls)


def _parse_gnb_nsd(m: Mapping[str, Any], doc: str) -> GnbNsd:
    nsd_id = _get(m, "id", str, doc, "gnb_nsd", required=True)
    path = f"gnb_nsd[{nsd_id}]"
    sa_cu = _optional(m, "sa_cu", _parse_scaling_aspect, doc, path)
    sa_du = _optional(m, "sa_du", _parse_scaling_aspect, doc, path)
    ils = tuple(InstantiationLevel(
        id=_get(ilm, "id", str, doc, ilpath, required=True),
        cu_sl=_get(ilm, "cu_sl", str, doc, ilpath),
        du_sl=_get(ilm, "du_sl", str, doc, ilpath),
    ) for ilm, ilpath in _entries(m, "ils", doc, path))
    ru_refs = tuple(
        r if isinstance(r, str) else _bad_ref(doc, f"{path}.ru_pnfd_refs")
        for r in _as_list(m.get("ru_pnfd_refs", []), doc, f"{path}.ru_pnfd_refs")
    )
    cu_id = _get(m, "cu_id", str, doc, path) or f"{nsd_id}-cu"
    return GnbNsd(
        id=nsd_id,
        cu_id=cu_id,
        sa_cu=sa_cu,
        sa_du=sa_du,
        ils=ils,
        cu_vnfd_ref=_get(m, "cu_vnfd_ref", str, doc, path),
        du_vnfd_ref=_get(m, "du_vnfd_ref", str, doc, path),
        ru_pnfd_refs=ru_refs,
        aux_nsd_ref=_get(m, "aux_nsd_ref", str, doc, path),
    )


def _bad_ref(doc: str, path: str):
    raise DescriptorSyntaxError(doc, f"{path}: references must be strings")


def _parse_vnfd(m: Mapping[str, Any], doc: str) -> Vnfd:
    vnfd_id = _get(m, "id", str, doc, "vnfd", required=True)
    path = f"vnfd[{vnfd_id}]"
    flavours = tuple(VmFlavour(
        id=_get(flm, "id", str, doc, flpath, required=True),
        vcpus=_get(flm, "vcpus", int, doc, flpath, required=True),
        cpu_ghz=_get(flm, "cpu_ghz", float, doc, flpath, required=True),
        mem_gb=_get(flm, "mem_gb", float, doc, flpath, required=True),
    ) for flm, flpath in _entries(m, "ils", doc, path))
    return Vnfd(
        id=vnfd_id,
        shared=_get(m, "shared", bool, doc, path, default=False),
        ils=flavours,
    )


def _parse_pnfd(m: Mapping[str, Any], doc: str) -> Pnfd:
    pnfd_id = _get(m, "id", str, doc, "pnfd", required=True)
    path = f"pnfd[{pnfd_id}]"
    cps = tuple(ConnectivityPoint(
        name=_get(cpm, "name", str, doc, cppath, required=True),
        gbps=_get(cpm, "gbps", float, doc, cppath, required=True),
    ) for cpm, cppath in _entries(m, "cps", doc, path))
    return Pnfd(id=pnfd_id, cps=cps)


def _parse_aux_nsd(m: Mapping[str, Any], doc: str) -> AuxiliaryNsd:
    aux_id = _get(m, "id", str, doc, "aux_nsd", required=True)
    path = f"aux_nsd[{aux_id}]"
    ils = tuple(AuxIl(
        id=_get(ilm, "id", str, doc, ilpath, required=True),
        du_count=_get(ilm, "du_count", int, doc, ilpath, required=True),
        du_il_ref=_get(ilm, "du_il_ref", str, doc, ilpath, required=True),
    ) for ilm, ilpath in _entries(m, "ils", doc, path))
    return AuxiliaryNsd(id=aux_id, ils=ils)


_PARSERS = {
    "ran_nsst": _parse_nsst,
    "gnb_nsd": _parse_gnb_nsd,
    "vnfd": _parse_vnfd,
    "pnfd": _parse_pnfd,
    "aux_nsd": _parse_aux_nsd,
}


def _load_document(text: str, doc: str) -> Mapping[str, Any]:
    try:
        loaded = load_yaml(text)
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise DescriptorSyntaxError(doc, f"invalid YAML: {exc}", line=line) from exc
    if loaded is None:
        return {}
    return _as_map(loaded, doc, "document")


def parse_descriptor_set(documents: Iterable[str | Mapping[str, Any]],
                         names: Sequence[str] | None = None) -> DescriptorSet:
    """Parse descriptor documents (YAML/JSON text or pre-loaded mappings)
    into a DescriptorSet.

    Raises DescriptorSyntaxError on malformed input and DuplicateIdError
    when two descriptors (of any kind) share an id. Invariants beyond
    shape are left to ``validate``.
    """
    nssts: dict[str, RanNsst] = {}
    gnb_nsds: dict[str, GnbNsd] = {}
    vnfds: dict[str, Vnfd] = {}
    pnfds: dict[str, Pnfd] = {}
    aux_nsds: dict[str, AuxiliaryNsd] = {}
    buckets = {"ran_nsst": nssts, "gnb_nsd": gnb_nsds, "vnfd": vnfds,
               "pnfd": pnfds, "aux_nsd": aux_nsds}
    seen_ids: set[str] = set()

    docs = list(documents)
    for i, raw in enumerate(docs):
        doc = names[i] if names is not None else f"doc-{i}"
        content = _load_document(raw, doc) if isinstance(raw, str) else _as_map(raw, doc, "document")
        for kind, value in content.items():
            if kind not in KINDS:
                raise DescriptorSyntaxError(doc, f"unknown descriptor kind {kind!r}")
            entries = value if isinstance(value, list) else [value]
            for entry in entries:
                m = _as_map(entry, doc, kind)
                parsed = _PARSERS[kind](m, doc)
                if parsed.id in seen_ids:
                    raise DuplicateIdError(parsed.id)
                seen_ids.add(parsed.id)
                buckets[kind][parsed.id] = parsed

    return DescriptorSet(nssts=nssts, gnb_nsds=gnb_nsds, vnfds=vnfds,
                         pnfds=pnfds, aux_nsds=aux_nsds)


def _present(**fields: Any) -> dict[str, Any]:
    """``fields`` in order, without the absent (None) ones."""
    return {k: v for k, v in fields.items() if v is not None}


def _snssai_to_dict(s: Snssai) -> dict[str, Any]:
    return _present(service_type=s.service_type.value, subtype=s.subtype)


def _nsst_to_dict(n: RanNsst) -> dict[str, Any]:
    p = n.slice_profile
    return _present(
        id=n.id,
        snssai=None if n.snssai is None else _snssai_to_dict(n.snssai),
        slice_profile=None if p is None else {
            "pdcp_duplication": p.pdcp_duplication,
            "pdcp_ciphering": p.pdcp_ciphering,
            "rlc_mode": p.rlc_mode.value,
            "rlc_segmentation": p.rlc_segmentation,
            "numerology_index": p.numerology_index,
            "harq_target": p.harq_target.value,
            "dl_ul_symbol_ratio": p.dl_ul_symbol_ratio,
        },
        fcaps=dict(n.fcaps) or None,
        gnb_nsd_ref=n.gnb_nsd_ref,
    )


def _sa_to_dict(sa: ScalingAspect) -> dict[str, Any]:
    return {
        "id": sa.id,
        "sls": [
            {
                "id": sl.id,
                "constituents": [
                    {"constituent_ref": c.constituent_ref,
                     "instance_count": c.instance_count,
                     "flavour_ref": c.flavour_ref}
                    for c in sl.constituents
                ],
            }
            for sl in sa.sls
        ],
    }


def _nsd_to_dict(n: GnbNsd) -> dict[str, Any]:
    return _present(
        id=n.id,
        cu_id=n.cu_id,
        sa_cu=None if n.sa_cu is None else _sa_to_dict(n.sa_cu),
        sa_du=None if n.sa_du is None else _sa_to_dict(n.sa_du),
        ils=[_present(id=il.id, cu_sl=il.cu_sl, du_sl=il.du_sl) for il in n.ils],
        cu_vnfd_ref=n.cu_vnfd_ref,
        du_vnfd_ref=n.du_vnfd_ref,
        ru_pnfd_refs=list(n.ru_pnfd_refs) or None,
        aux_nsd_ref=n.aux_nsd_ref,
    )


def _vnfd_to_dict(v: Vnfd) -> dict[str, Any]:
    return {
        "id": v.id,
        "shared": v.shared,
        "ils": [{"id": fl.id, "vcpus": fl.vcpus, "cpu_ghz": fl.cpu_ghz, "mem_gb": fl.mem_gb}
                for fl in v.ils],
    }


def _pnfd_to_dict(p: Pnfd) -> dict[str, Any]:
    return {"id": p.id, "cps": [{"name": cp.name, "gbps": cp.gbps} for cp in p.cps]}


def _aux_to_dict(a: AuxiliaryNsd) -> dict[str, Any]:
    return {"id": a.id,
            "ils": [{"id": il.id, "du_count": il.du_count, "du_il_ref": il.du_il_ref}
                    for il in a.ils]}


def serialize_descriptor_set(ds: DescriptorSet) -> dict[str, Any]:
    """Canonical single-document form of a DescriptorSet: kinds in fixed
    order, descriptors sorted by id, optional absent fields omitted.
    ``parse_descriptor_set([serialize_descriptor_set(ds)])`` equals ds."""
    out: dict[str, Any] = {}
    if ds.nssts:
        out["ran_nsst"] = [_nsst_to_dict(ds.nssts[k]) for k in sorted(ds.nssts)]
    if ds.gnb_nsds:
        out["gnb_nsd"] = [_nsd_to_dict(ds.gnb_nsds[k]) for k in sorted(ds.gnb_nsds)]
    if ds.vnfds:
        out["vnfd"] = [_vnfd_to_dict(ds.vnfds[k]) for k in sorted(ds.vnfds)]
    if ds.pnfds:
        out["pnfd"] = [_pnfd_to_dict(ds.pnfds[k]) for k in sorted(ds.pnfds)]
    if ds.aux_nsds:
        out["aux_nsd"] = [_aux_to_dict(ds.aux_nsds[k]) for k in sorted(ds.aux_nsds)]
    return out
