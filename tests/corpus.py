"""Hand-labeled descriptor corpus: well-formed sets plus one set per
violated invariant, each with the exact finding codes it must produce.
Where one mutation necessarily triggers follow-on findings (e.g. an
unknown flavour also breaks the CU one-to-one rule), the label lists all
of them, so the classification check tolerates no false positives or
negatives."""

from __future__ import annotations

import yaml

from helpers import build_documents

from ranslice.descriptors.validate import (
    AUX_IL_MISMATCH,
    AUX_VNFD_MISMATCH,
    BAD_FLAVOUR,
    BAD_INSTANCE_COUNT,
    BAD_NUMEROLOGY,
    BAD_SYMBOL_RATIO,
    BAD_VCPU_COUNT,
    CU_IL_MISMATCH,
    CU_VNFD_MULTI_REF,
    DUPLICATE_CU_ID,
    DUPLICATE_SNSSAI,
    EMPTY_ILS,
    EMPTY_SCALE_LEVEL,
    EMPTY_SCALING_ASPECT,
    EMPTY_VNFD,
    INCOMPLETE_IL,
    MISSING_AUXILIARY_NSD,
    MISSING_FIELD,
    MULTI_CONSTITUENT_DU_SL,
    NO_CONNECTIVITY_POINTS,
    RESERVED_CU_ID,
    SHARED_CU_VNFD,
    SHARED_VNFD_SINGLE_REF,
    UNKNOWN_FLAVOUR,
    UNKNOWN_SL,
    UNORDERED_SCALE_LEVELS,
    UNRESOLVED_REF,
)


def _load(docs: list[str]) -> list[dict]:
    return [yaml.safe_load(d) for d in docs]


def _nsds(loaded: list[dict]):
    for doc in loaded:
        if "gnb_nsd" in doc:
            yield doc["gnb_nsd"]


def _nssts(loaded: list[dict]):
    for doc in loaded:
        if "ran_nsst" in doc:
            yield doc["ran_nsst"]


def _first(it):
    return next(iter(it))


def _entry_missing_aux():
    loaded = _load(build_documents())
    for nsd in _nsds(loaded):
        del nsd["aux_nsd_ref"]
    return loaded


def _entry_incomplete_il():
    loaded = _load(build_documents())
    del _first(_nsds(loaded))["ils"][0]["du_sl"]
    return loaded


def _entry_unresolved_gnb_ref():
    loaded = _load(build_documents())
    _first(_nssts(loaded))["gnb_nsd_ref"] = "gnb-nowhere"
    return loaded


def _entry_duplicate_snssai():
    loaded = _load(build_documents())
    nssts = list(_nssts(loaded))
    nssts[1]["snssai"] = dict(nssts[0]["snssai"])
    return loaded


def _entry_bad_numerology():
    loaded = _load(build_documents())
    _first(_nssts(loaded))["slice_profile"]["numerology_index"] = 7
    return loaded


def _entry_bad_symbol_ratio():
    loaded = _load(build_documents())
    _first(_nssts(loaded))["slice_profile"]["dl_ul_symbol_ratio"] = -1.0
    return loaded


def _entry_bad_instance_count():
    loaded = _load(build_documents())
    for nsd in _nsds(loaded):
        nsd["sa_du"]["sls"][0]["constituents"][0]["instance_count"] = 0
    for doc in loaded:
        if "aux_nsd" in doc:
            doc["aux_nsd"]["ils"][0]["du_count"] = 0
    return loaded


def _entry_unknown_flavour():
    loaded = _load(build_documents())
    _first(_nsds(loaded))["sa_cu"]["sls"][0]["constituents"][0]["flavour_ref"] = "ghost"
    return loaded


def _entry_unordered_sls():
    # CU scale levels declared with decreasing vCPU capacity.
    return _load(build_documents(cu_vcpus=(2, 1)))


def _entry_empty_scaling_aspect():
    loaded = _load(build_documents(n_slices=2, shared_du=False))
    _first(_nsds(loaded))["sa_du"]["sls"] = []
    return loaded


def _entry_unknown_sl():
    loaded = _load(build_documents())
    _first(_nsds(loaded))["ils"][0]["du_sl"] = "du-sl-9"
    return loaded


def _entry_shared_cu_vnfd():
    loaded = _load(build_documents())
    for doc in loaded:
        if "vnfd" in doc and isinstance(doc["vnfd"], dict) and \
                doc["vnfd"]["id"].startswith("vnfd-cu-eMBB"):
            doc["vnfd"]["shared"] = True
    return loaded


def _entry_cu_vnfd_multi_ref():
    loaded = _load(build_documents())
    nsds = list(_nsds(loaded))
    nsds[1]["cu_vnfd_ref"] = nsds[0]["cu_vnfd_ref"]
    for sl in nsds[1]["sa_cu"]["sls"]:
        for c in sl["constituents"]:
            c["flavour_ref"] = c["flavour_ref"].replace("uRLLC", "eMBB")
    return loaded


def _entry_cu_il_mismatch():
    loaded = _load(build_documents())
    for doc in loaded:
        if "vnfd" in doc and isinstance(doc["vnfd"], dict) and \
                doc["vnfd"]["id"] == "vnfd-cu-eMBB":
            doc["vnfd"]["ils"].append(
                {"id": "cu-eMBB-fl-9", "vcpus": 8, "cpu_ghz": 2.4, "mem_gb": 32})
    return loaded


def _entry_aux_il_mismatch():
    loaded = _load(build_documents())
    for doc in loaded:
        if "aux_nsd" in doc:
            doc["aux_nsd"]["ils"][1]["id"] = "du-sl-9"
    return loaded


def _entry_shared_single_ref():
    loaded = _load(build_documents())
    nsds = list(_nsds(loaded))
    nsds[1]["du_vnfd_ref"] = "vnfd-du-b"
    loaded.append({"vnfd": {
        "id": "vnfd-du-b", "shared": False,
        "ils": [{"id": "du-fl-1", "vcpus": 1, "cpu_ghz": 2.2, "mem_gb": 4}],
    }})
    return loaded


def _entry_no_connectivity_points():
    loaded = _load(build_documents())
    for doc in loaded:
        if "pnfd" in doc:
            doc["pnfd"][0]["cps"] = []
    return loaded


def _entry_bad_vcpus():
    loaded = _load(build_documents())
    for doc in loaded:
        if "vnfd" in doc and isinstance(doc["vnfd"], dict) and \
                doc["vnfd"]["id"] == "vnfd-du-shared":
            doc["vnfd"]["ils"][0]["vcpus"] = 0
    return loaded


def _entry_empty_vnfd():
    loaded = _load(build_documents())
    for doc in loaded:
        if "vnfd" in doc and isinstance(doc["vnfd"], dict) and \
                doc["vnfd"]["id"] == "vnfd-cu-eMBB":
            doc["vnfd"]["ils"] = []
    return loaded


def _entry_missing_fields():
    loaded = _load(build_documents())
    nsst = _first(_nssts(loaded))
    del nsst["snssai"]
    del nsst["slice_profile"]
    return loaded


def _entry_bad_flavour():
    loaded = _load(build_documents())
    for doc in loaded:
        if "vnfd" in doc and isinstance(doc["vnfd"], dict) and \
                doc["vnfd"]["id"] == "vnfd-du-shared":
            doc["vnfd"]["ils"][0]["cpu_ghz"] = 0.0
    return loaded


def _entry_empty_ils():
    loaded = _load(build_documents())
    _first(_nsds(loaded))["ils"] = []
    return loaded


def _entry_empty_scale_level():
    loaded = _load(build_documents())
    _first(_nsds(loaded))["sa_cu"]["sls"][0]["constituents"] = []
    return loaded


def _entry_unresolved_aux_on_unshared_du():
    # An auxiliary NSD is followed under DU sharing whatever the DU VNFD
    # is marked, so its reference must resolve on an unshared one too.
    loaded = _load(build_documents(n_slices=2, shared_du=False))
    for nsd in _nsds(loaded):
        nsd["aux_nsd_ref"] = "nope"
    return loaded


def _entry_aux_flavour_on_unshared_du():
    # The auxiliary ILs name a flavour of neither unshared DU VNFD; the two
    # NSDs on it also sit on different DU VNFDs.
    loaded = _entry_unresolved_aux_on_unshared_du()
    loaded.append({"aux_nsd": {"id": "nope", "ils": [
        {"id": f"du-sl-{j + 1}", "du_count": count, "du_il_ref": "du-fl-1"}
        for j, count in enumerate((1, 2))]}})
    return loaded


def _entry_multi_constituent_du_sl(shared_du: bool):
    loaded = _load(build_documents(n_slices=2, shared_du=shared_du))
    constituents = _first(_nsds(loaded))["sa_du"]["sls"][0]["constituents"]
    constituents.append(dict(constituents[0]))
    return loaded


def _entry_aux_vnfd_mismatch():
    # gnb-eMBB moves to a 4-vCPU DU VNFD of the same flavour id, so its
    # aux ILs still coincide; the shared pool could be sized from either.
    loaded = _load(build_documents(n_slices=3))
    _first(_nsds(loaded))["du_vnfd_ref"] = "vnfd-du-big"
    loaded.append({"vnfd": {
        "id": "vnfd-du-big", "shared": False,
        "ils": [{"id": "du-fl-1", "vcpus": 4, "cpu_ghz": 2.2, "mem_gb": 16}],
    }})
    return loaded


def _entry_duplicate_cu_id():
    loaded = _load(build_documents())
    nsds = list(_nsds(loaded))
    nsds[1]["cu_id"] = nsds[0]["cu_id"]
    return loaded


def _entry_empty_subtype():
    # An empty subtype is no subtype in the slice key, so uRLLC's NSST
    # names eMBB's slice a second time.
    loaded = _load(build_documents(n_slices=2, shared_du=False))
    list(_nssts(loaded))[1]["snssai"] = {"service_type": "eMBB", "subtype": ""}
    return loaded


def _entry_reserved_cu_id():
    # The id of the first shared DU instance under s2 and s4.
    loaded = _load(build_documents())
    _first(_nsds(loaded))["cu_id"] = "du-shared-1"
    return loaded


def mixed_aux_documents() -> list[dict]:
    """Two unshared DU VNFDs: gnb-eMBB declares no auxiliary NSD, gnb-uRLLC
    one that coincides with its DU scale levels. Valid; it runs without
    DU sharing, and under DU sharing uRLLC cannot join eMBB's DU."""
    loaded = _load(build_documents(n_slices=2, shared_du=False))
    list(_nsds(loaded))[1]["aux_nsd_ref"] = "aux-du"
    loaded.append({"aux_nsd": {"id": "aux-du", "ils": [
        {"id": f"du-sl-{j + 1}", "du_count": count, "du_il_ref": "du-uRLLC-fl-1"}
        for j, count in enumerate((1, 2))]}})
    return loaded


# (name, documents, expected finding codes); empty set = must validate clean
CORPUS: list[tuple[str, list, frozenset[str]]] = [
    ("valid-two-slice-shared", _load(build_documents()), frozenset()),
    ("valid-three-slice-shared",
     _load(build_documents(n_slices=3, du_counts=(1, 2, 3))), frozenset()),
    ("valid-single-slice-dedicated", _load(build_documents(n_slices=1)), frozenset()),
    ("valid-two-slice-dedicated",
     _load(build_documents(n_slices=2, shared_du=False)), frozenset()),
    ("valid-subtyped-slices", _load(build_documents(n_slices=4)), frozenset()),
    ("valid-minimal-ils",
     _load(build_documents(full_il_product=False, du_counts=(1,), cu_vcpus=(1,))),
     frozenset()),
    ("valid-many-rus", _load(build_documents(n_rus=4)), frozenset()),
    ("valid-aux-on-one-unshared-du", mixed_aux_documents(), frozenset()),

    ("missing-auxiliary-nsd", _entry_missing_aux(),
     frozenset({MISSING_AUXILIARY_NSD})),
    ("incomplete-il", _entry_incomplete_il(), frozenset({INCOMPLETE_IL})),
    ("unresolved-gnb-nsd-ref", _entry_unresolved_gnb_ref(),
     frozenset({UNRESOLVED_REF})),
    ("duplicate-snssai", _entry_duplicate_snssai(), frozenset({DUPLICATE_SNSSAI})),
    ("numerology-out-of-range", _entry_bad_numerology(), frozenset({BAD_NUMEROLOGY})),
    ("negative-symbol-ratio", _entry_bad_symbol_ratio(), frozenset({BAD_SYMBOL_RATIO})),
    ("zero-instance-count", _entry_bad_instance_count(),
     frozenset({BAD_INSTANCE_COUNT})),
    ("unknown-flavour-ref", _entry_unknown_flavour(),
     frozenset({UNKNOWN_FLAVOUR, CU_IL_MISMATCH})),
    ("unordered-scale-levels", _entry_unordered_sls(),
     frozenset({UNORDERED_SCALE_LEVELS})),
    ("empty-scaling-aspect", _entry_empty_scaling_aspect(),
     frozenset({EMPTY_SCALING_ASPECT, UNKNOWN_SL})),
    ("il-references-unknown-sl", _entry_unknown_sl(), frozenset({UNKNOWN_SL})),
    ("shared-cu-vnfd", _entry_shared_cu_vnfd(),
     frozenset({SHARED_CU_VNFD, SHARED_VNFD_SINGLE_REF})),
    ("cu-vnfd-referenced-twice", _entry_cu_vnfd_multi_ref(),
     frozenset({CU_VNFD_MULTI_REF})),
    ("cu-sl-il-mismatch", _entry_cu_il_mismatch(), frozenset({CU_IL_MISMATCH})),
    ("aux-il-mismatch", _entry_aux_il_mismatch(), frozenset({AUX_IL_MISMATCH})),
    ("shared-vnfd-single-ref", _entry_shared_single_ref(),
     frozenset({SHARED_VNFD_SINGLE_REF, AUX_VNFD_MISMATCH})),
    ("pnfd-without-connectivity", _entry_no_connectivity_points(),
     frozenset({NO_CONNECTIVITY_POINTS})),
    ("flavour-zero-vcpus", _entry_bad_vcpus(), frozenset({BAD_VCPU_COUNT})),
    ("vnfd-without-flavours", _entry_empty_vnfd(),
     frozenset({EMPTY_VNFD, UNKNOWN_FLAVOUR, CU_IL_MISMATCH})),
    ("nsst-missing-fields", _entry_missing_fields(), frozenset({MISSING_FIELD})),
    ("flavour-zero-frequency", _entry_bad_flavour(), frozenset({BAD_FLAVOUR})),
    ("nsd-without-ils", _entry_empty_ils(), frozenset({EMPTY_ILS})),
    ("scale-level-without-constituents", _entry_empty_scale_level(),
     frozenset({EMPTY_SCALE_LEVEL, CU_IL_MISMATCH})),
    ("unresolved-aux-on-unshared-du", _entry_unresolved_aux_on_unshared_du(),
     frozenset({UNRESOLVED_REF})),
    ("aux-flavour-on-unshared-du", _entry_aux_flavour_on_unshared_du(),
     frozenset({AUX_IL_MISMATCH, AUX_VNFD_MISMATCH})),
    ("multi-constituent-dedicated-du-sl", _entry_multi_constituent_du_sl(shared_du=False),
     frozenset({MULTI_CONSTITUENT_DU_SL})),
    ("multi-constituent-shared-du-sl", _entry_multi_constituent_du_sl(shared_du=True),
     frozenset({MULTI_CONSTITUENT_DU_SL})),
    ("aux-over-two-du-vnfds", _entry_aux_vnfd_mismatch(), frozenset({AUX_VNFD_MISMATCH})),
    ("duplicate-cu-id", _entry_duplicate_cu_id(), frozenset({DUPLICATE_CU_ID})),
    ("empty-subtype-duplicates-a-slice-key", _entry_empty_subtype(),
     frozenset({DUPLICATE_SNSSAI})),
    ("cu-id-of-an-engine-instance", _entry_reserved_cu_id(), frozenset({RESERVED_CU_ID})),
]
