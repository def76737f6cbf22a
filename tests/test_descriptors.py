from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS
from helpers import build_descriptor_set, build_documents

import ranslice
from ranslice.descriptors import parse as parse_module
from ranslice.descriptors import (
    DescriptorSyntaxError,
    DuplicateIdError,
    ServiceType,
    Snssai,
    parse_descriptor_set,
    serialize_descriptor_set,
    validate,
)
from ranslice.descriptors.validate import (
    INCOMPLETE_IL,
    MISSING_AUXILIARY_NSD,
    RESERVED_CU_ID,
    UNRESOLVED_REF,
)
from ranslice.orchestrator import AdmittedDrb
from ranslice.topology import Drb, DrbQos, dedicated_du_ids, shared_cu_id, shared_du_ids


def test_parse_empty_document_list():
    ds = parse_descriptor_set([])
    assert len(ds) == 0
    assert ds.snssais() == []


def test_parse_two_slice_template_hierarchy():
    # Two NSSTs, each referencing its own gNB NSD; both NSDs reference
    # one shared DU VNFD, so the set holds 2 CU VNFDs + 1 DU VNFD.
    ds = build_descriptor_set(n_slices=2)
    assert len(ds.nssts) == 2
    assert len(ds.gnb_nsds) == 2
    assert len(ds.vnfds) == 3
    shared = [v for v in ds.vnfds.values() if v.shared]
    assert len(shared) == 1
    assert {nsd.du_vnfd_ref for nsd in ds.gnb_nsds.values()} == {shared[0].id}


def test_parse_duplicate_id_collision():
    doc = yaml.safe_dump({"vnfd": [
        {"id": "du-1", "shared": False, "ils": []},
        {"id": "du-1", "shared": False, "ils": []},
    ]})
    with pytest.raises(DuplicateIdError) as excinfo:
        parse_descriptor_set([doc])
    assert excinfo.value.dup_id == "du-1"


def test_parse_duplicate_id_across_kinds():
    doc = yaml.safe_dump({
        "vnfd": {"id": "x", "ils": []},
        "pnfd": {"id": "x", "cps": []},
    })
    with pytest.raises(DuplicateIdError):
        parse_descriptor_set([doc])


def test_parse_rejects_malformed_yaml():
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set(["vnfd: [unclosed"], names=["broken.yaml"])
    assert "broken.yaml" in str(excinfo.value)


DEMO = Path(__file__).parent.parent / "demo"
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML built without libyaml")
LOADERS = [pytest.param(yaml.SafeLoader, id="SafeLoader"),
           pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                        marks=needs_libyaml)]


def assert_loaders_agree(text: str) -> None:
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(text, Loader=yaml.CSafeLoader) == expected


@needs_libyaml
def test_c_loader_loads_what_the_python_loader_loads():
    paths = sorted((DEMO / "descriptors").iterdir()) + [DEMO / "config.yaml"]
    for path in paths:
        assert_loaders_agree(path.read_text(encoding="utf-8"))
    for text in build_documents(n_slices=3):
        assert_loaders_agree(text)


scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False), st.text(max_size=12))
nested = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=20)


@needs_libyaml
@settings(max_examples=100, deadline=None)
@given(doc=st.dictionaries(st.text(max_size=8), nested, max_size=5))
def test_c_loader_loads_what_the_python_loader_loads_generated(doc):
    assert_loaders_agree(yaml.safe_dump(doc))


def test_parse_is_the_same_under_the_python_loader(monkeypatch):
    texts = build_documents(n_slices=3)
    expected = parse_descriptor_set(texts)
    monkeypatch.setattr(parse_module, "YAML_LOADER", yaml.SafeLoader)
    assert parse_descriptor_set(texts) == expected


@pytest.mark.parametrize("with_libyaml", [
    False, pytest.param(True, marks=needs_libyaml)])
def test_loader_is_chosen_from_the_libyaml_flag(with_libyaml):
    code = (f"import yaml\nyaml.__with_libyaml__ = {with_libyaml}\n"
            "from ranslice.descriptors import parse\n"
            "print(parse.YAML_LOADER.__name__)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ranslice.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == ("CSafeLoader" if with_libyaml else "SafeLoader")


@pytest.mark.parametrize("loader", LOADERS)
def test_syntax_error_line_mid_document(monkeypatch, loader):
    monkeypatch.setattr(parse_module, "YAML_LOADER", loader)
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set(["a: 1\n b: 2\n"], names=["indent.yaml"])
    assert excinfo.value.line == 2
    assert str(excinfo.value).startswith("indent.yaml:2: invalid YAML")


# At the end of the stream libyaml marks the line after the last one and
# quotes no source snippet; the pure-Python parser marks the last line.
@pytest.mark.parametrize("loader, line, snippet", [
    pytest.param(yaml.SafeLoader, 1, True, id="SafeLoader"),
    pytest.param(getattr(yaml, "CSafeLoader", None), 2, False, id="CSafeLoader",
                 marks=needs_libyaml)])
def test_syntax_error_line_at_end_of_stream(monkeypatch, loader, line, snippet):
    monkeypatch.setattr(parse_module, "YAML_LOADER", loader)
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set(["vnfd: [unclosed"], names=["broken.yaml"])
    assert excinfo.value.line == line
    assert ("vnfd: [unclosed\n" in str(excinfo.value)) is snippet


def test_parse_rejects_unknown_kind():
    with pytest.raises(DescriptorSyntaxError):
        parse_descriptor_set([yaml.safe_dump({"mystery": {"id": "a"}})])


def test_parse_rejects_bad_service_type():
    doc = yaml.safe_dump({"ran_nsst": {"id": "n1", "snssai": {"service_type": "broadband"}}})
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set([doc])
    assert "service_type" in str(excinfo.value)


def test_parse_rejects_wrong_field_type():
    doc = yaml.safe_dump({"vnfd": {"id": "v", "ils": [
        {"id": "fl", "vcpus": "two", "cpu_ghz": 2.0, "mem_gb": 4.0}]}})
    with pytest.raises(DescriptorSyntaxError):
        parse_descriptor_set([doc])


def _vnfd_doc(**overrides):
    vnfd = {"id": "v", "shared": False,
            "ils": [{"id": "fl", "vcpus": 2, "cpu_ghz": 2.0, "mem_gb": 4.0}]}
    flavour = vnfd["ils"][0]
    for key, value in overrides.items():
        target = vnfd if key in vnfd else flavour
        if value is None:
            del target[key]
        else:
            target[key] = value
    return yaml.safe_dump({"vnfd": vnfd})


@pytest.mark.parametrize("overrides, message", [
    ({"id": 5}, "doc-0: vnfd.id: expected a string"),
    ({"vcpus": "two"}, "doc-0: vnfd[v].ils[0].vcpus: expected an integer"),
    ({"vcpus": True}, "doc-0: vnfd[v].ils[0].vcpus: expected an integer"),
    ({"vcpus": 2.0}, "doc-0: vnfd[v].ils[0].vcpus: expected an integer"),
    ({"cpu_ghz": "fast"}, "doc-0: vnfd[v].ils[0].cpu_ghz: expected a number"),
    ({"cpu_ghz": False}, "doc-0: vnfd[v].ils[0].cpu_ghz: expected a number"),
    ({"shared": "yes"}, "doc-0: vnfd[v].shared: expected a boolean"),
    ({"shared": 1}, "doc-0: vnfd[v].shared: expected a boolean"),
    ({"mem_gb": None}, "doc-0: vnfd[v].ils[0].mem_gb: missing required field"),
], ids=["str", "int", "int-bool", "int-float", "num", "num-bool", "bool", "bool-int",
        "missing"])
def test_parse_field_type_error_text(overrides, message):
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set([_vnfd_doc(**overrides)])
    assert str(excinfo.value) == message


def _sa(**fields):
    return dict({"id": "sa"}, **fields)


# Each list field of the schema: a document holding ``value`` there, the
# path the field's errors name, and a well-formed entry.
LIST_FIELDS = {
    "constituents": (lambda v: {"gnb_nsd": {"id": "g", "sa_cu": _sa(sls=[
        {"id": "sl", "constituents": v}])}}, "gnb_nsd[g].sa_cu.sls[0].constituents",
        {"constituent_ref": "cu", "instance_count": 1, "flavour_ref": "fl"}),
    "sls": (lambda v: {"gnb_nsd": {"id": "g", "sa_du": _sa(sls=v)}}, "gnb_nsd[g].sa_du.sls",
            {"id": "sl"}),
    "gnb-nsd-ils": (lambda v: {"gnb_nsd": {"id": "g", "ils": v}}, "gnb_nsd[g].ils",
                    {"id": "il"}),
    "vnfd-ils": (lambda v: {"vnfd": {"id": "v", "ils": v}}, "vnfd[v].ils",
                 {"id": "fl", "vcpus": 1, "cpu_ghz": 1.0, "mem_gb": 1.0}),
    "cps": (lambda v: {"pnfd": {"id": "p", "cps": v}}, "pnfd[p].cps",
            {"name": "cp", "gbps": 1.0}),
    "aux-nsd-ils": (lambda v: {"aux_nsd": {"id": "a", "ils": v}}, "aux_nsd[a].ils",
                    {"id": "il", "du_count": 1, "du_il_ref": "fl"}),
}


@pytest.mark.parametrize("field", LIST_FIELDS)
def test_a_list_field_that_is_not_a_list_names_its_path(field):
    make, path, _ = LIST_FIELDS[field]
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set([yaml.safe_dump(make(3))])
    assert str(excinfo.value) == f"doc-0: {path}: expected a list, got int"


@pytest.mark.parametrize("field", LIST_FIELDS)
def test_a_list_entry_that_is_not_a_mapping_names_its_index(field):
    make, path, entry = LIST_FIELDS[field]
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set([yaml.safe_dump(make([3]))])
    assert str(excinfo.value) == f"doc-0: {path}[0]: expected a mapping, got int"
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set([yaml.safe_dump(make([entry, 3]))])
    assert str(excinfo.value) == f"doc-0: {path}[1]: expected a mapping, got int"


@pytest.mark.parametrize("doc, message", [
    ({"ran_nsst": {"id": "n", "snssai": 0}},
     "doc-0: ran_nsst[n].snssai: expected a mapping, got int"),
    ({"ran_nsst": {"id": "n", "snssai": {"service_type": "eMBB"}, "slice_profile": "x"}},
     "doc-0: ran_nsst[n].slice_profile: expected a mapping, got str"),
    ({"gnb_nsd": {"id": "g", "sa_cu": 0}}, "doc-0: gnb_nsd[g].sa_cu: expected a mapping, got int"),
    ({"gnb_nsd": {"id": "g", "sa_du": False}},
     "doc-0: gnb_nsd[g].sa_du: expected a mapping, got bool"),
], ids=["snssai", "slice_profile", "sa_cu", "sa_du"])
def test_a_scalar_optional_sub_record_is_a_syntax_error(doc, message):
    # A falsy scalar is present, not absent: only None (or no key) is.
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set([yaml.safe_dump(doc)])
    assert str(excinfo.value) == message


def test_a_slice_profile_needs_the_snssai_of_its_nsst():
    profile = yaml.safe_load(build_documents(n_slices=1)[0])["ran_nsst"]["slice_profile"]
    with pytest.raises(DescriptorSyntaxError) as excinfo:
        parse_descriptor_set([yaml.safe_dump({"ran_nsst": {"id": "n", "slice_profile": profile}})])
    assert str(excinfo.value) == (
        "doc-0: ran_nsst[n].slice_profile: slice_profile requires a snssai on the NSST")


def test_serialize_omits_every_absent_field_of_a_sparse_set():
    # No subtype, fcaps, refs, profile or scaling aspects; an empty
    # ru_pnfd_refs; an IL without du_sl; a VNFD with no ILs. An empty IL
    # list is kept. The text comparison pins the key order too.
    ds = parse_descriptor_set([yaml.safe_dump({
        "ran_nsst": {"id": "n", "snssai": {"service_type": "eMBB"}},
        "gnb_nsd": [{"id": "g", "ils": [{"id": "il-1", "cu_sl": "cu-1"}], "ru_pnfd_refs": []},
                    {"id": "g2"}],
        "vnfd": {"id": "v"},
    })])
    expected = {
        "ran_nsst": [{"id": "n", "snssai": {"service_type": "eMBB"}}],
        "gnb_nsd": [{"id": "g", "cu_id": "g-cu", "ils": [{"id": "il-1", "cu_sl": "cu-1"}]},
                    {"id": "g2", "cu_id": "g2-cu", "ils": []}],
        "vnfd": [{"id": "v", "shared": False, "ils": []}],
    }
    assert json.dumps(serialize_descriptor_set(ds)) == json.dumps(expected)


def test_parse_reads_numbers_as_float_and_defaults_absent_bools():
    ds = parse_descriptor_set([_vnfd_doc(cpu_ghz=3, shared=None)])
    flavour = ds.vnfds["v"].ils[0]
    assert type(flavour.cpu_ghz) is float and flavour.cpu_ghz == 3.0
    assert type(flavour.vcpus) is int
    assert ds.vnfds["v"].shared is False


def test_parse_keeps_unresolved_refs_symbolic():
    doc = yaml.safe_dump({"ran_nsst": {
        "id": "n1", "snssai": {"service_type": "eMBB"}, "gnb_nsd_ref": "nowhere"}})
    ds = parse_descriptor_set([doc])
    assert ds.nssts["n1"].gnb_nsd_ref == "nowhere"
    assert UNRESOLVED_REF in validate(ds).codes()


def test_validate_two_slice_set_is_clean(ds_two_slices):
    report = validate(ds_two_slices)
    assert report.ok, str(report)


def test_unresolved_vnfd_refs_and_missing_aspects_are_reported_in_order():
    ds = parse_descriptor_set([yaml.safe_dump({"gnb_nsd": [
        {"id": "g1", "cu_vnfd_ref": "nowhere"},
        {"id": "g2", "du_vnfd_ref": "elsewhere", "sa_cu": {"id": "sa"}},
    ]})])
    assert str(validate(ds)).splitlines() == [
        "UnresolvedRef: gnb_nsd[g1]: cu_vnfd_ref 'nowhere' does not resolve",
        "MissingField: gnb_nsd[g1]: du_vnfd_ref missing",
        "MissingField: gnb_nsd[g1]: sa_cu missing",
        "MissingField: gnb_nsd[g1]: sa_du missing",
        "EmptyIls: gnb_nsd[g1]: no instantiation levels declared",
        "MissingField: gnb_nsd[g2]: cu_vnfd_ref missing",
        "UnresolvedRef: gnb_nsd[g2]: du_vnfd_ref 'elsewhere' does not resolve",
        "EmptyScalingAspect: gnb_nsd[g2].sa_cu: scale level list is empty",
        "MissingField: gnb_nsd[g2]: sa_du missing",
        "EmptyIls: gnb_nsd[g2]: no instantiation levels declared",
    ]


def test_validate_shared_du_without_aux():
    docs = build_documents(n_slices=2)
    loaded = [yaml.safe_load(d) for d in docs]
    for doc in loaded:
        if "gnb_nsd" in doc:
            del doc["gnb_nsd"]["aux_nsd_ref"]
    report = validate(parse_descriptor_set(loaded))
    assert MISSING_AUXILIARY_NSD in report.codes()


def test_validate_incomplete_il():
    loaded = [yaml.safe_load(d) for d in build_documents(n_slices=2)]
    for doc in loaded:
        if "gnb_nsd" in doc:
            del doc["gnb_nsd"]["ils"][0]["du_sl"]
    report = validate(parse_descriptor_set(loaded))
    assert INCOMPLETE_IL in report.codes()
    assert any("du_sl" in f.detail for f in report.findings if f.code == INCOMPLETE_IL)


def _nsd_with_three_ils():
    # 2 CU SLs x 2 DU SLs, but only 3 declared ILs.
    loaded = [yaml.safe_load(d) for d in build_documents(n_slices=2)]
    for doc in loaded:
        if "gnb_nsd" in doc:
            doc["gnb_nsd"]["ils"] = [
                {"id": "il-1", "cu_sl": "cu-sl-1", "du_sl": "du-sl-1"},
                {"id": "il-2", "cu_sl": "cu-sl-1", "du_sl": "du-sl-2"},
                {"id": "il-3", "cu_sl": "cu-sl-2", "du_sl": "du-sl-2"},
            ]
    return parse_descriptor_set(loaded)


def test_enumerate_ils_matches_declared_table():
    # Oracle: the table written by hand from the documents above.
    ds = _nsd_with_three_ils()
    nsd = next(iter(ds.gnb_nsds.values()))
    assert [(il.id, il.cu_sl, il.du_sl) for il in nsd.ils] == [
        ("il-1", "cu-sl-1", "du-sl-1"),
        ("il-2", "cu-sl-1", "du-sl-2"),
        ("il-3", "cu-sl-2", "du-sl-2"),
    ]


def test_enumerate_ils_singleton():
    ds = build_descriptor_set(n_slices=2, full_il_product=False)
    nsd = next(iter(ds.gnb_nsds.values()))
    assert [(il.id, il.cu_sl, il.du_sl) for il in nsd.ils] == [("il-1-1", "cu-sl-1", "du-sl-1")]


def test_il_combines_one_sl_per_sa():
    # An IL is the combination of two SLs, one per scaling aspect; the
    # second IL here combines CU SL #1 with DU SL #2.
    ds = _nsd_with_three_ils()
    nsd = next(iter(ds.gnb_nsds.values()))
    il = nsd.ils[1]
    assert (il.id, il.cu_sl, il.du_sl) == ("il-2", "cu-sl-1", "du-sl-2")


def test_every_il_selects_one_sl_per_sa(ds_three_slices):
    for nsd in ds_three_slices.gnb_nsds.values():
        cu_ids = nsd.sa_cu.sl_ids()
        du_ids = nsd.sa_du.sl_ids()
        for il in nsd.ils:
            assert il.cu_sl in cu_ids
            assert il.du_sl in du_ids


def test_shared_vnfd_sl_identity_across_referencing_nsds(ds_three_slices):
    # The DU scale-level ids must be identical across every NSD that
    # references the shared VNFD, and identical to the auxiliary IL ids.
    ds = ds_three_slices
    aux = next(iter(ds.aux_nsds.values()))
    aux_ids = [il.id for il in aux.ils]
    for nsd in ds.gnb_nsds.values():
        if ds.du_vnfd(nsd).shared:
            assert nsd.sa_du.sl_ids() == aux_ids


def test_cu_vnfds_dedicated_and_referenced_once(ds_three_slices):
    ds = ds_three_slices
    referrers: dict[str, int] = {}
    for nsd in ds.gnb_nsds.values():
        referrers[nsd.cu_vnfd_ref] = referrers.get(nsd.cu_vnfd_ref, 0) + 1
        assert not ds.cu_vnfd(nsd).shared
    assert all(count == 1 for count in referrers.values())


def test_serialize_parse_roundtrip(ds_two_slices, ds_three_slices):
    for ds in (ds_two_slices, ds_three_slices):
        canonical = serialize_descriptor_set(ds)
        reparsed = parse_descriptor_set([canonical])
        assert reparsed == ds
        assert serialize_descriptor_set(reparsed) == canonical


def test_serialize_roundtrip_through_yaml_text(ds_two_slices):
    text = yaml.safe_dump(serialize_descriptor_set(ds_two_slices))
    assert parse_descriptor_set([text]) == ds_two_slices


def _parses(docs) -> bool:
    try:
        parse_descriptor_set(docs)
    except (DescriptorSyntaxError, DuplicateIdError):
        return False
    return True


PARSED_CORPUS = [docs for _, docs, _ in CORPUS if _parses(docs)]
built_documents = st.builds(
    build_documents, n_slices=st.integers(1, 4),
    du_counts=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    cu_vcpus=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple),
    shared_du=st.booleans(), full_il_product=st.booleans())


@settings(max_examples=150, deadline=None)
@given(docs=st.one_of(built_documents, st.sampled_from(PARSED_CORPUS)))
def test_serialize_parse_roundtrip_generated(docs):
    ds = parse_descriptor_set(docs)
    canonical = serialize_descriptor_set(ds)
    assert parse_descriptor_set([canonical]) == ds
    assert parse_descriptor_set([yaml.safe_dump(canonical)]) == ds


def test_gnb_nsd_cu_id_defaults_to_the_nsd_id_when_absent_or_empty():
    doc = yaml.safe_dump({"gnb_nsd": [{"id": "g"}, {"id": "h", "cu_id": ""}]})
    ds = parse_descriptor_set([doc])
    assert [nsd.cu_id for nsd in ds.gnb_nsds.values()] == ["g-cu", "h-cu"]


def test_every_instance_id_the_engine_generates_is_a_reserved_cu_id():
    embb, video = Snssai(ServiceType.EMBB), Snssai(ServiceType.EMBB, "video-1")
    reserved = [shared_cu_id(), *shared_du_ids(12), *dedicated_du_ids(embb, 2),
                *dedicated_du_ids(video, 2)]
    # Ids the engine does not generate for this set's slices.
    free = ["cu-shared-1", "du-shared-0", "du-shared", "du-uRLLC-1", "du-eMBB.video-1",
            "du-eMBB-01", "cu-eMBB"]
    loaded = [yaml.safe_load(d) for d in build_documents(n_slices=2)]
    nssts = [doc["ran_nsst"] for doc in loaded if "ran_nsst" in doc]
    nssts[1]["snssai"] = {"service_type": "eMBB", "subtype": "video-1"}
    nsds = [doc["gnb_nsd"] for doc in loaded if "gnb_nsd" in doc]
    for cu_id in reserved + free:
        nsds[0]["cu_id"] = cu_id
        codes = validate(parse_descriptor_set(loaded)).codes()
        assert codes == ({RESERVED_CU_ID} if cu_id in reserved else set()), cu_id


def test_snssai_key_formatting():
    assert Snssai(ServiceType.EMBB).key() == "eMBB"
    assert Snssai(ServiceType.MMTC, "meters").key() == "mMTC.meters"


def test_snssai_is_interned_across_construction_copy_and_pickle():
    s = Snssai(ServiceType.MMTC, "meters")
    assert Snssai(service_type=ServiceType.MMTC, subtype="meters") is s
    assert dataclasses.replace(Snssai(ServiceType.MMTC), subtype="meters") is s
    assert dataclasses.replace(s) is s
    assert copy.copy(s) is s and copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(s)) is s
    assert Snssai(ServiceType.EMBB) is Snssai(ServiceType.EMBB, None)
    assert Snssai(ServiceType.EMBB) is not Snssai(ServiceType.EMBB, "meters")


def test_threads_building_one_new_snssai_get_one_object():
    subtype = f"race-{os.getpid()}-{id(object())}"    # new to this process
    barrier = threading.Barrier(8)

    def build(_):
        barrier.wait()
        return Snssai(ServiceType.URLLC, subtype)

    with ThreadPoolExecutor(max_workers=8) as pool:
        built = list(pool.map(build, range(8)))
    assert all(b is built[0] for b in built)
    assert Snssai(ServiceType.URLLC, subtype) is built[0]


def test_records_trusted_by_identity_stay_frozen():
    # SubnetInstance._folded trusts an admitted-DRB tuple by identity, and
    # slices key dicts by identity: neither may change once built.
    s = Snssai(ServiceType.EMBB)
    drb = Drb("d1", s, DrbQos(5.0, 20.0, 0.99))
    for record, name, value in ((s, "subtype", "x"), (drb, "drb_id", "d2"),
                                (AdmittedDrb(drb, 3, 4, 0.5), "est_prbs", 4)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)


def test_snssai_equality_and_hash_survive_deepcopy():
    s = Snssai(ServiceType.URLLC, "robots")
    clone = copy.deepcopy(s)
    assert clone == s and hash(clone) == hash(s)
    assert copy.deepcopy({s: 1})[s] == 1


def test_snssai_pickled_under_another_hash_seed_is_found_as_a_dict_key():
    # Hashes differ between processes (by PYTHONHASHSEED, and by address
    # for an identity hash), so unpickling must give this process's object.
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = ("import pickle, sys\n"
            "from ranslice.descriptors import ServiceType, Snssai\n"
            "s = Snssai(ServiceType.URLLC, 'robots')\n"
            "sys.stdout.write(pickle.dumps(s).hex())\n")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(ranslice.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    s = pickle.loads(bytes.fromhex(proc.stdout))
    here = Snssai(ServiceType.URLLC, "robots")
    assert s is here
    assert {here: "found"}[s] == "found"


def test_validation_report_string_lists_findings():
    loaded = [yaml.safe_load(d) for d in build_documents(n_slices=2)]
    for doc in loaded:
        if "gnb_nsd" in doc:
            doc["gnb_nsd"]["ru_pnfd_refs"] = ["pnfd-missing"]
    report = validate(parse_descriptor_set(loaded))
    assert not report.ok
    assert "pnfd-missing" in str(report)


def test_finding_codes_are_distinct():
    # The corpus matches on exact code strings: every code constant of the
    # validator is distinct, and at least one corpus entry expects it.
    module = sys.modules[validate.__module__]   # the package re-exports the function
    codes = [value for name, value in vars(module).items()
             if name.isupper() and isinstance(value, str)]
    assert len(codes) > 20
    assert len(set(codes)) == len(codes)
    expected = set().union(*(labels for _, _, labels in CORPUS))
    assert not set(codes) - expected, f"no corpus entry expects {sorted(set(codes) - expected)}"
