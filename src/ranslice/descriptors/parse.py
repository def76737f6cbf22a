"""Parsing of descriptor documents into a typed DescriptorSet, and back.

A document is a YAML (or JSON) mapping whose top-level keys name the
descriptor kind: ``ran_nsst``, ``gnb_nsd``, ``vnfd``, ``pnfd``,
``aux_nsd``. Each value is either one descriptor mapping or a list of
them. The dataclasses of ``model`` are the schema: a record is read and
written field by field in declaration order, each field's shape taken
from its annotation and default. Parsing checks shape and field types
only; cross-references stay symbolic and structural invariants are
checked by ``validate``, so that an incomplete descriptor parses and is
reported as a finding rather than a parse error. The exception is
enumerated fields (service type, RLC mode, HARQ target), whose
membership is part of the schema.
"""

from __future__ import annotations

import enum
import functools
from collections import abc
from dataclasses import MISSING, fields, is_dataclass
from typing import (IO, Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar,
                    get_args, get_origin, get_type_hints)

import yaml

from ..errors import RansliceError
from .model import (
    AuxiliaryNsd,
    DescriptorSet,
    GnbNsd,
    Pnfd,
    RanNsst,
    SliceProfile,
    Snssai,
    Vnfd,
)

T = TypeVar("T")

# Each document kind, in canonical order: the DescriptorSet field that
# holds its descriptors, and their record class.
KINDS = {
    "ran_nsst": ("nssts", RanNsst),
    "gnb_nsd": ("gnb_nsds", GnbNsd),
    "vnfd": ("vnfds", Vnfd),
    "pnfd": ("pnfds", Pnfd),
    "aux_nsd": ("aux_nsds", AuxiliaryNsd),
}

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


def _ids(m: Mapping[str, Any], key: str, doc: str, path: str, values: dict) -> tuple[str, ...]:
    where = f"{path}.{key}"
    refs = _as_list(m.get(key, []), doc, where)
    if not all(isinstance(r, str) for r in refs):
        raise DescriptorSyntaxError(doc, f"{where}: references must be strings")
    return tuple(refs)


def _slice_profile(m: Mapping[str, Any], key: str, doc: str, path: str,
                   values: dict) -> SliceProfile | None:
    """The NSST's slice profile, which configures the NSST's own snssai
    (read before it); the document does not repeat the snssai."""
    obj = m.get(key)
    if obj is None:
        return None
    where = f"{path}.{key}"
    pm = _as_map(obj, doc, where)
    if values["snssai"] is None:
        raise DescriptorSyntaxError(doc, f"{where}: slice_profile requires a snssai on the NSST")
    return _read(SliceProfile, pm, doc, where, snssai=values["snssai"])


# A reader takes the record's mapping, the field name, the document name,
# the record's path and the fields read so far, and returns the field.
_Reader = Callable[[Mapping[str, Any], str, str, str, dict], Any]


def _reader(hint: Any, required: bool, default: Any) -> _Reader:
    """The reader of a field annotated ``hint``: a tuple of records or of
    ids (absent: empty), the fcaps map, a sub-record (absent: None), an
    enum, or a scalar (absent: ``default``, or an error if ``required``
    and the hint does not admit None)."""
    args = get_args(hint)
    if type(None) in args:
        (hint,) = (a for a in args if a is not type(None))
        required = False
    origin = get_origin(hint)
    if origin is tuple:
        item = get_args(hint)[0]
        if not is_dataclass(item):
            return _ids
        return lambda m, key, doc, path, values: tuple(
            _read(item, em, doc, where) for em, where in _entries(m, key, doc, path))
    if origin is abc.Mapping:
        return lambda m, key, doc, path, values: _parse_fcaps(m.get(key), doc, f"{path}.{key}")
    if hint is SliceProfile:
        return _slice_profile
    if is_dataclass(hint):
        def sub_record(m, key, doc, path, values):
            obj = m.get(key)
            return None if obj is None else _read(hint, obj, doc, f"{path}.{key}")
        return sub_record
    if issubclass(hint, enum.Enum):
        return lambda m, key, doc, path, values: _get_enum(m, key, hint, doc, path)
    return lambda m, key, doc, path, values: _get(m, key, hint, doc, path, required, default)


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, _Reader, bool], ...]:
    """The fields of the record class ``cls`` that its document mapping
    holds, in declaration order: each one's name, reader, and whether the
    writer omits it when empty (a collection whose default is empty). A
    slice profile's snssai is its NSST's and is not among them."""
    hints = get_type_hints(cls)
    schema = []
    for f in fields(cls):
        if cls is SliceProfile and f.name == "snssai":
            continue
        default = (f.default if f.default is not MISSING
                   else f.default_factory() if f.default_factory is not MISSING else None)
        required = f.default is MISSING and f.default_factory is MISSING
        omit_empty = isinstance(default, (tuple, abc.Mapping)) and not default
        schema.append((f.name, _reader(hints[f.name], required, default), omit_empty))
    return tuple(schema)


def _read(cls: type[T], obj: Any, doc: str, path: str, **given: Any) -> T:
    """The ``cls`` record that the mapping ``obj`` at ``path`` holds, read
    field by field in declaration order; ``given`` fields are not read."""
    m = _as_map(obj, doc, path)
    for name, read, _ in _schema(cls):
        if name not in given:
            given[name] = read(m, name, doc, path, given)
    return cls(**given)


def parse_snssai(obj: Any, doc: str, path: str) -> Snssai:
    return _read(Snssai, obj, doc, path)


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
    buckets: dict[str, dict[str, Any]] = {attr: {} for attr, _ in KINDS.values()}
    seen_ids: set[str] = set()
    for i, raw in enumerate(documents):
        doc = names[i] if names is not None else f"doc-{i}"
        content = _load_document(raw, doc) if isinstance(raw, str) else _as_map(raw, doc, "document")
        for kind, value in content.items():
            if kind not in KINDS:
                raise DescriptorSyntaxError(doc, f"unknown descriptor kind {kind!r}")
            attr, cls = KINDS[kind]
            for entry in value if isinstance(value, list) else [value]:
                m = _as_map(entry, doc, kind)
                record_id = _get(m, "id", str, doc, kind, required=True)
                record = _read(cls, m, doc, f"{kind}[{record_id}]", id=record_id)
                if record_id in seen_ids:
                    raise DuplicateIdError(record_id)
                seen_ids.add(record_id)
                buckets[attr][record_id] = record
    return DescriptorSet(**buckets)


def _plain(v: Any) -> Any:
    if isinstance(v, (str, int, float)):
        return v
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, enum.Enum):
        return v.value
    return _to_dict(v) if is_dataclass(v) else dict(v)


def _to_dict(record: Any) -> dict[str, Any]:
    """The document mapping of ``record``: its fields in declaration
    order, without None and without an empty collection that defaults to
    empty; enums as their values, tuples as lists."""
    out: dict[str, Any] = {}
    for name, _, omit_empty in _schema(type(record)):
        v = getattr(record, name)
        if v is not None and not (omit_empty and not v):
            out[name] = _plain(v)
    return out


def serialize_descriptor_set(ds: DescriptorSet) -> dict[str, Any]:
    """Canonical single-document form of a DescriptorSet: kinds in fixed
    order, descriptors sorted by id, optional absent fields omitted.
    ``parse_descriptor_set([serialize_descriptor_set(ds)])`` equals ds."""
    out: dict[str, Any] = {}
    for kind, (attr, _) in KINDS.items():
        records = getattr(ds, attr)
        if records:
            out[kind] = [_to_dict(records[k]) for k in sorted(records)]
    return out
