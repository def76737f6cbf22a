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

The simulation config is read and written by the same ``read_record``
and ``write_record`` from its own dataclasses. A field's metadata may
name its document key (``key``), the sub-mapping that holds it
(``section``), a function that parses its mapping (``parse``), accept
the string "inf" as a number (``inf``) or ask for a non-empty list
(``nonempty``); a class decorated ``closed`` rejects keys its fields do
not name.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import abc
from dataclasses import MISSING, fields, is_dataclass
from operator import attrgetter
from typing import (IO, Any, Callable, Iterable, Sequence, TypeVar, get_args, get_origin,
                    get_type_hints)

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


class FieldError(RansliceError):
    """A mapping that the schema does not accept: the path of the
    offending field or mapping (empty at the top level) and what is wrong
    with it. Each entry point turns it into its own error type."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(_at(path, message, ": "))


def _as_map(obj: Any, path: str) -> abc.Mapping:
    if obj.__class__ is not dict and not isinstance(obj, abc.Mapping):
        raise FieldError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _as_list(obj: Any, path: str) -> abc.Sequence:
    if not isinstance(obj, abc.Sequence) or isinstance(obj, (str, bytes)):
        raise FieldError(path, f"expected a list, got {type(obj).__name__}")
    return obj


_EXPECTED = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


def get_field(m: abc.Mapping, key: str, kind: type, path: str, required: bool = False,
              default: Any = None, inf: bool = False) -> Any:
    """Field ``key`` of ``m``, checked to be a ``kind`` (str, int, float or
    bool), or ``default`` when absent. A bool is neither an int nor a
    float here, and an int read as a float comes back as a float; with
    ``inf``, the string "inf" or "infinity" (any case) is infinity."""
    v = m.get(key)
    if v is None:
        if required:
            raise FieldError(_at(path, key), "missing required field")
        return default
    if inf and isinstance(v, str) and v.lower() in ("inf", "infinity"):
        return math.inf
    accepted = (int, float) if kind is float else kind
    if not isinstance(v, accepted) or (isinstance(v, bool) and kind is not bool):
        raise FieldError(_at(path, key), f"expected {_EXPECTED[kind]}")
    return float(v) if kind is float else v


def _parse_fcaps(obj: Any, path: str) -> dict[str, Any]:
    if obj is None:
        return {}
    m = _as_map(obj, path)
    out: dict[str, Any] = {}
    for k, v in m.items():
        if not isinstance(k, str):
            raise FieldError(path, "fcaps keys must be strings")
        if v is not None and not isinstance(v, (str, int, float, bool)):
            raise FieldError(f"{path}.{k}", "fcaps values must be scalars")
        out[k] = v
    return out


def _ids(m: abc.Mapping, key: str, path: str, values: dict) -> tuple[str, ...]:
    where = _at(path, key)
    refs = _as_list(m.get(key, ()), where)
    if not all(isinstance(r, str) for r in refs):
        raise FieldError(where, "references must be strings")
    return tuple(refs)


def _slice_profile(m: abc.Mapping, key: str, path: str, values: dict) -> SliceProfile | None:
    """The NSST's slice profile, which configures the NSST's own snssai
    (read before it); the document does not repeat the snssai."""
    obj = m.get(key)
    if obj is None:
        return None
    where = _at(path, key)
    pm = _as_map(obj, where)
    if values["snssai"] is None:
        raise FieldError(where, "slice_profile requires a snssai on the NSST")
    return read_record(SliceProfile, pm, where, snssai=values["snssai"])


def _check_keys(m: abc.Mapping, known: frozenset, path: str) -> None:
    if not known.issuperset(m):
        unknown = next(k for k in m if k not in known)
        raise FieldError(path, f"unknown key {unknown!r}; expected one of "
                               f"{', '.join(sorted(known))}")


# A reader takes the record's mapping, the field's key, the record's path
# and the fields read so far, and returns the field. A writer turns the
# field's value into its document form; None writes it as it is.
_Reader = Callable[[abc.Mapping, str, str, dict], Any]
_Writer = Callable[[Any], Any]


def _in_section(read: _Reader, section: str, keys: frozenset) -> _Reader:
    """``read`` applied to the sub-mapping ``section`` of the record's
    mapping (absent: empty), which may hold only ``keys``."""
    def read_in(m, key, path, values):
        where = _at(path, section)
        sm = m.get(section)
        sm = {} if sm is None else _as_map(sm, where)
        _check_keys(sm, keys, where)
        return read(sm, key, where, values)
    return read_in


def _accessors(hint: Any, required: bool, default: Any,
               meta: abc.Mapping) -> tuple[_Reader, _Writer | None]:
    """The reader and writer of a field annotated ``hint`` (not None): a
    tuple of records or of ids (absent: empty), the fcaps map, a
    sub-record, an enum, or a scalar (absent: ``default``, or an error if
    ``required``)."""
    origin = get_origin(hint)
    if origin is tuple:
        item = get_args(hint)[0]
        if not is_dataclass(item):
            return _ids, list
        nonempty = meta.get("nonempty", False)

        def records(m, key, path, values):
            where = _at(path, key)
            entries = _as_list(m.get(key, ()), where)
            if nonempty and not entries:
                raise FieldError(where, "expected a non-empty list" if key in m
                                 else "missing required field")
            return tuple([read_record(item, e, f"{where}[{i}]") for i, e in enumerate(entries)])
        return records, lambda v: [write_record(r) for r in v]
    if origin is abc.Mapping:
        return (lambda m, key, path, values: _parse_fcaps(m.get(key), _at(path, key))), dict
    if hint is SliceProfile:
        return _slice_profile, write_record
    if is_dataclass(hint):
        parse = meta.get("parse", functools.partial(read_record, hint))

        def sub_record(m, key, path, values):
            obj = m.get(key)
            if obj is not None:
                return parse(obj, _at(path, key))
            if required:
                raise FieldError(_at(path, key), "missing required field")
            return default
        return sub_record, write_record
    if issubclass(hint, enum.Enum):
        parse = getattr(hint, "from_str", hint)   # the enum's own parser, else by value

        def enum_member(m, key, path, values):
            raw = get_field(m, key, str, path, required)
            if raw is None:
                return default
            try:
                return parse(raw)
            except ValueError:
                allowed = ", ".join(member.value for member in hint)
                raise FieldError(_at(path, key), f"{raw!r} not one of {allowed}") from None
        return enum_member, attrgetter("value")
    inf = meta.get("inf", False)

    def scalar(m, key, path, values):
        v = m.get(key)   # a value of the field's own type is taken as it is
        return v if v.__class__ is hint else get_field(m, key, hint, path, required, default, inf)
    return scalar, None


_CLOSED: set[type] = set()


def closed(cls: type[T]) -> type[T]:
    """Class decorator: a mapping read as a ``cls`` record may hold no
    key but its fields' (an unknown key is a FieldError)."""
    _CLOSED.add(cls)
    return cls


@functools.cache
def _schema(cls: type) -> tuple[tuple, tuple, frozenset | None]:
    """The fields of the record class ``cls`` that its document mapping
    holds, in declaration order: (name, document key, reader) for each
    one; (name, key, writer, whether the writer omits it when empty) for
    each one not in a section (omitted: an empty collection that defaults
    to empty); and, for a closed class, the keys its mapping may hold. A
    slice profile's snssai is its NSST's and is not among them."""
    hints = get_type_hints(cls)
    keys: dict[str, Any] = {}   # each key, or a section's keys under it
    entries = []
    for f in fields(cls):
        if cls is SliceProfile and f.name == "snssai":
            continue
        hint = hints[f.name]
        default = (f.default if f.default is not MISSING
                   else f.default_factory() if f.default_factory is not MISSING else None)
        required = f.default is MISSING and f.default_factory is MISSING
        args = get_args(hint)
        if type(None) in args:
            (hint,) = (a for a in args if a is not type(None))
            required = False
        key, section = f.metadata.get("key", f.name), f.metadata.get("section")
        (keys.setdefault(section, {}) if section else keys)[key] = None
        omit_empty = isinstance(default, (tuple, abc.Mapping)) and not default
        entries.append((f.name, key, section, *_accessors(hint, required, default, f.metadata),
                        omit_empty))
    return (tuple((name, key, _in_section(read, section, frozenset(keys[section]))
                   if section else read) for name, key, section, read, _, _ in entries),
            tuple((name, key, write, omit_empty)
                  for name, key, section, _, write, omit_empty in entries if not section),
            frozenset(keys) if cls in _CLOSED else None)


def read_record(cls: type[T], obj: Any, path: str = "", **given: Any) -> T:
    """The ``cls`` record that the mapping ``obj`` at ``path`` holds, read
    field by field in declaration order; ``given`` fields are not read. A
    ValueError from the record's constructor is a FieldError at ``path``."""
    m = _as_map(obj, path)
    readers, _, known = _schema(cls)
    if known is not None:
        _check_keys(m, known, path)
    for name, key, read in readers:
        if name not in given:
            given[name] = read(m, key, path, given)
    try:
        return cls(**given)
    except ValueError as exc:
        raise FieldError(path, str(exc)) from exc


def write_record(record: Any) -> dict[str, Any]:
    """The document mapping of ``record``: its fields in declaration
    order, without None and without an empty collection that defaults to
    empty; enums as their values, tuples as lists. A field read from a
    section is not written."""
    out: dict[str, Any] = {}
    for name, key, write, omit_empty in _schema(type(record))[1]:
        v = getattr(record, name)
        if v is not None and not (omit_empty and not v):
            out[key] = v if write is None else write(v)
    return out


def parse_snssai(obj: Any, path: str) -> Snssai:
    """The slice identifier that the mapping ``obj`` holds, read as a
    record of its own: an error names ``path``, then the field within it
    (``profiles[1].snssai: service_type: missing required field``). It
    may hold no key but its fields (a descriptor's snssai stays open)."""
    try:
        m = _as_map(obj, "")
        _check_keys(m, frozenset(key for _, key, _ in _schema(Snssai)[0]), "")
        return read_record(Snssai, m)
    except FieldError as exc:
        raise FieldError(path, str(exc)) from None


def _load_document(text: str, doc: str) -> abc.Mapping:
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
    return _as_map(loaded, "document")


def parse_descriptor_set(documents: Iterable[str | abc.Mapping],
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
        try:
            content = (_load_document(raw, doc) if isinstance(raw, str)
                       else _as_map(raw, "document"))
            for kind, value in content.items():
                if kind not in KINDS:
                    raise DescriptorSyntaxError(doc, f"unknown descriptor kind {kind!r}")
                attr, cls = KINDS[kind]
                for entry in value if isinstance(value, list) else [value]:
                    m = _as_map(entry, kind)
                    record_id = get_field(m, "id", str, kind, required=True)
                    record = read_record(cls, m, f"{kind}[{record_id}]", id=record_id)
                    if record_id in seen_ids:
                        raise DuplicateIdError(record_id)
                    seen_ids.add(record_id)
                    buckets[attr][record_id] = record
        except FieldError as exc:
            raise DescriptorSyntaxError(doc, str(exc)) from None
    return DescriptorSet(**buckets)


def serialize_descriptor_set(ds: DescriptorSet) -> dict[str, Any]:
    """Canonical single-document form of a DescriptorSet: kinds in fixed
    order, descriptors sorted by id, optional absent fields omitted.
    ``parse_descriptor_set([serialize_descriptor_set(ds)])`` equals ds."""
    out: dict[str, Any] = {}
    for kind, (attr, _) in KINDS.items():
        records = getattr(ds, attr)
        if records:
            out[kind] = [write_record(records[k]) for k in sorted(records)]
    return out
