"""Core domain model: provenance records, rights vectors, verified licenses,
usage scenarios, and their canonical JSON documents.

All types are immutable values (:class:`Value`). Every document type derives
``to_dict`` and ``from_dict`` from its fields (:class:`Document`).
A value's ``__init__`` is compiled per class on first use (:class:`_Compiled`),
so importing compiles nothing. A document's ``_encode`` is interpreted; its
``_decode`` is too, until its ``_HOT``-th (100th) call in the process compiles
it, so a class a run decodes a few times never pays for ``compile()``.
Only that per-class frame is compiled: each field's decoder is one function,
which both tiers call.
Every value is built one way: its fields come from its ``__init__``, which
a copy made by :func:`replace` also calls, or, for a document read from JSON,
from its ``_decode`` in either tier, which builds the value without calling
``__init__``; both store all the fields in its ``__dict__`` at once, and then
its class's ``__post_init__``, if any, finishes it. ``__init__`` takes the
fields as keywords only, exactly when a required field follows a defaulted one.
Canonical serialization writes every field in declaration order, so equal
values always produce byte-identical documents, and
``from_dict(to_dict(x)) == x`` holds by construction.
Validation functions do not raise on bad domain data; they return a list of
violations so callers can report all problems at once. Parsing, by contrast,
raises :class:`ParseError` because a document that cannot be decoded has no
value to report on.
"""

from __future__ import annotations

import collections.abc
import itertools
import marshal
import sys
import types
import warnings
from enum import Enum
from functools import cached_property
from typing import Any, Callable, ClassVar, Iterable, Mapping, NoReturn, Sequence, Union
from typing import get_args, get_origin

from . import jsonio
from .errors import ParseError, UnknownFieldWarning


class SubjectKind(str, Enum):
    DATASET = "dataset"
    WEBSITE = "website"
    SEARCH_ENGINE = "search_engine"


class TriState(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class LicenseFoundVia(str, Enum):
    OFFICIAL_WEBSITE = "official_website"
    PACKAGED_FILE = "packaged_file"
    OWNER_CONTACT = "owner_contact"
    NONE_FOUND = "none_found"


class Grant(str, Enum):
    GRANTED = "granted"
    DENIED = "denied"
    UNSPECIFIED = "unspecified"


class ObligationKind(str, Enum):
    ATTRIBUTION = "attribution"
    CITE = "cite"
    LINK_LICENSE = "link_license"
    SHARE_ALIKE = "share_alike"
    INDICATE_CHANGES = "indicate_changes"
    TAKEDOWN = "takedown"
    INDEMNIFY = "indemnify"
    OTHER = "other"


class CaptureStatus(str, Enum):
    IN_RANGE = "in_range"
    OUT_OF_RANGE_FALLBACK = "out_of_range_fallback"
    UNAVAILABLE = "unavailable"


# Fixed right-name spaces. Custom rights may extend these but never shadow them.
STANDALONE_RIGHTS: tuple[str, ...] = ("Access", "Tagging", "Distribute", "Rerepresent")
MODEL_RIGHTS: tuple[str, ...] = (
    "Benchmark",
    "Research",
    "Publish",
    "InternalUse",
    "CommercializeOutput",
    "CommercializeModel",
    "ModelReverseEngineer",
)
FIXED_RIGHTS: tuple[str, ...] = STANDALONE_RIGHTS + MODEL_RIGHTS

# Expected hex digest lengths per algorithm.
DIGEST_HEX_LENGTHS: dict[str, int] = {
    "md5": 32,
    "sha1": 40,
    "sha224": 56,
    "sha256": 64,
    "sha384": 96,
    "sha512": 128,
}


# Not used here: the bench's tracer finds it in this module (span model.serialize).
canonical_json = jsonio.canonical_json

MISSING = object()  # the default of a field that has none (``codec_field``)
EMPTY_MAPPING = types.MappingProxyType({})  # a mapping field's default; no value can change it


class _Compiled:
    """A method made from the fields of the class it is first looked up
    through (:func:`_define`), which puts it in the descriptor's place:
    ``__init__`` compiled; ``_encode`` interpreted; ``_decode`` interpreted
    until its ``_HOT``-th (100th) call compiles its frame, which calls the
    same field decoders. Each class holds its own descriptors, so one made
    for a base is no subclass's."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type) -> Any:
        return _define(owner, self.name).__get__(instance, owner)


class Value:
    """Base of the package's immutable values. A subclass's fields
    (``_fields``) are the names its own class statement annotates, but
    ``ClassVar``s. A field's default is its class attribute (of a
    ``codec_field``, its ``default``); a field with none is required.
    ``__init__``, compiled for a class on its first call through it
    (:class:`_Compiled`), stores the fields in one dict and runs
    ``__post_init__``, which sets a field through ``object.__setattr__``.
    It and a document's decoder are the only ways to build a value; a copy
    (:func:`replace`) calls it. Equality, hashing, ``repr`` and the refusal
    to change a field are shared."""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Strings: every module has ``from __future__ import annotations``.
        cls._fields = tuple(n for n, tp in cls.__annotations__.items() if not tp.startswith("ClassVar"))
        cls.__init__ = _Compiled("__init__")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    # A frozen dataclass's error, imported only here, so that no normal run loads dataclasses.
    def __setattr__(self, name: str, value: Any) -> NoReturn:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def replace(value: Any, **changes: Any) -> Any:
    """A copy of a value with the named fields changed, built by its class's
    ``__init__``, which checks them again; a name that is no field raises TypeError."""
    return value.__class__(**{name: getattr(value, name) for name in value._fields} | changes)


class Violation(Value):
    """One broken invariant, named by field and rule. Violations are data."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


# ---------------------------------------------------------------------------
# Document codec
# ---------------------------------------------------------------------------

# Where a value sits in a document: a root name, or a chain (parent, key) with
# an int key for an array index. Chains are rendered into text such as
# ``lineage.records[3].subject_kind`` only when an error or warning names them.
DocPath = Union[str, tuple]

_SCALAR_NAMES = {str: "string", int: "integer", bool: "boolean"}
# How many values a shared document class keeps before it forgets them all.
_SHARED_LIMIT = 4096
# The call of a class's ``_decode`` that compiles it (:func:`_codec`):
# where the interpreter's extra time reaches one compile. Compile time over extra
# time per call had a median of 95 over the shipped bundles' codecs, 102 on wide's.
_HOT = 100
# Each annotation of a document class, by module and string, evaluated once.
_evaluated: dict[tuple[str, str], Any] = {}
# Counts unknown-field warnings, with the marks Document.from_dict takes
# around a decode: next() is atomic, so a warning in any thread shows.
_warned = itertools.count()


def render_path(path: DocPath) -> str:
    keys = []
    while isinstance(path, tuple):
        path, key = path
        keys.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return path + "".join(reversed(keys))


def parse_error(path: DocPath, message: str) -> NoReturn:
    raise ParseError(render_path(path), message)


def wrong_type(path: DocPath, expected: str, value: Any) -> NoReturn:
    parse_error(path, f"expected {expected}, got {type(value).__name__}")


def _bad_member(path: DocPath, value: Any, members: Mapping[str, Enum]) -> NoReturn:
    if not isinstance(value, str):
        wrong_type(path, "string", value)
    parse_error(path, f"invalid value {value!r}; expected one of: {', '.join(members)}")


def _unknown_fields(path: DocPath, data: Mapping, known: frozenset, strict: bool) -> None:
    unknown = sorted(data.keys() - known)
    if strict:
        parse_error(path, f"unknown fields: {unknown}")
    next(_warned)
    # Attributed to the caller of Document.from_dict, above the decoder of either tier.
    warnings.warn(
        f"{render_path(path)}: ignoring unknown fields {unknown}", UnknownFieldWarning, stacklevel=4
    )


# What compiled decoder frames call, and __name__, which makes them this module's functions.
_CODEC_SCOPE = {"__name__": __name__, "Mapping": collections.abc.Mapping} | {
    f.__name__: f for f in (wrong_type, _unknown_fields, parse_error)
}


def _field_codec(
    tp: Any, nested: bool = False, optional: bool = False
) -> tuple[Callable[[Any, DocPath, bool], Any], Callable[[Any], Any] | None]:
    """One walk of a field type, case by case: the functions ``decode(x, path,
    strict)``, which reads a JSON value, not None unless ``nested``, found at the
    document path ``path``, and ``encode(value)``, which writes a value as JSON
    (None when it is JSON already). Both tiers of a class's ``_decode`` call the
    same ``decode``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType) and type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        dec, enc = _field_codec(inner, nested, optional=True)
        return (
            # A field's own value is decoded only when it is not None.
            (lambda y, p, s: None if y is None else dec(y, p, s)) if nested else dec,
            enc and (lambda v: None if v is None else enc(v)),
        )
    if tp in _SCALAR_NAMES:
        expected = _SCALAR_NAMES[tp] + (" or null" if optional else "")
        refused = bool if tp is int else None  # bool is a subclass of int, but never an integer here
        return lambda y, p, s: (
            y if isinstance(y, tp) and y.__class__ is not refused else wrong_type(p, expected, y)), None
    if isinstance(tp, type) and issubclass(tp, Enum):
        values = {m.value: m for m in tp}
        return (
            lambda y, p, s: values[y] if isinstance(y, str) and y in values else _bad_member(p, y, values),
            lambda v: v.value,
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        dec, enc = _field_codec(args[0], nested=True)
        exact = frozenset([str] if args[0] is str else [])  # names: one C-level check, not one call each
        return (
            lambda y, p, s: (tuple(y) if exact.issuperset(map(type, y))
                             else tuple([dec(z, (p, i), s) for i, z in enumerate(y)]))
            if isinstance(y, (list, tuple)) else wrong_type(p, "array", y),
            list if enc is None else lambda v: [enc(z) for z in v],
        )
    if origin is collections.abc.Mapping and args[0] is str:
        dec, enc = _field_codec(args[1], nested=True)
        return (
            lambda y, p, s: {k: dec(z, (p, k), s) for k, z in y.items()}
            if y.__class__ is dict or isinstance(y, Mapping) else wrong_type(p, "object", y),
            dict if enc is None else lambda v: {k: enc(z) for k, z in v.items()},
        )
    if isinstance(tp, type) and issubclass(tp, Document):
        # Decoded through from_dict, so a wrapped from_dict sees every call but a
        # hit in a shared class's memo, which is served here, without the call or
        # the document path it would be given; a miss marshals twice.
        if (memo := tp._shared) is None:
            return (lambda y, p, s: tp.from_dict(y, p, s)), lambda v: tp._encode(v)

        def dec(y: Any, p: DocPath, s: bool) -> Any:
            try:
                hit = memo.get(marshal.dumps(y, 2))
            except ValueError:  # not made of exact built-in types: no memo holds it
                hit = None
            return tp.from_dict(y, p, s) if hit is None else hit
        return dec, lambda v: tp._encode(v)
    raise TypeError(f"no document codec for type {tp!r}")


# A field's default, ``default`` or none, that has it read by ``decode``, a plain function of
# ``(value, path)``, instead of its type's decoder; it is written from its type as usual.
codec_field = collections.namedtuple("codec_field", "decode default", defaults=(MISSING,))


def _compile(cls: type, name: str, params: Iterable[str], body: Iterable[str], scope: dict) -> Any:
    """Compile ``def name(params): body`` in ``scope`` and put it on ``cls``."""
    source = f"def {name}({', '.join(params)}):\n    " + "\n    ".join(body)
    # The file name <codec Owner> makes a profile or traceback name the class.
    exec(compile(source, f"<codec {cls.__name__}>", "exec"), scope)
    function = scope[name]
    function.__qualname__ = f"{cls.__name__}.{name}"
    setattr(cls, name, function)
    return function


def _define(cls: type, name: str) -> Callable[..., Any]:
    """Put ``name`` on a value class: the codec interpreted, or ``__init__``
    compiled, which takes the fields, keyword-only if a required one follows a
    defaulted one; its scope's names start with ``__``, which no field name can."""
    if name == "__init__":
        declared, defaults, _, scope, store = _layout(cls)
        params = [f"{f}=__default_{f}" if f in defaults else f for f in declared]
        defaulted = [f in defaults for f in declared]  # sorted: every required field first
        params = ["self", *(["*"] if defaulted != sorted(defaulted) else []), *params]
        return _compile(cls, name, params, store(declared), scope)
    interpreted, _ = _codec(cls)
    for method, function in interpreted.items():
        setattr(cls, method, function)
    return interpreted[name]


def _layout(cls: type) -> tuple:
    """A class's fields, defaults, decode hooks, compile scope and ``store``."""
    declared, defaults, hooks = cls._fields, {}, {}
    for f in declared:
        if isinstance(default := vars(cls).get(f, MISSING), codec_field):
            hooks[f], default = default
        if default is not MISSING:
            defaults[f] = default
    scope: dict[str, Any] = {"__setattr": object.__setattr__, "__new": object.__new__}
    scope |= {f"__default_{f}": default for f, default in defaults.items()}

    def store(values: Iterable[str]) -> list[str]:
        """Give ``self`` its fields, the expressions ``values``, in one dict; then ``__post_init__``."""
        pairs = ", ".join(f"{f!r}: {value}" for f, value in zip(declared, values))
        post_init = ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
        return [f"__setattr(self, '__dict__', {{{pairs}}})", *post_init]

    return declared, defaults, hooks, scope, store


def _codec(cls: type, hot: int = _HOT) -> tuple[dict[str, Callable], Callable[[], Callable]]:
    """A document class's ``_decode`` and ``_encode``, by name, from one walk of its
    fields, and ``compiled()``, which compiles a ``_decode`` frame over the same field
    decoders and puts it on the class; the interpreted ``_decode`` runs it at its
    ``hot``-th call (none, for 0). ``_decode`` checks the object and its unknown fields
    and the missing ones, then reads each field in declaration order: null means its
    default, and a value of the field's exact scalar type, if any, is kept as it is."""
    declared, defaults, hooks, scope, store = _layout(cls)
    required = tuple(f for f in declared if f not in defaults)
    known, post_init = frozenset(declared), getattr(cls, "__post_init__", None)
    scope.update(_CODEC_SCOPE, cls=cls, known=known, required=required)
    decoded_fields, codecs, decoder = [], [], [
        "if data.__class__ is not dict and not isinstance(data, Mapping):",
        "    wrong_type(path, 'object', data)",
        "if not known.issuperset(data):",
        "    _unknown_fields(path, data, known, strict)",
        *(f"v_{f} = data.get({f!r})" for f in declared),
    ]
    if required:
        values = ", ".join(f"v_{f}" for f in required)
        decoder += [
            "if " + " or ".join(f"v_{f} is None" for f in required) + ":",
            f"    missing = sorted(n for n, v in zip(required, ({values},)) if v is None)",
            "    parse_error(path, f'missing required fields: {missing}')",
        ]
    namespace = vars(sys.modules[cls.__module__])
    for f in declared:
        # Annotations are strings; eval costs a third of what get_type_hints does.
        if (key := (cls.__module__, cls.__annotations__[f])) not in _evaluated:
            _evaluated[key] = eval(key[1], namespace)
        tp, v = _evaluated[key], f"v_{f}"
        dec, enc = _field_codec(tp)
        exact = next((t for t in _SCALAR_NAMES if tp in (t, t | None)), None)
        if f in hooks:
            dec, exact = (lambda y, p, s, hook=hooks[f]: hook(y, p)), None
        scope[f"__decode_{f}"], decoded = dec, f"__decode_{f}({v}, (path, {f!r}), strict)"
        if exact is not None:
            decoded = f"{v} if {v}.__class__ is {exact.__name__} else {decoded}"
        if f in defaults:
            decoded = f"__default_{f} if {v} is None else {decoded}"
        decoded_fields.append(decoded)
        codecs.append((f, defaults.get(f), exact, dec, enc))
    decoder += ["self = __new(cls)", *store(decoded_fields), "return self"]
    decodes = itertools.count(1)

    def compiled() -> Callable[..., Any]:
        return _compile(cls, "_decode", ["data", "path", "strict"], decoder, scope)

    def _decode(data: Any, path: DocPath, strict: bool) -> Any:
        if next(decodes) == hot:
            compiled()
        if data.__class__ is not dict and not isinstance(data, Mapping):
            wrong_type(path, "object", data)
        if not known.issuperset(data):
            _unknown_fields(path, data, known, strict)
        if None in map(data.get, required):
            missing = sorted(f for f in required if data.get(f) is None)
            parse_error(path, f"missing required fields: {missing}")
        self = object.__new__(cls)
        object.__setattr__(self, "__dict__", {
            f: default if (v := data.get(f)) is None else v if v.__class__ is exact
            else dec(v, (path, f), strict) for f, default, exact, dec, _ in codecs})
        if post_init:
            post_init(self)
        return self

    def _encode(self: Any) -> dict[str, Any]:
        return {f: getattr(self, f) if enc is None else enc(getattr(self, f)) for f, _, _, _, enc in codecs}

    _decode.__qualname__, _encode.__qualname__ = f"{cls.__name__}._decode", f"{cls.__name__}._encode"
    return {"_decode": _decode, "_encode": _encode}, compiled


class Document(Value):
    """Base of every JSON document type: ``to_dict`` writes the fields in
    declaration order; ``from_dict`` reads them back, type-checked,
    with null meaning the field's default. Each class's ``_encode`` is
    interpreted, and its ``_decode`` too for ``_HOT`` (100) calls, then a
    compiled frame over the same field decoders, so both tiers give the
    same values, errors and warnings (:func:`_codec`); ``from_dict`` calls
    ``_decode`` directly, so a warning names its caller. ``_decode`` builds
    the value itself, the one way besides ``__init__`` to build a value:
    one ``__dict__`` store and ``__post_init__``, with no ``__init__`` call.
    A nested document is decoded through its class's ``from_dict``, but for
    a hit in a shared class's memo, which its field decoder serves itself.

    A subclass names the root of its error paths, as in
    ``class Digest(Document, path="digest")``. With ``shared=True``, equal
    documents decode to one value, kept in ``_shared`` (hash-consing) under
    the document's ``marshal`` bytes (version 2, which marks neither shared
    nor interned objects, so equal JSON gives equal bytes). Marshal refuses
    every object that is not an exact built-in type (a mapping proxy, a dict
    or str subclass, an enum member), and such a document is decoded afresh;
    on exact built-in types it is injective: ``true``, ``1`` and ``1.0``
    differ, and so do a list and a tuple. Only a decode that succeeded
    without an unknown-field warning, in any thread, is kept, so every error
    and warning recurs.
    """

    _path: ClassVar[str]
    _shared: ClassVar[dict[bytes, Any] | None]

    def __init_subclass__(cls, path: str, shared: bool = False, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._path, cls._shared = path, {} if shared else None
        cls._encode, cls._decode = _Compiled("_encode"), _Compiled("_decode")
        # Each class holds its own entries, so a profiler can wrap one class's
        # codec methods without touching the others.
        cls.to_dict = Document.to_dict  # type: ignore[method-assign]
        cls.from_dict = Document.__dict__["from_dict"]  # type: ignore[method-assign]

    def to_dict(self) -> dict[str, Any]:
        return self._encode()

    @classmethod
    def from_dict(cls, data: Any, path: DocPath | None = None, strict: bool = True) -> Any:
        path, shared, key = cls._path if path is None else path, cls._shared, None
        if shared is not None:
            try:
                key = marshal.dumps(data, 2)
            except ValueError:  # not made of exact built-in types: decoded afresh
                pass
            else:
                if (value := shared.get(key)) is not None:
                    return value
                mark = next(_warned)
        try:
            value = cls._decode(data, path, strict)
        except ValueError as exc:  # a rule across fields, checked by __post_init__
            parse_error(path, str(exc))
        if key is not None and next(_warned) == mark + 1:
            if len(shared) >= _SHARED_LIMIT:
                shared.clear()
            shared[key] = value
        return value


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


class Digest(Document, path="digest"):
    """A content digest: algorithm name plus lowercase hex string."""

    algorithm: str
    hex: str


class ProvenanceRecord(Document, path="provenance"):
    """Origin metadata, license-location evidence, and content digests for one
    dataset or data source."""

    subject_id: str
    subject_kind: SubjectKind
    dataset_name: str
    dataset_version: str | None = None
    origin_year: int | None = None
    origin_url: str
    description: str = ""
    collection_process: str = ""
    downloaded_outlet: str | None = None
    outlet_licensed: TriState
    publicly_available: TriState
    notes: str = ""
    license_found_via: LicenseFoundVia
    license_location: str | None = None
    license_content: str | None = None
    digest: Digest | None = None
    size_bytes: int | None = None
    archive_format: str | None = None


def validate_provenance(record: ProvenanceRecord) -> list[Violation]:
    """Check a provenance record against its invariants.

    Empty report means the record is clean. Violations name the field and the
    broken rule; they are returned, never raised.
    """
    report: list[Violation] = []
    if not record.subject_id.strip():
        report.append(Violation("subject_id", "must be nonempty"))
    if record.subject_kind is SubjectKind.DATASET and record.origin_year is None:
        report.append(Violation("origin_year", "required for subjects of kind 'dataset'"))
    if record.origin_year is not None and record.origin_year <= 0:
        report.append(Violation("origin_year", "must be a positive year"))
    if (
        record.license_found_via is LicenseFoundVia.NONE_FOUND
        and record.license_content is not None
    ):
        report.append(
            Violation("license_content", "must be absent when license_found_via is 'none_found'")
        )
    if record.digest is not None:
        algorithm = record.digest.algorithm.lower()
        expected = DIGEST_HEX_LENGTHS.get(algorithm)
        if expected is None:
            report.append(Violation("digest", f"unknown digest algorithm {record.digest.algorithm!r}"))
        else:
            if len(record.digest.hex) != expected:
                report.append(
                    Violation(
                        "digest",
                        f"hex length {len(record.digest.hex)} does not match "
                        f"{algorithm} digest length {expected}",
                    )
                )
            if any(c not in "0123456789abcdefABCDEF" for c in record.digest.hex):
                report.append(Violation("digest", "hex string contains non-hex characters"))
    if record.size_bytes is not None and record.size_bytes < 0:
        report.append(Violation("size_bytes", "must be nonnegative"))
    return report


# ---------------------------------------------------------------------------
# License range
# ---------------------------------------------------------------------------


class LicenseRange(Document, path="range"):
    """Two consecutive years bracketing when a dataset's contents were likely
    collected. ``start_year`` is always ``end_year - 1``."""

    start_year: int
    end_year: int

    def __post_init__(self) -> None:
        if self.start_year != self.end_year - 1:
            raise ValueError(
                f"license range must span exactly two consecutive years, "
                f"got [{self.start_year}, {self.end_year}]"
            )

    @classmethod
    def ending_at(cls, origin_year: int) -> "LicenseRange":
        return cls(origin_year - 1, origin_year)

    def __contains__(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year


# ---------------------------------------------------------------------------
# Rights and obligations
# ---------------------------------------------------------------------------


class Obligation(Document, path="obligation"):
    """A requirement attached to a right. Identity for set union is the id
    token; wording may vary across licenses that impose the same duty."""

    id: str
    text: str
    kind: ObligationKind


def merge_obligations(groups: Iterable[Sequence[Obligation]]) -> tuple[Obligation, ...]:
    """Union obligation lists by id, keeping the first occurrence of each id.

    Idempotent, commutative and associative up to id-equality; the surviving
    wording is the earliest one seen, so pass the authoritative list first.
    """
    seen: dict[str, Obligation] = {}
    for group in groups:
        for obligation in group:
            if obligation.id not in seen:
                seen[obligation.id] = obligation
    return tuple(seen.values())


# ``decode_grant_name(value, path, strict)``: a grant's name, as its member.
decode_grant_name = _field_codec(Grant)[0]


def _decode_grant(value: Any, path: DocPath) -> Grant:
    # Boolean shorthand: true marks the right granted, false denied.
    if isinstance(value, bool):
        return Grant.GRANTED if value else Grant.DENIED
    return decode_grant_name(value, path, True)


class RightEntry(Document, path="right", shared=True):
    """Grant state plus the obligations owed when the right is exercised. When
    built, it records the ids it repeats in its slot ``_duplicate_ids``, not a
    field, so :func:`validate_rights_vector` checks each shared entry once."""

    __slots__ = ("_duplicate_ids",)

    grant: Grant = codec_field(decode=_decode_grant)
    obligations: tuple[Obligation, ...] = ()

    def __post_init__(self) -> None:
        ids = [o.id for o in self.obligations]
        repeated = {i for i in ids if ids.count(i) > 1} if len(set(ids)) < len(ids) else ()
        object.__setattr__(self, "_duplicate_ids", tuple(sorted(repeated)))

    def __reduce__(self) -> tuple:  # a copy or an unpickled entry records it again
        return RightEntry, (self.grant, self.obligations)


class LicenseMetadata(Document, path="metadata"):
    """Descriptive header of a license interpretation."""

    licensor: str
    license_name: str
    dataset_name: str
    dataset_version: str | None = None
    credit_notice: str | None = None
    validity_period: str | None = None
    liability_warranty: str | None = None
    designated_third_parties: str | None = None
    additional_conditions: str | None = None


def _ordered_rights(entries: Mapping[str, RightEntry], fixed: tuple[str, ...]) -> dict[str, RightEntry]:
    """A new dict of a rights map, with the fixed names first in canonical order."""
    if tuple(entries)[:len(fixed)] == fixed:  # a complete group, or any custom map
        return dict(entries)
    # Merging keeps each key where it was first inserted.
    return {**{name: entries[name] for name in fixed if name in entries}, **entries}


class RightsVector(Document, path="vector"):
    """One license decomposed into metadata, standalone-data rights, rights in
    conjunction with models, and optional custom rights. The vector holds its
    own copy of each rights map, made by ``__post_init__`` however it is
    built, so a caller that edits a map it passed in does not change the
    vector."""

    metadata: LicenseMetadata
    standalone_rights: Mapping[str, RightEntry]
    model_rights: Mapping[str, RightEntry]
    custom_rights: Mapping[str, RightEntry] = EMPTY_MAPPING

    def __post_init__(self) -> None:
        fields = self.__dict__  # each group is replaced by its copy, before anyone reads it
        fields["standalone_rights"] = _ordered_rights(fields["standalone_rights"], STANDALONE_RIGHTS)
        fields["model_rights"] = _ordered_rights(fields["model_rights"], MODEL_RIGHTS)
        fields["custom_rights"] = dict(fields["custom_rights"])

    def rights_by_name(self) -> dict[str, RightEntry]:
        """Every right's entry from the first group that names it: standalone,
        then model, then custom; one new dict, for a caller that looks up
        many names."""
        # A later group's entry is overwritten by an earlier one's.
        return {**self.custom_rights, **self.model_rights, **self.standalone_rights}

    def entry(self, right_name: str) -> RightEntry | None:
        """The right's entry as :meth:`rights_by_name` finds it, or None."""
        return self.rights_by_name().get(right_name)

    def grant(self, right_name: str) -> Grant:
        """The recorded grant, with Unspecified for rights never mentioned."""
        entry = self.entry(right_name)
        return entry.grant if entry is not None else Grant.UNSPECIFIED


def validate_rights_vector(vector: RightsVector) -> list[Violation]:
    """Check completeness of the fixed right sets and custom-key disjointness."""
    report: list[Violation] = []
    groups = vector.__dict__
    for attr, fixed, foreign in (
        ("standalone_rights", STANDALONE_RIGHTS, "not a standalone right"),
        ("model_rights", MODEL_RIGHTS, "not a model-conjunction right"),
    ):
        group = groups[attr]
        if tuple(group) != fixed:  # a complete group is ordered as the fixed names
            report += [Violation(f"{attr}.{n}", "missing right") for n in fixed if n not in group]
            report += [Violation(f"{attr}.{n}", foreign) for n in group if n not in fixed]
    for name in groups["custom_rights"]:
        if name in FIXED_RIGHTS:
            report.append(Violation(f"custom_rights.{name}", "custom key collides with fixed right"))
    for group_name in ("standalone_rights", "model_rights", "custom_rights"):
        for right_name, entry in groups[group_name].items():
            if entry._duplicate_ids:
                report.append(Violation(
                    f"{group_name}.{right_name}", f"duplicate obligation ids: {list(entry._duplicate_ids)}"))
    return report


# ---------------------------------------------------------------------------
# Verified license
# ---------------------------------------------------------------------------


class AuditInfo(Document, path="audit"):
    """Reproducibility trailer attached to emitted verified licenses."""

    engine_version: str
    inputs_digest: str
    policy: Mapping[str, bool]
    template_digests: Mapping[str, str] = EMPTY_MAPPING
    generated_at: str | None = None


class VerifiedLicense(Document, path="verified"):
    """The effective rights of a root dataset after restrictive-wins
    reconciliation against every interpreted lineage node.

    ``rights`` preserves the root's literal grant wherever no data source
    restricts it; a right the root granted but some source denied is recorded
    Denied with those sources listed in ``restrictors``. ``changed`` holds the
    rights whose grant differs from the root's own vector, and
    ``residual_risk_flags`` the nodes whose license content was unavailable
    and therefore could not be checked at all.
    """

    root_id: str
    rights: Mapping[str, RightEntry]
    restrictors: Mapping[str, tuple[str, ...]]
    changed: tuple[str, ...]
    residual_risk_flags: tuple[str, ...]
    audit: AuditInfo | None = None

    def grant(self, right_name: str) -> Grant:
        entry = self.rights.get(right_name)
        return entry.grant if entry is not None else Grant.UNSPECIFIED

    @cached_property
    def canonical_text(self) -> str:
        """Its canonical JSON, rendered once: the store's digest, blob and every JSON report share it."""
        return jsonio.canonical_json(self.to_dict())


# ---------------------------------------------------------------------------
# Usage scenarios and assessment tables
# ---------------------------------------------------------------------------


# ``decode_names(value, path, strict)``: an array of strings, as a tuple.
decode_names = _field_codec(tuple[str, ...])[0]


def _decode_required_rights(value: Any, path: DocPath) -> tuple[str, ...]:
    rights = decode_names(value, path, True)
    if not rights:
        parse_error(path, "must be a nonempty array")
    return rights


class UsageScenario(Document, path="scenario"):
    """A commercial action to check, expressed as the rights it needs."""

    id: str
    required_rights: tuple[str, ...] = codec_field(decode=_decode_required_rights)

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.required_rights))
        if not deduped:
            raise ValueError(f"scenario {self.id!r} must require at least one right")
        object.__setattr__(self, "required_rights", deduped)


class _BlockingRight(Document, path="blocking_right"):
    """A right that blocks a denied scenario, with the sources that denied it."""

    right: str
    restrictors: tuple[str, ...] = ()


class AssessmentRow(Document, path="row"):
    """One scenario's decision: permitted flag, obligation ids owed, and the
    rights (with their restrictors) that block a denied scenario."""

    scenario_id: str
    permitted: bool
    obligations: tuple[str, ...]
    blocking_rights: tuple[_BlockingRight, ...]


class AssessmentTable(Document, path="assessment"):
    """Per-scenario decisions for one dataset, plus the obligation legend and
    an advisory list of obligation ids attached to granted rights no shipped
    scenario asked about."""

    dataset_id: str
    dataset_name: str
    rows: tuple[AssessmentRow, ...]
    obligation_legend: Mapping[str, Obligation]
    advisory_obligations: tuple[str, ...] = ()
