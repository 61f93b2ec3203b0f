"""Core domain model: provenance records, rights vectors, verified licenses,
usage scenarios, and their canonical JSON documents.

All types are immutable values. Every document type derives ``to_dict`` and
``from_dict`` from its dataclass fields through one codec, built once per
class (:class:`Document`). Canonical serialization writes every field in
declaration order, so equal values always produce byte-identical documents,
and ``from_dict(to_dict(x)) == x`` holds by construction. Validation
functions do not raise on bad domain data; they return a list of violations
so callers can report all problems at once. Parsing, by contrast, raises
:class:`ParseError` because a document that cannot be decoded has no value to
report on.
"""

from __future__ import annotations

import collections.abc
import json
import types
import warnings
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Mapping, NoReturn, Sequence, Union
from typing import get_args, get_origin, get_type_hints

from .errors import InputError, ParseError, UnknownFieldWarning


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


def canonical_json(doc: Any) -> str:
    """Render a document dict exactly as it is written to disk."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def read_input(path: Path) -> bytes:
    """The bytes of an input file; raises InputError when it cannot be read."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InputError(path, f"cannot read file: {exc.strerror or exc}") from exc


def read_inputs(directory: Path) -> dict[str, bytes]:
    """The bytes of every ``*.json`` file in a directory, by file name, sorted
    on the name string (comparing Paths is slower); raises InputError when a
    file or the directory cannot be read."""
    if not directory.is_dir():
        raise InputError(directory, "not a directory")
    return {p.name: read_input(p) for p in sorted(directory.glob("*.json"), key=lambda p: p.name)}


def read_json(path: Path, raw: bytes | None = None) -> Any:
    """The JSON document held by an input file; ``raw`` is the file's bytes
    when the caller has read them already. Raises InputError when the file
    cannot be read or is not UTF-8 JSON."""
    if raw is None:
        raw = read_input(path)
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(path, f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(path, "invalid JSON: nested deeper than the parser allows") from exc


@dataclass(frozen=True)
class Violation:
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
# decode(value, path, strict) -> domain value; value is never None.
Decoder = Callable[[Any, DocPath, bool], Any]

_SCALAR_NAMES = {str: "string", int: "integer", bool: "boolean"}


def render_path(path: DocPath) -> str:
    keys = []
    while isinstance(path, tuple):
        path, key = path
        keys.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return path + "".join(reversed(keys))


def parse_error(path: DocPath, message: str) -> NoReturn:
    raise ParseError(render_path(path), message)


def _got(expected: str, value: Any) -> str:
    return f"expected {expected}, got {type(value).__name__}"


def array_decoder(item: Decoder) -> Decoder:
    """Decode a JSON array into a tuple, each item with ``item``."""

    def decode(value: Any, path: DocPath, strict: bool) -> tuple:
        if not isinstance(value, (list, tuple)):
            parse_error(path, _got("array", value))
        return tuple([item(x, (path, i), strict) for i, x in enumerate(value)])

    return decode


def object_decoder(item: Decoder) -> Decoder:
    """Decode a JSON object into a dict, each value with ``item``."""

    def decode(value: Any, path: DocPath, strict: bool) -> dict:
        if not isinstance(value, Mapping):
            parse_error(path, _got("object", value))
        return {k: item(v, (path, k), strict) for k, v in value.items()}

    return decode


def _field_codec(
    tp: Any, expr: str, scope: dict[str, Any], depth: int = 0, optional: bool = False
) -> tuple[Decoder, str | None]:
    """The decoder of one field type, and the source of an expression that
    writes ``expr``, of that type, as JSON (None when the value is JSON
    already); names the expression calls are put in ``scope``. ``optional``
    marks the inside of an ``X | None``, whose type errors say "or null"."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType) and type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        decode_inner, encoded = _field_codec(inner, expr, scope, depth, optional=True)

        def decode_optional(value: Any, path: DocPath, strict: bool) -> Any:
            return None if value is None else decode_inner(value, path, strict)

        return decode_optional, encoded and f"(None if {expr} is None else {encoded})"
    if tp in _SCALAR_NAMES:
        expected = _SCALAR_NAMES[tp] + (" or null" if optional else "")
        # bool is a subclass of int, but never an integer here.
        excluded = bool if tp is int else ()

        def decode_scalar(value: Any, path: DocPath, strict: bool) -> Any:
            if isinstance(value, tp) and not isinstance(value, excluded):
                return value
            parse_error(path, _got(expected, value))

        return decode_scalar, None
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}
        allowed = ", ".join(members)

        def decode_enum(value: Any, path: DocPath, strict: bool) -> Enum:
            if not isinstance(value, str):
                parse_error(path, _got("string", value))
            member = members.get(value)
            if member is None:
                parse_error(path, f"invalid value {value!r}; expected one of: {allowed}")
            return member

        return decode_enum, f"{expr}.value"
    item = f"x{depth}"
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        decode_item, encoded = _field_codec(args[0], item, scope, depth + 1)
        encoded = f"list({expr})" if encoded is None else f"[{encoded} for {item} in {expr}]"
        return array_decoder(decode_item), encoded
    if origin is collections.abc.Mapping and args[0] is str:
        decode_item, encoded = _field_codec(args[1], item, scope, depth + 1)
        if encoded is not None:
            encoded = f"{{k{depth}: {encoded} for k{depth}, {item} in {expr}.items()}}"
        return object_decoder(decode_item), encoded or f"dict({expr})"
    if isinstance(tp, type) and issubclass(tp, Document):
        scope[f"encode_{tp.__name__}"] = (tp._codec or tp._build_codec()).encode
        # Through the class attribute, so a wrapped from_dict sees every call.
        decode = lambda value, path, strict: tp.from_dict(value, path, strict)  # noqa: E731
        return decode, f"encode_{tp.__name__}({expr})"
    raise TypeError(f"no document codec for type {tp!r}")


def decoder_for(tp: Any) -> Decoder:
    """The decoder of one field type, for a field hook to call."""
    return _field_codec(tp, "value", {})[0]


def codec_field(
    *, decode: Decoder | None = None, encode: Callable[[Any], Any] | None = None, **kwargs: Any
) -> Any:
    """A dataclass field whose JSON form comes from the given hooks instead of
    its type; a hook left out is derived from the type as usual."""
    return field(metadata={"decode": decode, "encode": encode}, **kwargs)


class _Codec:
    """Per-class field tables and encoder, derived once from the dataclass
    fields and their type hints."""

    def __init__(self, cls: type) -> None:
        hints = get_type_hints(cls)
        declared = fields(cls)
        self.known = frozenset(f.name for f in declared)
        self.required = tuple(
            f.name for f in declared if f.default is MISSING and f.default_factory is MISSING
        )
        # The encoder is compiled, as dataclasses compiles __init__: one dict
        # display in declaration order, each value written by its type's
        # expression or by the field's encode hook. A field with both hooks
        # has a type the codec need not know.
        scope: dict[str, Any] = {}
        decoders, items = [], []
        for f in declared:
            decode, encode = f.metadata.get("decode"), f.metadata.get("encode")
            value = f"self.{f.name}"
            if decode and encode:
                encoded = None
            else:
                derived, encoded = _field_codec(hints[f.name], value, scope)
                decode = decode or derived
            if encode:
                scope[f"hook_{f.name}"] = encode
                encoded = f"hook_{f.name}({value})"
            decoders.append((f.name, decode))
            items.append(f"{f.name!r}: {encoded or value}")
        self.decoders = tuple(decoders)
        exec(f"def encode(self):\n    return {{{', '.join(items)}}}", scope)
        self.encode = scope["encode"]


class Document:
    """Base of every JSON document type: ``to_dict`` writes the dataclass
    fields in declaration order; ``from_dict`` reads them back, type-checked,
    with null meaning the field's default.

    A subclass names the root of its error paths, as in
    ``class Digest(Document, path="digest")``.
    """

    _path: ClassVar[str]
    _codec: ClassVar[_Codec | None]

    def __init_subclass__(cls, path: str, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._path = path
        cls._codec = None  # built on first use, once the dataclass exists
        # Each class holds its own entries, so a profiler can wrap one class's
        # codec methods without touching the others.
        cls.to_dict = Document.to_dict  # type: ignore[method-assign]
        cls.from_dict = Document.__dict__["from_dict"]  # type: ignore[method-assign]

    def to_dict(self) -> dict[str, Any]:
        return (self._codec or type(self)._build_codec()).encode(self)

    @classmethod
    def from_dict(cls, data: Any, path: DocPath | None = None, strict: bool = True) -> Any:
        codec = cls._codec or cls._build_codec()
        if path is None:
            path = cls._path
        if not isinstance(data, Mapping):
            parse_error(path, _got("object", data))
        unknown = data.keys() - codec.known
        if unknown:
            if strict:
                parse_error(path, f"unknown fields: {sorted(unknown)}")
            warnings.warn(
                f"{render_path(path)}: ignoring unknown fields {sorted(unknown)}",
                UnknownFieldWarning,
                stacklevel=2,
            )
        missing = [name for name in codec.required if data.get(name) is None]
        if missing:
            parse_error(path, f"missing required fields: {sorted(missing)}")
        values = {}
        for name, decode in codec.decoders:
            value = data.get(name)
            if value is not None:
                values[name] = decode(value, (path, name), strict)
        try:
            return cls(**values)
        except ValueError as exc:  # a rule across fields, checked by __post_init__
            parse_error(path, str(exc))

    @classmethod
    def _build_codec(cls) -> _Codec:
        cls._codec = _Codec(cls)
        return cls._codec


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Digest(Document, path="digest"):
    """A content digest: algorithm name plus lowercase hex string."""

    algorithm: str
    hex: str


@dataclass(frozen=True, kw_only=True)
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
# License range and captures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True, kw_only=True)
class LicenseCapture(Document, path="capture"):
    """A dated snapshot of a data source's license text, with its selection
    status relative to the license range."""

    source_id: str
    capture_year: int | None = None
    capture_url: str | None = None
    content: str | None = None
    status: CaptureStatus

    def __post_init__(self) -> None:
        if (self.status is CaptureStatus.UNAVAILABLE) != (self.content is None):
            raise ValueError("capture content must be absent exactly when status is 'unavailable'")


# ---------------------------------------------------------------------------
# Rights and obligations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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


_decode_grant_name = decoder_for(Grant)


def _decode_grant(value: Any, path: DocPath, strict: bool) -> Grant:
    # Boolean shorthand: true marks the right granted, false denied.
    if isinstance(value, bool):
        return Grant.GRANTED if value else Grant.DENIED
    return _decode_grant_name(value, path, strict)


@dataclass(frozen=True)
class RightEntry(Document, path="right"):
    """Grant state plus the obligations owed when the right is exercised."""

    grant: Grant = codec_field(decode=_decode_grant)
    obligations: tuple[Obligation, ...] = ()


@dataclass(frozen=True)
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
    """Reorder a rights map so fixed names come first in canonical order."""
    ordered: dict[str, RightEntry] = {}
    for name in fixed:
        if name in entries:
            ordered[name] = entries[name]
    for name in entries:
        if name not in ordered:
            ordered[name] = entries[name]
    return ordered


@dataclass(frozen=True)
class RightsVector(Document, path="vector"):
    """One license decomposed into metadata, standalone-data rights, rights in
    conjunction with models, and optional custom rights."""

    metadata: LicenseMetadata
    standalone_rights: Mapping[str, RightEntry]
    model_rights: Mapping[str, RightEntry]
    custom_rights: Mapping[str, RightEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "standalone_rights", _ordered_rights(self.standalone_rights, STANDALONE_RIGHTS)
        )
        object.__setattr__(self, "model_rights", _ordered_rights(self.model_rights, MODEL_RIGHTS))
        object.__setattr__(self, "custom_rights", dict(self.custom_rights))

    def entry(self, right_name: str) -> RightEntry | None:
        for group in (self.standalone_rights, self.model_rights, self.custom_rights):
            if right_name in group:
                return group[right_name]
        return None

    def grant(self, right_name: str) -> Grant:
        """The recorded grant, with Unspecified for rights never mentioned."""
        entry = self.entry(right_name)
        return entry.grant if entry is not None else Grant.UNSPECIFIED


def validate_rights_vector(vector: RightsVector) -> list[Violation]:
    """Check completeness of the fixed right sets and custom-key disjointness."""
    report: list[Violation] = []
    for name in STANDALONE_RIGHTS:
        if name not in vector.standalone_rights:
            report.append(Violation(f"standalone_rights.{name}", "missing right"))
    for name in vector.standalone_rights:
        if name not in STANDALONE_RIGHTS:
            report.append(Violation(f"standalone_rights.{name}", "not a standalone right"))
    for name in MODEL_RIGHTS:
        if name not in vector.model_rights:
            report.append(Violation(f"model_rights.{name}", "missing right"))
    for name in vector.model_rights:
        if name not in MODEL_RIGHTS:
            report.append(Violation(f"model_rights.{name}", "not a model-conjunction right"))
    for name in vector.custom_rights:
        if name in FIXED_RIGHTS:
            report.append(Violation(f"custom_rights.{name}", "custom key collides with fixed right"))
    for group_name, group in (
        ("standalone_rights", vector.standalone_rights),
        ("model_rights", vector.model_rights),
        ("custom_rights", vector.custom_rights),
    ):
        for right_name, entry in group.items():
            ids = [o.id for o in entry.obligations]
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            if dupes:
                report.append(
                    Violation(f"{group_name}.{right_name}", f"duplicate obligation ids: {dupes}")
                )
    return report


# ---------------------------------------------------------------------------
# Verified license
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditInfo(Document, path="audit"):
    """Reproducibility trailer attached to emitted verified licenses."""

    engine_version: str
    inputs_digest: str
    policy: Mapping[str, bool]
    template_digests: Mapping[str, str] = field(default_factory=dict)
    generated_at: str | None = None


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "rights", dict(self.rights))
        object.__setattr__(
            self, "restrictors", {k: tuple(v) for k, v in self.restrictors.items()}
        )
        object.__setattr__(self, "changed", tuple(self.changed))
        object.__setattr__(self, "residual_risk_flags", tuple(self.residual_risk_flags))

    def grant(self, right_name: str) -> Grant:
        entry = self.rights.get(right_name)
        return entry.grant if entry is not None else Grant.UNSPECIFIED


# ---------------------------------------------------------------------------
# Usage scenarios and assessment tables
# ---------------------------------------------------------------------------

_decode_names = decoder_for(tuple[str, ...])


def _decode_required_rights(value: Any, path: DocPath, strict: bool) -> tuple[str, ...]:
    rights = _decode_names(value, path, strict)
    if not rights:
        parse_error(path, "must be a nonempty array")
    return rights


@dataclass(frozen=True)
class UsageScenario(Document, path="scenario"):
    """A commercial action to check, expressed as the rights it needs."""

    id: str
    required_rights: tuple[str, ...] = codec_field(decode=_decode_required_rights)

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.required_rights))
        if not deduped:
            raise ValueError(f"scenario {self.id!r} must require at least one right")
        object.__setattr__(self, "required_rights", deduped)


@dataclass(frozen=True)
class _BlockingRight(Document, path="blocking_right"):
    """The JSON form of one entry of :attr:`AssessmentRow.blocking_rights`."""

    right: str
    restrictors: tuple[str, ...] = ()


_decode_blocking_rights = array_decoder(decoder_for(_BlockingRight))


def _decode_blocking(value: Any, path: DocPath, strict: bool) -> tuple:
    return tuple((b.right, b.restrictors) for b in _decode_blocking_rights(value, path, strict))


def _encode_blocking(value: tuple) -> list[dict[str, Any]]:
    return [{"right": right, "restrictors": list(restrictors)} for right, restrictors in value]


@dataclass(frozen=True)
class AssessmentRow(Document, path="row"):
    """One scenario's decision: permitted flag, obligation ids owed, and the
    rights (with their restrictors) that block a denied scenario."""

    scenario_id: str
    permitted: bool
    obligations: tuple[str, ...]
    blocking_rights: tuple[tuple[str, tuple[str, ...]], ...] = codec_field(
        decode=_decode_blocking, encode=_encode_blocking
    )


@dataclass(frozen=True)
class AssessmentTable(Document, path="assessment"):
    """Per-scenario decisions for one dataset, plus the obligation legend and
    an advisory list of obligation ids attached to granted rights no shipped
    scenario asked about."""

    dataset_id: str
    dataset_name: str
    rows: tuple[AssessmentRow, ...]
    obligation_legend: Mapping[str, Obligation]
    advisory_obligations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "obligation_legend", dict(self.obligation_legend))
        object.__setattr__(self, "advisory_obligations", tuple(self.advisory_obligations))
