"""License interpretation loading, shipped rights-vector templates, and
schema extension with custom rights.

Interpretations are authored documents, never derived from license legalese
by this package. A document either inlines a full rights vector, references a
shipped template (optionally overriding metadata and appending per-right
obligations), or marks the subject's license as unavailable. Templates are
plain data files: a codified legal reading that can be replaced without a
code change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import DuplicateRight, ParseError, SchemaViolation, UnknownLicense
from .model import (
    FIXED_RIGHTS,
    Document,
    Grant,
    LicenseMetadata,
    Obligation,
    RightEntry,
    RightsVector,
    Violation,
    codec_field,
    decoder_for,
    merge_obligations,
    validate_rights_vector,
)
from .resources import templates_dir

_CUSTOM_APPLIES_TO = ("standalone", "model")


@dataclass(frozen=True)
class CustomRight:
    """A user-defined right added to the schema beside the fixed sets."""

    name: str
    applies_to: str  # "standalone" or "model"

    def __post_init__(self) -> None:
        if self.applies_to not in _CUSTOM_APPLIES_TO:
            raise ValueError(f"applies_to must be one of {_CUSTOM_APPLIES_TO}")


@dataclass(frozen=True)
class LicenseTemplate:
    """A shipped rights vector for a standard license, with file digest."""

    license_id: str
    version: str
    note: str
    vector: RightsVector
    digest: str


@dataclass(frozen=True)
class LicenseCatalog:
    """Read-only bundle of shipped templates plus registered custom rights."""

    templates: Mapping[str, LicenseTemplate]
    custom_rights: tuple[CustomRight, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "templates", dict(self.templates))

    def custom_right_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.custom_rights)

    def lookup_template(self, license_id: str, version: str | None = None) -> RightsVector:
        """The template vector for a shipped license id.

        Raises UnknownLicense when the id (or the id/version pair) is not in
        the catalog.
        """
        template = self.templates.get(license_id)
        if template is None:
            raise UnknownLicense(license_id, version)
        if version is not None and template.version != version:
            raise UnknownLicense(license_id, version)
        return template.vector

    def template_info(self, license_id: str) -> LicenseTemplate:
        template = self.templates.get(license_id)
        if template is None:
            raise UnknownLicense(license_id)
        return template


def extend_schema(catalog: LicenseCatalog, right_name: str, applies_to: str) -> LicenseCatalog:
    """Register a custom right and return the extended catalog.

    Vectors stored before the extension simply report the new right as
    Unspecified when loaded; pass ``require_custom=True`` to
    :func:`load_interpretation` to demand explicit values instead.
    """
    if right_name in FIXED_RIGHTS or right_name in catalog.custom_right_names():
        raise DuplicateRight(right_name)
    return LicenseCatalog(
        templates=catalog.templates,
        custom_rights=catalog.custom_rights + (CustomRight(right_name, applies_to),),
    )


@dataclass(frozen=True)
class _TemplateDocument(Document, path="template"):
    """The JSON form of a shipped template file."""

    license_id: str
    version: str
    vector: RightsVector
    note: str | None = None


def _parse_template_file(path: Path, strict: bool = True) -> LicenseTemplate:
    raw = path.read_bytes()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(str(path), f"invalid template file: {exc}")
    doc = _TemplateDocument.from_dict(data, str(path), strict)
    vector = doc.vector
    violations = validate_rights_vector(vector)
    for name in FIXED_RIGHTS:
        if vector.grant(name) is Grant.UNSPECIFIED:
            violations.append(
                Violation(name, "templates must state an explicit grant for every fixed right")
            )
    if violations:
        raise SchemaViolation(
            f"template {path} is invalid: " + "; ".join(str(v) for v in violations)
        )
    return LicenseTemplate(
        license_id=doc.license_id,
        version=doc.version,
        note=doc.note or "",
        vector=vector,
        digest=hashlib.sha256(raw).hexdigest(),
    )


def load_catalog(directory: Path | None = None) -> LicenseCatalog:
    """Load all license templates from a directory (the shipped one by default)."""
    directory = directory or templates_dir()
    templates: dict[str, LicenseTemplate] = {}
    for path in sorted(directory.glob("*.json")):
        template = _parse_template_file(path)
        if template.license_id in templates:
            raise ParseError(str(path), f"duplicate template id {template.license_id!r}")
        templates[template.license_id] = template
    return LicenseCatalog(templates=templates)


# ---------------------------------------------------------------------------
# Interpretation documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interpretation:
    """A parsed interpretation document for one lineage subject.

    ``vector`` is None exactly when the subject's license content was
    unavailable and no reading could be authored.
    """

    subject_id: str
    vector: RightsVector | None
    template_id: str | None = None


def _fill_custom_rights(
    vector: RightsVector, catalog: LicenseCatalog | None, require_custom: bool, path: str
) -> RightsVector:
    if catalog is None or not catalog.custom_rights:
        return vector
    custom = dict(vector.custom_rights)
    missing = [c.name for c in catalog.custom_rights if c.name not in custom]
    if missing and require_custom:
        raise SchemaViolation(f"{path}: custom rights must be populated: {missing}")
    for name in missing:
        custom[name] = RightEntry(grant=Grant.UNSPECIFIED)
    if not missing:
        return vector
    return replace(vector, custom_rights=custom)


def _apply_template(
    catalog: LicenseCatalog,
    template_id: str,
    template_version: str | None,
    metadata_overrides: Mapping[str, Any] | None,
    extra_obligations: Mapping[str, Sequence[Obligation]] | None,
    path: str,
) -> RightsVector:
    base = catalog.lookup_template(template_id, template_version)
    metadata = base.metadata
    if metadata_overrides:
        known = set(LicenseMetadata.__dataclass_fields__)
        unknown = sorted(k for k in metadata_overrides if k not in known)
        if unknown:
            raise ParseError(f"{path}.metadata", f"unknown metadata fields: {unknown}")
        metadata = replace(metadata, **dict(metadata_overrides))

    def extended(group: Mapping[str, RightEntry]) -> dict[str, RightEntry]:
        out: dict[str, RightEntry] = {}
        for name, entry in group.items():
            extras = (extra_obligations or {}).get(name)
            if extras:
                out[name] = replace(
                    entry, obligations=merge_obligations([entry.obligations, extras])
                )
            else:
                out[name] = entry
        return out

    if extra_obligations:
        unknown_rights = sorted(
            name for name in extra_obligations if base.entry(name) is None
        )
        if unknown_rights:
            raise ParseError(
                f"{path}.extra_obligations", f"rights not in template: {unknown_rights}"
            )
    return RightsVector(
        metadata=metadata,
        standalone_rights=extended(base.standalone_rights),
        model_rights=extended(base.model_rights),
        custom_rights=extended(base.custom_rights),
    )


@dataclass(frozen=True)
class _InterpretationDocument(Document, path="interpretation"):
    """The JSON form of an interpretation document. Exactly one of
    ``unavailable``, ``vector`` and ``template`` gives its body; ``notes`` is
    free text for human readers."""

    subject_id: str
    unavailable: bool = False
    vector: RightsVector | None = None
    # Null means no template, but a present template must be a string.
    template: str | None = codec_field(decode=decoder_for(str), default=None)
    template_version: str | None = None
    metadata: Mapping[str, str | None] | None = None
    extra_obligations: Mapping[str, tuple[Obligation, ...]] | None = None
    notes: str | None = None


def parse_interpretation(
    data: Any,
    catalog: LicenseCatalog | None = None,
    *,
    strict: bool = True,
    require_custom: bool = False,
    path: str = "interpretation",
) -> Interpretation:
    """Parse one interpretation document (inline, template-based, or unavailable)."""
    doc = _InterpretationDocument.from_dict(data, path, strict)
    if sum([doc.unavailable, doc.vector is not None, doc.template is not None]) != 1:
        raise ParseError(
            path,
            "exactly one of 'unavailable: true', 'vector', or 'template' is required",
        )
    if doc.unavailable:
        return Interpretation(subject_id=doc.subject_id, vector=None)

    vector = doc.vector
    if vector is None:
        if catalog is None:
            raise ParseError(f"{path}.template", "no catalog available to resolve template")
        vector = _apply_template(
            catalog,
            doc.template,
            doc.template_version,
            doc.metadata,
            doc.extra_obligations,
            path,
        )

    vector = _fill_custom_rights(vector, catalog, require_custom, path)
    violations = validate_rights_vector(vector)
    if violations:
        raise SchemaViolation(f"{path}: " + "; ".join(str(v) for v in violations))
    return Interpretation(subject_id=doc.subject_id, vector=vector, template_id=doc.template)


def load_interpretation(
    data: Any,
    catalog: LicenseCatalog | None = None,
    *,
    strict: bool = True,
    require_custom: bool = False,
) -> RightsVector:
    """Parse an interpretation document into a validated rights vector.

    Accepts either a bare rights-vector document or a subject wrapper with an
    inline vector or template reference. Raises ParseError on malformed input
    and SchemaViolation when the vector is incomplete; a document marked
    unavailable carries no vector and is rejected here.
    """
    if not isinstance(data, Mapping) or "subject_id" not in data:
        vector = RightsVector.from_dict(data, "interpretation", strict)
        vector = _fill_custom_rights(vector, catalog, require_custom, "interpretation")
        violations = validate_rights_vector(vector)
        if violations:
            raise SchemaViolation("interpretation: " + "; ".join(str(v) for v in violations))
        return vector
    parsed = parse_interpretation(
        data, catalog, strict=strict, require_custom=require_custom
    )
    if parsed.vector is None:
        raise ParseError(
            "interpretation", f"subject {parsed.subject_id!r} is marked unavailable"
        )
    return parsed.vector


@dataclass(frozen=True)
class InterpretationSet:
    """All interpretations for one analysis, keyed by subject id."""

    vectors: Mapping[str, RightsVector | None]
    template_digests: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", dict(self.vectors))
        object.__setattr__(self, "template_digests", dict(self.template_digests))


def load_interpretations_dir(
    directory: Path,
    catalog: LicenseCatalog | None = None,
    *,
    strict: bool = True,
    require_custom: bool = False,
) -> InterpretationSet:
    """Load every ``*.json`` interpretation in a directory.

    Files are read in sorted order; each must carry a distinct subject_id.
    """
    catalog = catalog or load_catalog()
    vectors: dict[str, RightsVector | None] = {}
    digests: dict[str, str] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(str(path), f"invalid JSON: {exc}")
        parsed = parse_interpretation(
            data, catalog, strict=strict, require_custom=require_custom, path=str(path)
        )
        if parsed.subject_id in vectors:
            raise ParseError(str(path), f"duplicate interpretation for {parsed.subject_id!r}")
        vectors[parsed.subject_id] = parsed.vector
        if parsed.template_id is not None:
            info = catalog.template_info(parsed.template_id)
            digests[info.license_id] = info.digest
    return InterpretationSet(vectors=vectors, template_digests=digests)
