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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Collection, Mapping, Sequence

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
    read_inputs,
    read_json,
    validate_rights_vector,
)
from .resources import templates_dir


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
    """Read-only bundle of shipped templates plus the names of registered
    custom rights."""

    templates: Mapping[str, LicenseTemplate]
    custom_rights: tuple[str, ...] = ()

    def template_info(self, license_id: str, version: str | None = None) -> LicenseTemplate:
        """The shipped template for a license id.

        Raises UnknownLicense when the id (or the id/version pair) is not in
        the catalog.
        """
        template = self.templates.get(license_id)
        if template is None or (version is not None and template.version != version):
            raise UnknownLicense(license_id, version)
        return template


def extend_schema(catalog: LicenseCatalog, right_name: str) -> LicenseCatalog:
    """Register a custom right and return the extended catalog.

    Interpretations parsed against the extended catalog report the new right
    as Unspecified unless they state it, so vectors written before the
    extension stay valid.
    """
    if right_name in FIXED_RIGHTS or right_name in catalog.custom_rights:
        raise DuplicateRight(right_name)
    return LicenseCatalog(
        templates=catalog.templates,
        custom_rights=catalog.custom_rights + (right_name,),
    )


@dataclass(frozen=True)
class _TemplateDocument(Document, path="template"):
    """The JSON form of a shipped template file."""

    license_id: str
    version: str
    vector: RightsVector
    note: str | None = None


def _parse_template_file(path: Path, raw: bytes) -> LicenseTemplate:
    doc = _TemplateDocument.from_dict(read_json(path, raw), str(path))
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


def load_catalog(
    directory: Path | None = None, files: Mapping[str, bytes] | None = None
) -> LicenseCatalog:
    """Load all license templates from a directory (the shipped one by
    default), or from its ``files`` as :func:`read_inputs` gave them."""
    directory = directory or templates_dir()
    templates: dict[str, LicenseTemplate] = {}
    for name, raw in (read_inputs(directory) if files is None else files).items():
        path = directory / name
        template = _parse_template_file(path, raw)
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


def _fill_custom_rights(vector: RightsVector, catalog: LicenseCatalog) -> RightsVector:
    missing = [name for name in catalog.custom_rights if name not in vector.custom_rights]
    if not missing:
        return vector
    custom = dict(vector.custom_rights)
    for name in missing:
        custom[name] = RightEntry(grant=Grant.UNSPECIFIED)
    return replace(vector, custom_rights=custom)


def _apply_template(
    catalog: LicenseCatalog,
    template_id: str,
    template_version: str | None,
    metadata_overrides: Mapping[str, Any] | None,
    extra_obligations: Mapping[str, Sequence[Obligation]] | None,
    path: str,
) -> RightsVector:
    base = catalog.template_info(template_id, template_version).vector
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
    catalog: LicenseCatalog,
    *,
    strict: bool = True,
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
        vector = _apply_template(
            catalog,
            doc.template,
            doc.template_version,
            doc.metadata,
            doc.extra_obligations,
            path,
        )

    vector = _fill_custom_rights(vector, catalog)
    violations = validate_rights_vector(vector)
    if violations:
        raise SchemaViolation(f"{path}: " + "; ".join(str(v) for v in violations))
    return Interpretation(subject_id=doc.subject_id, vector=vector, template_id=doc.template)


@dataclass(frozen=True)
class InterpretationSet:
    """All interpretations for one analysis, keyed by subject id."""

    vectors: Mapping[str, RightsVector | None]
    template_digests: Mapping[str, str] = field(default_factory=dict)


def load_interpretations_dir(
    directory: Path,
    catalog: LicenseCatalog,
    *,
    strict: bool = True,
    files: Mapping[str, bytes] | None = None,
    subjects: Collection[str] | None = None,
) -> InterpretationSet:
    """Load every ``*.json`` interpretation in a directory, in sorted order,
    or its ``files`` when the caller has read them with :func:`read_inputs`.

    Each must carry a distinct subject_id, one of ``subjects`` (the lineage
    nodes) when given. Raises InputError when a file cannot be read.
    """
    vectors: dict[str, RightsVector | None] = {}
    digests: dict[str, str] = {}
    for name, raw in (read_inputs(directory) if files is None else files).items():
        path = directory / name
        parsed = parse_interpretation(read_json(path, raw), catalog, strict=strict, path=str(path))
        if parsed.subject_id in vectors:
            raise ParseError(str(path), f"duplicate interpretation for {parsed.subject_id!r}")
        if subjects is not None and parsed.subject_id not in subjects:
            raise ParseError(str(path), f"subject_id {parsed.subject_id!r} names no lineage node")
        vectors[parsed.subject_id] = parsed.vector
        if parsed.template_id is not None:
            info = catalog.template_info(parsed.template_id)
            digests[info.license_id] = info.digest
    return InterpretationSet(vectors=vectors, template_digests=digests)
