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
from pathlib import Path
from typing import Any, Collection, Mapping

from .errors import DuplicateRight, ParseError, SchemaViolation, UnknownLicense
from .jsonio import path_prefix, read_inputs, read_json
from .model import (
    EMPTY_MAPPING,
    FIXED_RIGHTS,
    DocPath,
    Document,
    Grant,
    LicenseMetadata,
    Obligation,
    RightEntry,
    RightsVector,
    Value,
    Violation,
    codec_field,
    merge_obligations,
    replace,
    validate_rights_vector,
    wrong_type,
)
from .resources import templates_dir


class LicenseTemplate(Value):
    """A shipped rights vector for a standard license, with file digest."""

    license_id: str
    version: str
    vector: RightsVector
    digest: str


class LicenseCatalog(Value):
    """Read-only bundle of shipped templates plus the names of registered
    custom rights.

    Its constructors, :func:`load_catalog` and :func:`extend_schema`, keep one
    invariant: every template vector passed :func:`validate_rights_vector`
    when the catalog loaded, and no custom right names a fixed right. A vector
    derived from a template is a copy built by its ``__init__``
    (:func:`dla.model.replace`) and needs no second validation: extra
    obligations are merged by id, so they add no duplicate id, and filling in
    the custom rights adds only names that collide with none.
    """

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


class _TemplateDocument(Document, path="template"):
    """The JSON form of a shipped template file."""

    license_id: str
    version: str
    vector: RightsVector
    note: str | None = None


def parse_template(data: Any, path: str) -> _TemplateDocument:
    """A template file's document, checked as :func:`load_catalog` checks it."""
    doc = _TemplateDocument.from_dict(data, path)
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
    return doc


def _parse_template_file(path: Path, raw: bytes) -> LicenseTemplate:
    doc = parse_template(read_json(path, raw), str(path))
    return LicenseTemplate(
        license_id=doc.license_id,
        version=doc.version,
        vector=doc.vector,
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


class Interpretation(Value):
    """A parsed interpretation document for one lineage subject.

    ``vector`` is None exactly when the subject's license content was
    unavailable and no reading could be authored; ``template`` is the shipped
    template it was derived from, if any.
    """

    subject_id: str
    vector: RightsVector | None
    template: LicenseTemplate | None = None


def _fill_custom_rights(vector: RightsVector, catalog: LicenseCatalog) -> RightsVector:
    missing = [name for name in catalog.custom_rights if name not in vector.custom_rights]
    if not missing:
        return vector
    custom = dict(vector.custom_rights)
    for name in missing:
        custom[name] = RightEntry(grant=Grant.UNSPECIFIED)
    return replace(vector, custom_rights=custom)


def _decode_template_id(value: Any, path: DocPath) -> str:
    return value if isinstance(value, str) else wrong_type(path, "string", value)


class _InterpretationDocument(Document, path="interpretation"):
    """The JSON form of an interpretation document. Exactly one of
    ``unavailable``, ``vector`` and ``template`` gives its body; ``notes`` is
    free text for human readers."""

    subject_id: str
    unavailable: bool = False
    vector: RightsVector | None = None
    # Null means no template, but a present template must be a string.
    template: str | None = codec_field(decode=_decode_template_id, default=None)
    template_version: str | None = None
    metadata: Mapping[str, str | None] | None = None
    extra_obligations: Mapping[str, tuple[Obligation, ...]] | None = None
    notes: str | None = None


def _apply_template(base: RightsVector, doc: _InterpretationDocument, path: str) -> RightsVector:
    """A template's vector with the document's overrides: ``base`` itself when
    it overrides nothing, else a copy."""
    changes: dict[str, Any] = {}
    if doc.metadata:
        unknown = sorted(k for k in doc.metadata if k not in LicenseMetadata._fields)
        if unknown:
            raise ParseError(f"{path}.metadata", f"unknown metadata fields: {unknown}")
        for name, value in doc.metadata.items():
            if value is None and name not in vars(LicenseMetadata):  # no default
                raise ParseError(f"{path}.metadata.{name}", "a required field cannot be null")
        changes["metadata"] = replace(base.metadata, **dict(doc.metadata))
    extras = doc.extra_obligations
    if extras:
        rights = base.rights_by_name()
        unknown_rights = sorted(name for name in extras if name not in rights)
        if unknown_rights:
            raise ParseError(
                f"{path}.extra_obligations", f"rights not in template: {unknown_rights}"
            )
        for group_name in ("standalone_rights", "model_rights", "custom_rights"):
            group = getattr(base, group_name)
            if not extras.keys().isdisjoint(group):
                changes[group_name] = {
                    name: replace(
                        entry, obligations=merge_obligations([entry.obligations, extras[name]])
                    )
                    if name in extras
                    else entry
                    for name, entry in group.items()
                }
    return replace(base, **changes) if changes else base


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

    if doc.vector is None:  # its template was validated when the catalog loaded
        template = catalog.template_info(doc.template, doc.template_version)
        vector = _fill_custom_rights(_apply_template(template.vector, doc, path), catalog)
    else:
        template, vector = None, _fill_custom_rights(doc.vector, catalog)
        violations = validate_rights_vector(vector)
        if violations:
            raise SchemaViolation(f"{path}: " + "; ".join(str(v) for v in violations))
    return Interpretation(subject_id=doc.subject_id, vector=vector, template=template)


class InterpretationSet(Value):
    """All interpretations for one analysis, keyed by subject id."""

    vectors: Mapping[str, RightsVector | None]
    template_digests: Mapping[str, str] = EMPTY_MAPPING


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
    prefix = path_prefix(directory)
    for name, raw in (read_inputs(directory) if files is None else files).items():
        path = prefix + name
        parsed = parse_interpretation(read_json(path, raw), catalog, strict=strict, path=path)
        if parsed.subject_id in vectors:
            raise ParseError(path, f"duplicate interpretation for {parsed.subject_id!r}")
        if subjects is not None and parsed.subject_id not in subjects:
            raise ParseError(path, f"subject_id {parsed.subject_id!r} names no lineage node")
        vectors[parsed.subject_id] = parsed.vector
        if parsed.template is not None:
            digests[parsed.template.license_id] = parsed.template.digest
    return InterpretationSet(vectors=vectors, template_digests=digests)
