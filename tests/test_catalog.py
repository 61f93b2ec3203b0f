"""License catalog: shipped templates, interpretation loading, schema extension."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dla.catalog as catalog_module
from dla import Grant, extend_schema, load_catalog
from dla.catalog import load_interpretations_dir, parse_interpretation
from dla.errors import DuplicateRight, InputError, ParseError, SchemaViolation, UnknownLicense
from dla.model import (
    FIXED_RIGHTS,
    MISSING,
    LicenseMetadata,
    Obligation,
    ObligationKind,
    RightEntry,
    RightsVector,
    merge_obligations,
    replace,
    validate_rights_vector,
)

from dla.resources import templates_dir

from helpers import BUNDLE_NAMES, bundle_paths, edit_file, write_synthetic_bundle

CATALOG = load_catalog()


class TestTemplates:
    def test_shipped_ids(self):
        assert sorted(CATALOG.templates) == ["CC-BY-4.0", "CC-BY-NC-4.0", "CC-BY-NC-SA-4.0"]

    def test_templates_are_total(self):
        for template in CATALOG.templates.values():
            for right in FIXED_RIGHTS:
                assert template.vector.grant(right) is not Grant.UNSPECIFIED, (
                    f"{template.license_id} leaves {right} unspecified"
                )

    def test_templates_carry_version_and_digest(self):
        for template in CATALOG.templates.values():
            assert template.version == "4.0"
            assert len(template.digest) == 64

    def test_cc_by_nc_sa(self):
        vector = CATALOG.template_info("CC-BY-NC-SA-4.0").vector
        assert vector.grant("Distribute") is Grant.GRANTED
        assert [o.id for o in vector.entry("Distribute").obligations] == ["C"]
        rerepresent = vector.entry("Rerepresent")
        assert {o.kind for o in rerepresent.obligations} == {
            ObligationKind.LINK_LICENSE,
            ObligationKind.SHARE_ALIKE,
            ObligationKind.INDICATE_CHANGES,
        }
        assert vector.grant("CommercializeOutput") is Grant.DENIED
        assert vector.grant("CommercializeModel") is Grant.DENIED

    def test_cc_by_nc(self):
        vector = CATALOG.template_info("CC-BY-NC-4.0", "4.0").vector
        assert [o.id for o in vector.entry("Distribute").obligations] == ["A", "E"]
        assert vector.entry("Distribute").obligations[0].kind is ObligationKind.LINK_LICENSE
        assert vector.grant("CommercializeOutput") is Grant.DENIED
        assert vector.grant("CommercializeModel") is Grant.DENIED

    def test_cc_by(self):
        vector = CATALOG.template_info("CC-BY-4.0").vector
        for right in ("Distribute", "CommercializeOutput", "CommercializeModel"):
            assert vector.grant(right) is Grant.GRANTED
        assert [o.id for o in vector.entry("Distribute").obligations] == ["B", "E"]
        assert [o.id for o in vector.entry("CommercializeOutput").obligations] == ["B"]

    def test_unknown_license(self):
        with pytest.raises(UnknownLicense):
            CATALOG.template_info("WTFPL")
        with pytest.raises(UnknownLicense):
            CATALOG.template_info("CC-BY-4.0", "3.0")

    @pytest.mark.parametrize("content", [b'{"license_id": ', b"\xff\xfe"])
    def test_malformed_template_file_is_an_input_error(self, tmp_path, content):
        (tmp_path / "bad.json").write_bytes(content)
        with pytest.raises(InputError, match="bad.json: invalid JSON"):
            load_catalog(tmp_path)

    def test_template_leaving_a_fixed_right_unspecified_is_a_schema_violation(self, tmp_path):
        path = tmp_path / "cc-by-4.0.json"
        path.write_bytes((templates_dir() / "cc-by-4.0.json").read_bytes())
        edit_file(path, ("vector", "model_rights", "Benchmark"), {"grant": "unspecified"})
        with pytest.raises(SchemaViolation) as exc:
            load_catalog(tmp_path)
        assert str(exc.value) == (
            f"template {path} is invalid: "
            "Benchmark: templates must state an explicit grant for every fixed right"
        )

    def test_duplicate_template_id_is_a_parse_error(self, tmp_path):
        raw = (templates_dir() / "cc-by-4.0.json").read_bytes()
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_bytes(raw)
        with pytest.raises(ParseError) as exc:
            load_catalog(tmp_path)
        assert str(exc.value) == f"{tmp_path / 'b.json'}: duplicate template id 'CC-BY-4.0'"

    def test_lookup_is_referentially_transparent(self):
        first, second = CATALOG.template_info("CC-BY-4.0"), CATALOG.template_info("CC-BY-4.0")
        assert first.vector == second.vector


def minimal_vector_doc(**overrides) -> dict:
    doc = {
        "metadata": {"licensor": "L", "license_name": "N", "dataset_name": "D"},
        "standalone_rights": {
            r: {"grant": "granted"} for r in ("Access", "Tagging", "Distribute", "Rerepresent")
        },
        "model_rights": {
            r: {"grant": "granted"}
            for r in (
                "Benchmark", "Research", "Publish", "InternalUse",
                "CommercializeOutput", "CommercializeModel", "ModelReverseEngineer",
            )
        },
    }
    doc.update(overrides)
    return doc


def interpret(vector_doc: dict, catalog=CATALOG):
    """The vector of an interpretation that inlines ``vector_doc``."""
    return parse_interpretation({"subject_id": "x", "vector": vector_doc}, catalog).vector


class TestLoadInterpretation:
    def test_cifar_fixture_document(self):
        _, interpretations_dir = bundle_paths("cifar-10")
        doc = json.loads((interpretations_dir / "cifar-10.json").read_text())
        vector = parse_interpretation(doc, CATALOG).vector
        for right in FIXED_RIGHTS:
            assert vector.grant(right) is Grant.GRANTED
            assert [o.id for o in vector.entry(right).obligations] == ["cite-cifar10"]

    def test_granted_true_without_obligations(self):
        doc = minimal_vector_doc()
        doc["standalone_rights"]["Tagging"] = {"grant": True}
        vector = interpret(doc)
        assert vector.grant("Tagging") is Grant.GRANTED
        assert vector.entry("Tagging").obligations == ()

    def test_grant_maybe_is_a_parse_error_naming_the_field(self):
        doc = minimal_vector_doc()
        doc["standalone_rights"]["Tagging"] = {"grant": "maybe"}
        with pytest.raises(ParseError) as exc:
            interpret(doc)
        assert "Tagging.grant" in str(exc.value)

    def test_missing_fixed_right_is_schema_violation(self):
        doc = minimal_vector_doc()
        del doc["model_rights"]["ModelReverseEngineer"]
        with pytest.raises(SchemaViolation, match="ModelReverseEngineer"):
            interpret(doc)

    def test_duplicate_obligation_ids_in_an_inline_vector_are_a_schema_violation(self):
        doc = minimal_vector_doc()
        cite = {"id": "cite", "text": "Cite the paper", "kind": "cite"}
        doc["model_rights"]["Publish"] = {"grant": "granted", "obligations": [cite, cite]}
        with pytest.raises(SchemaViolation) as exc:
            interpret(doc)
        assert str(exc.value) == (
            "interpretation: model_rights.Publish: duplicate obligation ids: ['cite']"
        )

    def test_violation_texts_and_their_order_are_pinned(self):
        """Every rule of ``validate_rights_vector`` in every group, in the
        order it reports them, and the message ``parse_interpretation`` builds
        from them. The entry with repeated ids is one shared value in both
        vectors, and each reports it."""
        cite = {"id": "cite", "text": "Cite", "kind": "cite"}
        link = {"id": "link", "text": "Link", "kind": "link_license"}
        other = {"id": "other", "text": "Other", "kind": "other"}
        repeated = {"grant": "granted", "obligations": [link, cite, link, other, cite, link]}
        twice = {"grant": "denied", "obligations": [other, other]}
        doc = minimal_vector_doc()
        doc["standalone_rights"] = {
            "Foreign": {"grant": "granted"}, "Rerepresent": repeated, "Access": twice,
            "Distribute": {"grant": "granted"}, "Research": {"grant": "denied"},
        }
        del doc["model_rights"]["Benchmark"], doc["model_rights"]["Publish"]
        doc["model_rights"].update(Tagging={"grant": "granted"}, InternalUse=repeated)
        doc["custom_rights"] = {
            "Extra": twice, "Distribute": {"grant": "granted"}, "Mine": repeated,
            "Benchmark": repeated,
        }
        expected = [
            "standalone_rights.Tagging: missing right",
            "standalone_rights.Foreign: not a standalone right",
            "standalone_rights.Research: not a standalone right",
            "model_rights.Benchmark: missing right",
            "model_rights.Publish: missing right",
            "model_rights.Tagging: not a model-conjunction right",
            "custom_rights.Distribute: custom key collides with fixed right",
            "custom_rights.Benchmark: custom key collides with fixed right",
            "standalone_rights.Access: duplicate obligation ids: ['other']",
            "standalone_rights.Rerepresent: duplicate obligation ids: ['cite', 'link']",
            "model_rights.InternalUse: duplicate obligation ids: ['cite', 'link']",
            "custom_rights.Extra: duplicate obligation ids: ['other']",
            "custom_rights.Mine: duplicate obligation ids: ['cite', 'link']",
            "custom_rights.Benchmark: duplicate obligation ids: ['cite', 'link']",
        ]
        RightEntry._shared.clear()
        first, second = (RightsVector.from_dict(json.loads(json.dumps(doc))) for _ in range(2))
        assert first.standalone_rights["Rerepresent"] is second.model_rights["InternalUse"]
        for vector in (first, second):
            assert [str(v) for v in validate_rights_vector(vector)] == expected
        for path in ("interpretation", "x.json"):
            with pytest.raises(SchemaViolation) as exc:
                parse_interpretation({"subject_id": "x", "vector": doc}, CATALOG, path=path)
            assert str(exc.value) == f"{path}: " + "; ".join(expected)

    def test_unspecified_is_an_accepted_explicit_value(self):
        doc = minimal_vector_doc()
        doc["standalone_rights"]["Tagging"] = {"grant": "unspecified"}
        vector = interpret(doc)
        assert vector.grant("Tagging") is Grant.UNSPECIFIED

    def test_template_reference_with_overrides(self):
        doc = {
            "subject_id": "demo",
            "template": "CC-BY-NC-SA-4.0",
            "metadata": {"licensor": "Org", "dataset_name": "Demo"},
            "extra_obligations": {
                "Distribute": [
                    {"id": "D", "text": "Remove infringing content", "kind": "takedown"}
                ]
            },
        }
        vector = parse_interpretation(doc, CATALOG).vector
        assert vector.metadata.licensor == "Org"
        assert vector.metadata.dataset_name == "Demo"
        assert vector.metadata.license_name == "CC-BY-NC-SA-4.0"
        assert [o.id for o in vector.entry("Distribute").obligations] == ["C", "D"]

    @pytest.mark.parametrize("name", ["licensor", "license_name", "dataset_name"])
    def test_template_override_may_not_null_a_required_metadata_field(self, name):
        doc = {"subject_id": "demo", "template": "CC-BY-4.0", "metadata": {name: None}}
        with pytest.raises(ParseError) as exc:
            parse_interpretation(doc, CATALOG, path="demo.json")
        assert exc.value.path == f"demo.json.metadata.{name}"

    def test_template_override_of_an_unknown_metadata_field(self):
        doc = {"subject_id": "demo", "template": "CC-BY-4.0", "metadata": {"owner": "x", "z": "y"}}
        with pytest.raises(ParseError) as exc:
            parse_interpretation(doc, CATALOG, path="demo.json")
        assert str(exc.value) == "demo.json.metadata: unknown metadata fields: ['owner', 'z']"

    def test_template_override_may_null_an_optional_metadata_field(self):
        doc = {"subject_id": "demo", "template": "CC-BY-4.0", "metadata": {"credit_notice": None}}
        vector = parse_interpretation(doc, CATALOG).vector
        assert vector.metadata.credit_notice is None
        assert vector.from_dict(vector.to_dict()) == vector

    def test_template_reference_unknown_right_in_extras(self):
        doc = {
            "subject_id": "demo",
            "template": "CC-BY-4.0",
            "extra_obligations": {"Teleport": []},
        }
        with pytest.raises(ParseError, match="Teleport"):
            parse_interpretation(doc, CATALOG)

    def test_unavailable_document_has_no_vector(self):
        parsed = parse_interpretation({"subject_id": "x", "unavailable": True}, CATALOG)
        assert parsed.subject_id == "x"
        assert parsed.vector is None
        assert parsed.template is None

    def test_exactly_one_body_form_required(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_interpretation({"subject_id": "x"}, CATALOG)
        with pytest.raises(ParseError, match="exactly one"):
            parse_interpretation(
                {"subject_id": "x", "unavailable": True, "template": "CC-BY-4.0"}, CATALOG
            )


class TestExtendSchema:
    def test_extension_accepts_new_model_right(self):
        extended = extend_schema(CATALOG, "AdversarialModelTraining")
        assert extended.custom_rights == ("AdversarialModelTraining",)
        # The original catalog is untouched.
        assert CATALOG.custom_rights == ()

    def test_collision_with_fixed_right(self):
        with pytest.raises(DuplicateRight):
            extend_schema(CATALOG, "Distribute")

    def test_collision_with_existing_custom_right(self):
        extended = extend_schema(CATALOG, "AdversarialModelTraining")
        with pytest.raises(DuplicateRight):
            extend_schema(extended, "AdversarialModelTraining")

    def test_old_vector_reports_new_right_unspecified(self):
        extended = extend_schema(CATALOG, "AdversarialModelTraining")
        vector = interpret(minimal_vector_doc(), extended)
        assert vector.grant("AdversarialModelTraining") is Grant.UNSPECIFIED

    def test_explicit_custom_value_is_kept(self):
        extended = extend_schema(CATALOG, "AdversarialModelTraining")
        doc = minimal_vector_doc(
            custom_rights={"AdversarialModelTraining": {"grant": "denied"}}
        )
        vector = interpret(doc, extended)
        assert vector.grant("AdversarialModelTraining") is Grant.DENIED


class TestInterpretationsDir:
    def test_fixture_dir_loads_with_unavailable_marks(self):
        _, interpretations_dir = bundle_paths("cifar-10")
        loaded = load_interpretations_dir(interpretations_dir, CATALOG)
        assert loaded.vectors["80-million-tiny-images"] is None
        assert loaded.vectors["cydral"] is None
        assert loaded.vectors["cifar-10"] is not None
        assert len(loaded.vectors) == 9

    def test_template_digests_recorded(self):
        _, interpretations_dir = bundle_paths("ffhq")
        loaded = load_interpretations_dir(interpretations_dir, CATALOG)
        assert set(loaded.template_digests) == {"CC-BY-NC-SA-4.0"}
        assert loaded.template_digests["CC-BY-NC-SA-4.0"] == (
            CATALOG.template_info("CC-BY-NC-SA-4.0").digest
        )

    def test_a_load_looks_up_each_template_once_per_reference(self, tmp_path, monkeypatch):
        ids = sorted(CATALOG.templates)
        for i, template_id in enumerate(ids * 2):
            doc = {"subject_id": f"s{i}", "template": template_id}
            (tmp_path / f"s{i}.json").write_text(json.dumps(doc), encoding="utf-8")
        doc = {"subject_id": "gone", "unavailable": True}
        (tmp_path / "gone.json").write_text(json.dumps(doc), encoding="utf-8")
        lookup, calls = catalog_module.LicenseCatalog.template_info, []

        def counted(self, license_id, version=None):
            calls.append(license_id)
            return lookup(self, license_id, version)

        monkeypatch.setattr(catalog_module.LicenseCatalog, "template_info", counted)
        loaded = load_interpretations_dir(tmp_path, CATALOG)
        assert sorted(calls) == sorted(ids * 2)
        assert loaded.template_digests == {t.license_id: t.digest for t in CATALOG.templates.values()}

    def test_two_interpretations_of_one_subject_are_a_parse_error(self, tmp_path):
        doc = json.dumps({"subject_id": "x", "unavailable": True})
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(doc, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_interpretations_dir(tmp_path, CATALOG)
        assert str(exc.value) == f"{tmp_path / 'b.json'}: duplicate interpretation for 'x'"

    def test_missing_directory_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError, match="not a directory"):
            load_interpretations_dir(tmp_path / "nope", CATALOG)


# Every metadata field, and whether a template override may null it.
METADATA_FIELDS = {name: getattr(LicenseMetadata, name, MISSING) is not MISSING
                   for name in LicenseMetadata._fields}
TEMPLATE_VECTORS = {license_id: t.vector.to_dict() for license_id, t in CATALOG.templates.items()}


def rebuilt(catalog, template_id, metadata, extras):
    """A template interpretation's vector built from scratch: every group
    rebuilt, then each registered custom right the vector lacks added as
    Unspecified."""
    base = catalog.template_info(template_id).vector

    def extended(group):
        return {
            name: replace(entry, obligations=merge_obligations([entry.obligations, extras[name]]))
            if extras.get(name) else entry
            for name, entry in group.items()
        }

    custom = extended(base.custom_rights)
    for name in catalog.custom_rights:
        custom.setdefault(name, RightEntry(Grant.UNSPECIFIED))
    return RightsVector(
        metadata=replace(base.metadata, **metadata),
        standalone_rights=extended(base.standalone_rights),
        model_rights=extended(base.model_rights),
        custom_rights=custom,
    )


obligations = st.builds(
    Obligation,
    id=st.sampled_from(["A", "B", "C", "D", "E", "Z"]),  # A, B, C and E occur in templates
    text=st.sampled_from(["one wording", "another wording"]),
    kind=st.sampled_from(ObligationKind),
)
metadata_overrides = st.dictionaries(
    st.sampled_from(sorted(METADATA_FIELDS)), st.text(max_size=8) | st.none(), max_size=4
).map(lambda d: {k: v for k, v in d.items() if v is not None or METADATA_FIELDS[k]})


class TestTemplateInterpretations:
    """A template interpretation changes only what its document changes, and
    is not validated again: the catalog validated its template when it loaded."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(CATALOG.templates)),
        metadata_overrides,
        st.dictionaries(st.sampled_from(FIXED_RIGHTS), st.lists(obligations, max_size=4),
                        max_size=4),
        st.booleans(),
    )
    def test_parsed_vector_is_the_rebuilt_one(self, template_id, metadata, extras, custom):
        catalog = extend_schema(CATALOG, "AdversarialModelTraining") if custom else CATALOG
        doc = {
            "subject_id": "demo",
            "template": template_id,
            "metadata": metadata,
            "extra_obligations": {
                name: [o.to_dict() for o in group] for name, group in extras.items()
            },
        }
        vector = parse_interpretation(doc, catalog).vector
        expected = rebuilt(catalog, template_id, metadata, extras)
        assert vector == expected
        assert vector.to_dict() == expected.to_dict()
        assert validate_rights_vector(vector) == []
        assert {k: t.vector.to_dict() for k, t in CATALOG.templates.items()} == TEMPLATE_VECTORS
        assert TEMPLATE_VECTORS == {
            k: t.vector.to_dict() for k, t in load_catalog().templates.items()
        }

    @pytest.mark.parametrize("template_id", sorted(CATALOG.templates))
    def test_an_unedited_reference_shares_the_template_vector(self, template_id):
        doc = {"subject_id": "demo", "template": template_id}
        parsed = parse_interpretation(doc, CATALOG)
        assert parsed.template is CATALOG.template_info(template_id)
        assert parsed.vector is parsed.template.vector

    @pytest.mark.parametrize("bundle", [*BUNDLE_NAMES, "synthetic"])
    def test_a_load_validates_each_inline_vector_and_each_template_once(
        self, bundle, tmp_path, monkeypatch
    ):
        if bundle == "synthetic":
            _, interpretations_dir = write_synthetic_bundle(tmp_path)
        else:
            _, interpretations_dir = bundle_paths(bundle)
        inline = sum(
            "vector" in json.loads(path.read_text(encoding="utf-8"))
            for path in interpretations_dir.glob("*.json")
        )
        validated = []
        real = catalog_module.validate_rights_vector

        def counted(vector):
            validated.append(vector)
            return real(vector)

        monkeypatch.setattr(catalog_module, "validate_rights_vector", counted)
        catalog = load_catalog()
        load_interpretations_dir(interpretations_dir, catalog)
        assert len(validated) == inline + len(catalog.templates)
