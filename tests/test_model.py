"""Core model: validation examples, round-trip serialization, obligation union."""

from __future__ import annotations

import copy
import json
import os
import warnings
from dataclasses import FrozenInstanceError, replace
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dla import (
    Digest,
    Grant,
    LicenseCapture,
    LicenseMetadata,
    LicenseRange,
    Obligation,
    ObligationKind,
    ProvenanceRecord,
    RightEntry,
    RightsVector,
    SubjectKind,
    TriState,
    UsageScenario,
    validate_provenance,
    validate_rights_vector,
)
from dla.errors import ParseError, UnknownFieldWarning
from dla.catalog import load_catalog, load_interpretations_dir
from dla.model import (
    _SHARED_LIMIT,
    CaptureStatus,
    FIXED_RIGHTS,
    MODEL_RIGHTS,
    STANDALONE_RIGHTS,
    AssessmentRow,
    AssessmentTable,
    AuditInfo,
    LicenseFoundVia,
    VerifiedLicense,
    _BlockingRight,
    canonical_json,
    merge_obligations,
    read_inputs,
)
from dla.resources import templates_dir

from helpers import bundle_paths, record_for


def cifar_record() -> ProvenanceRecord:
    return ProvenanceRecord(
        subject_id="cifar-10",
        subject_kind=SubjectKind.DATASET,
        dataset_name="CIFAR-10",
        dataset_version=None,
        origin_year=2009,
        origin_url="https://www.cs.toronto.edu/~kriz/cifar.html",
        outlet_licensed=TriState.UNKNOWN,
        publicly_available=TriState.YES,
        license_found_via=LicenseFoundVia.OFFICIAL_WEBSITE,
        license_location="https://www.cs.toronto.edu/~kriz/cifar.html",
        license_content="Please cite the accompanying technical report.",
        digest=Digest("md5", "c58f30108f718f92721af3b95e74349a"),
        size_bytes=170498071,
        archive_format="tar.gz",
    )


def full_vector(grant: Grant = Grant.GRANTED, obligations=()) -> RightsVector:
    entry = RightEntry(grant=grant, obligations=tuple(obligations))
    return RightsVector(
        metadata=LicenseMetadata(licensor="L", license_name="N", dataset_name="D"),
        standalone_rights={r: entry for r in STANDALONE_RIGHTS},
        model_rights={r: entry for r in MODEL_RIGHTS},
    )


CITE = Obligation("cite-cifar10", "Cite paper", ObligationKind.CITE)


class TestValidateProvenance:
    def test_cifar_record_is_clean(self):
        assert validate_provenance(cifar_record()) == []

    def test_dataset_without_origin_year(self):
        record = ProvenanceRecord(
            subject_id="x",
            subject_kind=SubjectKind.DATASET,
            dataset_name="X",
            origin_url="https://example.org",
            outlet_licensed=TriState.UNKNOWN,
            publicly_available=TriState.YES,
            license_found_via=LicenseFoundVia.OFFICIAL_WEBSITE,
        )
        report = validate_provenance(record)
        assert len(report) == 1
        assert report[0].field == "origin_year"

    def test_md5_digest_with_31_chars(self):
        record = ProvenanceRecord(
            subject_id="x",
            subject_kind=SubjectKind.WEBSITE,
            dataset_name="X",
            origin_url="https://example.org",
            outlet_licensed=TriState.UNKNOWN,
            publicly_available=TriState.YES,
            license_found_via=LicenseFoundVia.OFFICIAL_WEBSITE,
            digest=Digest("md5", "c58f30108f718f92721af3b95e7434"),
        )
        report = validate_provenance(record)
        assert len(report) == 1
        assert report[0].field == "digest"
        assert "32" in report[0].message

    def test_none_found_with_content_flags(self):
        record = ProvenanceRecord(
            subject_id="x",
            subject_kind=SubjectKind.WEBSITE,
            dataset_name="X",
            origin_url="https://example.org",
            outlet_licensed=TriState.UNKNOWN,
            publicly_available=TriState.YES,
            license_found_via=LicenseFoundVia.NONE_FOUND,
            license_content="surprise",
        )
        assert [v.field for v in validate_provenance(record)] == ["license_content"]

    @pytest.mark.parametrize(
        "changes,violation",
        [
            ({"subject_id": " "}, "subject_id: must be nonempty"),
            ({"origin_year": 0}, "origin_year: must be a positive year"),
            ({"license_found_via": LicenseFoundVia.NONE_FOUND},
             "license_content: must be absent when license_found_via is 'none_found'"),
            ({"digest": Digest("crc32", "0" * 8)}, "digest: unknown digest algorithm 'crc32'"),
            ({"digest": Digest("md5", "g" * 32)}, "digest: hex string contains non-hex characters"),
            ({"size_bytes": -1}, "size_bytes: must be nonnegative"),
        ],
        ids=["blank-subject-id", "year-zero", "none-found-with-content", "unknown-algorithm",
             "non-hex-digest", "negative-size"],
    )
    def test_each_rule_names_its_field_and_rule(self, changes, violation):
        record = replace(cifar_record(), **changes)
        assert [str(v) for v in validate_provenance(record)] == [violation]

    def test_validation_is_pure(self):
        record = cifar_record()
        assert validate_provenance(record) == validate_provenance(record)


class TestValidateRightsVector:
    def test_cifar_interpretation_is_clean(self):
        assert validate_rights_vector(full_vector(obligations=[CITE])) == []

    def test_missing_model_reverse_engineer(self):
        entry = RightEntry(grant=Grant.GRANTED)
        vector = RightsVector(
            metadata=LicenseMetadata(licensor="L", license_name="N", dataset_name="D"),
            standalone_rights={r: entry for r in STANDALONE_RIGHTS},
            model_rights={r: entry for r in MODEL_RIGHTS if r != "ModelReverseEngineer"},
        )
        report = validate_rights_vector(vector)
        assert any(
            v.field == "model_rights.ModelReverseEngineer" and "missing" in v.message
            for v in report
        )

    def test_custom_key_collides_with_fixed(self):
        vector = RightsVector(
            metadata=LicenseMetadata(licensor="L", license_name="N", dataset_name="D"),
            standalone_rights=full_vector().standalone_rights,
            model_rights=full_vector().model_rights,
            custom_rights={"Distribute": RightEntry(grant=Grant.GRANTED)},
        )
        report = validate_rights_vector(vector)
        assert any("collides" in v.message for v in report)


class TestRightEntryParsing:
    def test_bool_shorthand_and_absent_obligations(self):
        entry = RightEntry.from_dict({"grant": True})
        assert entry.grant is Grant.GRANTED
        assert entry.obligations == ()
        assert RightEntry.from_dict({"grant": False}).grant is Grant.DENIED

    def test_closed_enum_rejects_maybe(self):
        with pytest.raises(ParseError) as exc:
            RightEntry.from_dict({"grant": "maybe"}, path="standalone_rights.Tagging")
        assert "standalone_rights.Tagging.grant" in str(exc.value)

    def test_strict_rejects_unknown_fields(self):
        with pytest.raises(ParseError, match="unknown fields"):
            RightEntry.from_dict({"grant": "granted", "bonus": 1})

    def test_lenient_warns_on_unknown_fields(self):
        with pytest.warns(UnknownFieldWarning):
            entry = RightEntry.from_dict({"grant": "granted", "bonus": 1}, strict=False)
        assert entry.grant is Grant.GRANTED


def template_vector_doc() -> dict:
    return json.loads((templates_dir() / "cc-by-4.0.json").read_text(encoding="utf-8"))["vector"]


class TestMappingInput:
    """``from_dict`` reads any Mapping, not only a dict, at the top and nested;
    anything else in an object's place is an error naming that place."""

    def test_mapping_proxies_decode_like_dicts(self):
        doc = template_vector_doc()
        rights = doc["standalone_rights"]
        rights = dict(rights, Access=MappingProxyType(rights["Access"]))
        proxied = MappingProxyType(dict(doc, standalone_rights=MappingProxyType(rights)))
        assert RightsVector.from_dict(proxied) == RightsVector.from_dict(doc)

    def test_unknown_field_in_a_mapping_proxy(self):
        proxied = MappingProxyType({"grant": "granted", "bonus": 1})
        with pytest.raises(ParseError, match=r"^right: unknown fields: \['bonus'\]$"):
            RightEntry.from_dict(proxied)
        warning = r"^right: ignoring unknown fields \['bonus'\]$"
        with pytest.warns(UnknownFieldWarning, match=warning):
            assert RightEntry.from_dict(proxied, strict=False).grant is Grant.GRANTED

    @pytest.mark.parametrize(
        "where", [(), ("standalone_rights",), ("standalone_rights", "Access")], ids=len
    )
    def test_a_list_in_an_objects_place_names_the_place(self, where):
        doc = template_vector_doc()
        if where:
            parent = doc
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = []
        else:
            doc = []
        with pytest.raises(ParseError) as exc:
            RightsVector.from_dict(doc)
        path = "vector" + "".join(f".{key}" for key in where)
        assert str(exc.value) == f"{path}: expected object, got list"


def test_compiled_codecs_are_named_for_their_class():
    """A profile or traceback names the class a compiled codec belongs to."""
    RightEntry.from_dict(RightEntry(Grant.GRANTED).to_dict())
    codec = RightEntry._codec
    for function, name in ((codec.decode, "from_dict"), (codec.encode, "to_dict")):
        assert function.__code__.co_filename == "<codec RightEntry>"
        assert (function.__name__, function.__qualname__) == (name, f"RightEntry.{name}")


def empty_memo() -> dict:
    """The values ``RightEntry.from_dict`` shares, emptied."""
    RightEntry._shared.clear()
    return RightEntry._shared


def decode_outcome(doc, strict: bool, path: str = "right") -> tuple:
    """What decoding one entry gives: its value or error text, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(RightEntry.from_dict(doc, path, strict))
        except ParseError as exc:
            result = f"ParseError: {exc}"
    return result, [(w.category, str(w.message), w.filename) for w in caught]


SHARED_BASE = {
    "grant": "granted",
    "obligations": [{"id": "cite", "text": "Cite the paper.", "kind": "cite"}],
}
SHARED_PLACES = [("grant",), ("obligations",), ("obligations", 0), ("bonus",)] + [
    ("obligations", 0, name) for name in ("id", "text", "kind", "bonus")
]
DELETE = object()
# Scalar type swaps, nulls, arrays and objects in scalar places, and deletion.
SHARED_VALUES = [
    True, 1, 1.0, "granted", False, 0, 0.0, "denied", None, "maybe", "cite", "other", "",
    [], ["granted"], [{"id": "a", "text": "b", "kind": "cite"}], {}, {"grant": "granted"},
    DELETE,
]


def edit(doc: dict, place: tuple, value: object) -> None:
    """Replace, delete or add the value at a place of an entry, if the
    place is still there."""
    for key in place[:-1]:
        if isinstance(doc, list) and isinstance(key, int) and key < len(doc):
            doc = doc[key]
        elif isinstance(doc, dict) and key in doc:
            doc = doc[key]
        else:
            return
    key = place[-1]
    if isinstance(doc, dict) or (isinstance(doc, list) and isinstance(key, int) and key < len(doc)):
        if value is not DELETE:
            doc[key] = copy.deepcopy(value)
        elif isinstance(doc, list) or key in doc:
            del doc[key]


def proxied(doc: object, entry: bool, obligation: bool) -> object:
    """The entry, its first obligation or both given as a MappingProxyType."""
    obligations = doc.get("obligations")
    if obligation and isinstance(obligations, list) and obligations:
        if isinstance(obligations[0], dict):
            obligations[0] = MappingProxyType(obligations[0])
    return MappingProxyType(doc) if entry else doc


@st.composite
def mutated_entries(draw) -> object:
    doc = copy.deepcopy(SHARED_BASE)
    edits = st.tuples(st.sampled_from(SHARED_PLACES), st.sampled_from(SHARED_VALUES))
    for place, value in draw(st.lists(edits, max_size=3)):
        edit(doc, place, value)
    return proxied(doc, draw(st.booleans()), draw(st.booleans()))


def assert_sharing_changes_nothing(docs: list, strict: bool) -> None:
    """Each entry decodes after a warm memo as it does with an empty one."""
    expected = []
    for i, doc in enumerate(docs):
        empty_memo()
        expected.append(decode_outcome(doc, strict, f"rights[{i}]"))
    empty_memo()
    for doc in docs:  # every entry that decodes is shared, in either mode
        decode_outcome(doc, strict=True)
        decode_outcome(doc, strict=False)
    warm = [decode_outcome(doc, strict, f"rights[{i}]") for i, doc in enumerate(docs)]
    assert warm == expected


class TestSharedEntries:
    """Equal right entries decode to one shared value, and sharing changes
    no outcome: every value, error and warning is the one an empty memo gives."""

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    @pytest.mark.parametrize("proxies", [(False, False), (True, True)], ids=["dicts", "proxies"])
    def test_every_single_edit_decodes_as_with_an_empty_memo(self, strict, proxies):
        docs = []
        for place in SHARED_PLACES:
            for value in SHARED_VALUES:
                doc = copy.deepcopy(SHARED_BASE)
                edit(doc, place, value)
                docs.append(proxied(doc, *proxies))
        assert_sharing_changes_nothing(docs, strict)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(mutated_entries(), min_size=1, max_size=6), st.booleans())
    def test_mutated_entries_decode_as_with_an_empty_memo(self, docs, strict):
        assert_sharing_changes_nothing(docs, strict)

    def test_true_one_and_granted_never_share(self):
        memo = empty_memo()
        assert RightEntry.from_dict({"grant": True}) == RightEntry.from_dict({"grant": "granted"})
        for value, name in ((1, "int"), (1.0, "float")):
            with pytest.raises(ParseError, match=rf"^right\.grant: expected string, got {name}$"):
                RightEntry.from_dict({"grant": value})
        assert len(memo) == 2

    @pytest.mark.parametrize("value", [{"granted": True}, ["granted"]], ids=["object", "array"])
    def test_an_unhashable_grant_gets_its_parse_error(self, value):
        empty_memo()
        RightEntry.from_dict({"grant": "granted"})
        name = type(value).__name__
        with pytest.raises(ParseError, match=rf"^right\.grant: expected string, got {name}$"):
            RightEntry.from_dict({"grant": value})

    def test_a_lenient_unknown_field_warns_at_each_occurrence(self):
        empty_memo()
        doc = {"grant": "granted", "bonus": 1}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = RightEntry.from_dict(doc, "rights[0]", strict=False)
            second = RightEntry.from_dict(dict(doc), "rights[1]", strict=False)
        assert [str(w.message) for w in caught] == [
            f"rights[{i}]: ignoring unknown fields ['bonus']" for i in (0, 1)
        ]
        assert first == second == RightEntry(Grant.GRANTED)

    def test_equal_entries_are_one_object(self):
        empty_memo()
        first = RightEntry.from_dict(copy.deepcopy(SHARED_BASE))
        assert RightEntry.from_dict(MappingProxyType(copy.deepcopy(SHARED_BASE))) is first
        assert RightEntry.from_dict(json.loads(json.dumps(SHARED_BASE))) is first

    def test_a_shared_entry_cannot_be_changed(self):
        empty_memo()
        doc = full_vector(Grant.DENIED).to_dict()
        first, second = RightsVector.from_dict(doc), RightsVector.from_dict(copy.deepcopy(doc))
        shared = first.entry("Tagging")
        assert second.entry("Publish") is shared
        with pytest.raises(FrozenInstanceError, match=r"^cannot assign to field 'grant'$"):
            shared.grant = Grant.GRANTED
        with pytest.raises(FrozenInstanceError, match=r"^cannot delete field 'obligations'$"):
            del shared.obligations
        assert shared == RightEntry(Grant.DENIED) == second.entry("Publish")

    def test_the_memo_stays_within_its_bound(self):
        memo = empty_memo()

        def entry(i: int) -> dict:
            return {"grant": "denied", "obligations": [{"id": f"o{i}", "text": "t", "kind": "other"}]}

        for i in range(_SHARED_LIMIT + 10):
            assert RightEntry.from_dict(entry(i)).obligations[0].id == f"o{i}"
            assert 0 < len(memo) <= _SHARED_LIMIT
        assert RightEntry.from_dict(entry(0)) is RightEntry.from_dict(entry(0))


def test_loading_cifar10_builds_each_distinct_entry_once(monkeypatch):
    catalog = load_catalog()
    RightEntry(Grant.GRANTED)  # compiles __init__, which would replace a wrapper around it
    built, real_init = [], RightEntry.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(RightEntry, "__init__", init)
    empty_memo()
    built.clear()
    loaded = load_interpretations_dir(bundle_paths("cifar-10")[1], catalog)
    entries = [
        entry
        for vector in loaded.vectors.values()
        if vector is not None
        for group in (vector.standalone_rights, vector.model_rights, vector.custom_rights)
        for entry in group.values()
    ]
    assert (len(entries), len(set(entries))) == (77, 3)
    assert len(built) == 3
    assert len({id(entry) for entry in entries}) == 3


class TestObligationUnion:
    a = Obligation("a", "first", ObligationKind.CITE)
    a2 = Obligation("a", "same id, other wording", ObligationKind.ATTRIBUTION)
    b = Obligation("b", "second", ObligationKind.TAKEDOWN)

    def test_union_dedupes_by_id_keeping_first(self):
        merged = merge_obligations([(self.a, self.b), (self.a2,)])
        assert [o.id for o in merged] == ["a", "b"]
        assert merged[0].text == "first"

    def test_idempotent(self):
        once = merge_obligations([(self.a, self.b)])
        twice = merge_obligations([once, once])
        assert [o.id for o in twice] == [o.id for o in once]

    @given(
        st.lists(
            st.lists(
                st.builds(
                    Obligation,
                    id=st.sampled_from("abcdef"),
                    text=st.text(max_size=8),
                    kind=st.sampled_from(ObligationKind),
                ),
                max_size=4,
            ),
            max_size=4,
        )
    )
    def test_union_id_sets_commute_and_associate(self, groups):
        ids = lambda merged: {o.id for o in merged}
        forward = merge_obligations(groups)
        backward = merge_obligations(list(reversed(groups)))
        assert ids(forward) == ids(backward)
        if len(groups) >= 3:
            left = merge_obligations([merge_obligations(groups[:2]), *groups[2:]])
            right = merge_obligations([groups[0], merge_obligations(groups[1:])])
            assert ids(left) == ids(right) == ids(forward)


# ---------------------------------------------------------------------------
# Round-trip serialization for every document type
# ---------------------------------------------------------------------------

obligation_st = st.builds(
    Obligation,
    id=st.text(alphabet="abcdef-", min_size=1, max_size=8),
    text=st.text(max_size=20),
    kind=st.sampled_from(ObligationKind),
)
entry_st = st.builds(
    RightEntry,
    grant=st.sampled_from(Grant),
    obligations=st.lists(obligation_st, max_size=3, unique_by=lambda o: o.id).map(tuple),
)
opt_text = st.none() | st.text(max_size=15)

metadata_st = st.builds(
    LicenseMetadata,
    licensor=st.text(max_size=15),
    license_name=st.text(max_size=15),
    dataset_name=st.text(max_size=15),
    dataset_version=opt_text,
    credit_notice=opt_text,
    validity_period=opt_text,
    liability_warranty=opt_text,
    designated_third_parties=opt_text,
    additional_conditions=opt_text,
)

custom_names = st.dictionaries(
    st.text(alphabet="xyz_", min_size=1, max_size=6).filter(lambda n: n not in FIXED_RIGHTS),
    entry_st,
    max_size=2,
)

vector_st = st.builds(
    RightsVector,
    metadata=metadata_st,
    standalone_rights=st.fixed_dictionaries({r: entry_st for r in STANDALONE_RIGHTS}),
    model_rights=st.fixed_dictionaries({r: entry_st for r in MODEL_RIGHTS}),
    custom_rights=custom_names,
)

record_st = st.builds(
    ProvenanceRecord,
    subject_id=st.text(alphabet="abc-", min_size=1, max_size=10),
    subject_kind=st.sampled_from(SubjectKind),
    dataset_name=st.text(max_size=15),
    dataset_version=opt_text,
    origin_year=st.none() | st.integers(min_value=1990, max_value=2030),
    origin_url=st.text(max_size=20),
    description=st.text(max_size=20),
    collection_process=st.text(max_size=20),
    downloaded_outlet=opt_text,
    outlet_licensed=st.sampled_from(TriState),
    publicly_available=st.sampled_from(TriState),
    notes=st.text(max_size=20),
    license_found_via=st.sampled_from(LicenseFoundVia),
    license_location=opt_text,
    license_content=opt_text,
    digest=st.none()
    | st.builds(Digest, algorithm=st.just("md5"), hex=st.just("0" * 32)),
    size_bytes=st.none() | st.integers(min_value=0, max_value=10**12),
    archive_format=opt_text,
)

range_st = st.integers(min_value=1990, max_value=2030).map(LicenseRange.ending_at)

capture_st = st.one_of(
    st.builds(
        LicenseCapture,
        source_id=st.text(alphabet="abc-", min_size=1, max_size=8),
        status=st.sampled_from([CaptureStatus.IN_RANGE, CaptureStatus.OUT_OF_RANGE_FALLBACK]),
        capture_year=st.integers(min_value=1995, max_value=2030),
        capture_url=st.text(max_size=20),
        content=st.text(max_size=20),
    ),
    st.builds(
        LicenseCapture,
        source_id=st.text(alphabet="abc-", min_size=1, max_size=8),
        status=st.just(CaptureStatus.UNAVAILABLE),
    ),
)

scenario_st = st.builds(
    UsageScenario,
    id=st.text(alphabet="ABC", min_size=1, max_size=6),
    required_rights=st.lists(
        st.sampled_from(FIXED_RIGHTS), min_size=1, max_size=4, unique=True
    ).map(tuple),
)

verified_st = st.builds(
    VerifiedLicense,
    root_id=st.text(alphabet="abc-", min_size=1, max_size=8),
    rights=st.fixed_dictionaries({r: entry_st for r in FIXED_RIGHTS}),
    restrictors=st.fixed_dictionaries(
        {r: st.lists(st.sampled_from(["s1", "s2"]), max_size=2, unique=True).map(tuple)
         for r in FIXED_RIGHTS}
    ),
    changed=st.lists(st.sampled_from(FIXED_RIGHTS), max_size=3, unique=True).map(tuple),
    residual_risk_flags=st.lists(st.sampled_from(["s1", "s2"]), max_size=2, unique=True).map(tuple),
    audit=st.none()
    | st.builds(
        AuditInfo,
        engine_version=st.just("0.1.0"),
        inputs_digest=st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
        policy=st.fixed_dictionaries({"unknown_denies": st.booleans()}),
    ),
)

row_st = st.builds(
    AssessmentRow,
    scenario_id=st.sampled_from(["DD", "RPEAI", "CAI"]),
    permitted=st.booleans(),
    obligations=st.lists(st.sampled_from("ABCDE"), max_size=3, unique=True).map(tuple),
    blocking_rights=st.lists(
        st.builds(
            _BlockingRight,
            right=st.sampled_from(FIXED_RIGHTS),
            restrictors=st.lists(st.sampled_from(["s1", "s2"]), max_size=2, unique=True).map(tuple),
        ),
        max_size=2,
    ).map(tuple),
)

table_st = st.builds(
    AssessmentTable,
    dataset_id=st.text(alphabet="abc-", min_size=1, max_size=8),
    dataset_name=st.text(max_size=15),
    rows=st.lists(row_st, max_size=3).map(tuple),
    obligation_legend=st.dictionaries(
        st.sampled_from("ABCDE"), obligation_st, max_size=3
    ),
    advisory_obligations=st.lists(st.sampled_from("ABCDE"), max_size=3, unique=True).map(tuple),
)


@pytest.mark.parametrize(
    "strategy,cls",
    [
        (record_st, ProvenanceRecord),
        (range_st, LicenseRange),
        (capture_st, LicenseCapture),
        (vector_st, RightsVector),
        (entry_st, RightEntry),
        (obligation_st, Obligation),
        (verified_st, VerifiedLicense),
        (scenario_st, UsageScenario),
        (table_st, AssessmentTable),
    ],
    ids=lambda p: getattr(p, "__name__", ""),
)
@settings(max_examples=60)
@given(data=st.data())
def test_round_trip_all_types(data, strategy, cls):
    value = data.draw(strategy)
    doc = value.to_dict()
    text = canonical_json(doc)
    parsed = cls.from_dict(json.loads(text))
    assert parsed == value
    assert canonical_json(parsed.to_dict()) == text


def test_round_trip_through_disk_form_is_byte_identical():
    record = cifar_record()
    first = canonical_json(record.to_dict())
    second = canonical_json(ProvenanceRecord.from_dict(json.loads(first)).to_dict())
    assert first == second


def test_a_value_cannot_be_changed():
    record = cifar_record()
    with pytest.raises(FrozenInstanceError, match=r"^cannot assign to field 'origin_year'$"):
        record.origin_year = 2010
    with pytest.raises(FrozenInstanceError, match=r"^cannot delete field 'digest'$"):
        del record.digest
    assert record == cifar_record()


def test_license_range_rejects_wrong_width():
    with pytest.raises(ValueError):
        LicenseRange(2005, 2007)


def test_capture_status_content_coupling():
    with pytest.raises(ValueError):
        LicenseCapture(source_id="s", status=CaptureStatus.UNAVAILABLE, content="text")
    with pytest.raises(ValueError):
        LicenseCapture(source_id="s", status=CaptureStatus.IN_RANGE, capture_year=2000)


def test_usage_scenario_requires_rights():
    with pytest.raises(ValueError):
        UsageScenario(id="EMPTY", required_rights=())


def test_record_helper_produces_clean_records():
    assert validate_provenance(record_for("demo")) == []


# The size ``read_inputs`` asks ``os.read`` for.
CHUNK = 1 << 16


def test_read_inputs_joins_every_chunk_of_every_file(tmp_path, monkeypatch):
    sizes = {"empty.json": 0, "short.json": 100, "two.json": 2 * CHUNK,
             "tail.json": 5 * CHUNK + 123}
    expected = {name: bytes(i % 251 for i in range(size)) for name, size in sizes.items()}
    for name, data in expected.items():
        (tmp_path / name).write_bytes(data)
    raw_read, reads = os.read, []

    def counted(fd, size):
        chunk = raw_read(fd, size)
        reads.append(len(chunk))
        return chunk

    monkeypatch.setattr(os, "read", counted)
    files = read_inputs(tmp_path)
    assert list(files) == sorted(expected)
    assert files == expected
    # One read per whole or partial chunk, and one that meets the end.
    nonempty = sum(1 for n in reads if n)
    assert nonempty == sum(-(-size // CHUNK) for size in sizes.values())
    assert reads.count(0) == len(sizes)
