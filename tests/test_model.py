"""Core model: validation examples, round-trip serialization, obligation union."""

from __future__ import annotations

import contextlib
import copy
import json
import marshal
import os
import sys
import threading
import warnings
from dataclasses import FrozenInstanceError
from types import MappingProxyType
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dla.model
from dla import (
    Digest,
    Grant,
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
    assess_all,
    default_scenarios,
    lookup_or_verify,
    validate_provenance,
    validate_rights_vector,
)
from dla.errors import ParseError, UnknownFieldWarning
from dla.jsonio import read_inputs
from dla.catalog import (
    _InterpretationDocument,
    _TemplateDocument,
    load_catalog,
    load_interpretations_dir,
)
from dla.lineage import parse_capture_list
from dla.model import (
    _HOT,
    _SHARED_LIMIT,
    FIXED_RIGHTS,
    MODEL_RIGHTS,
    STANDALONE_RIGHTS,
    AssessmentRow,
    AssessmentTable,
    AuditInfo,
    Document,
    LicenseFoundVia,
    Value,
    VerifiedLicense,
    Violation,
    _BlockingRight,
    _codec,
    canonical_json,
    merge_obligations,
    replace,
)
from dla.resources import templates_dir

from helpers import DELETE, BUNDLE_NAMES, bundle_paths, edit, read_bundle, record_for


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
GROUPS = ("standalone_rights", "model_rights", "custom_rights")


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

    def test_edits_to_the_maps_it_was_built_from_leave_the_vector_as_it_was(self):
        granted, denied = RightEntry(grant=Grant.GRANTED), RightEntry(grant=Grant.DENIED)
        standalone = {r: granted for r in STANDALONE_RIGHTS}
        model = {r: granted for r in MODEL_RIGHTS}
        custom = {"X": denied}
        vector = RightsVector(LicenseMetadata(licensor="L", license_name="N", dataset_name="D"),
                              standalone, model, custom)
        before = vector.to_dict()
        standalone["Access"] = model["Research"] = denied
        custom["X"] = granted
        custom["Y"] = granted
        assert [vector.grant(r) for r in ("Access", "Research", "X", "Y")] == [
            Grant.GRANTED, Grant.GRANTED, Grant.DENIED, Grant.UNSPECIFIED,
        ]
        assert vector.to_dict() == before

    def test_a_map_already_in_canonical_order_is_still_copied(self):
        """Fixed names first, in order, then a foreign one: the order is kept
        as given, and so is the vector when the caller edits the map."""
        granted, denied = RightEntry(grant=Grant.GRANTED), RightEntry(grant=Grant.DENIED)
        standalone = {r: granted for r in STANDALONE_RIGHTS + ("Foreign",)}
        model = {r: granted for r in MODEL_RIGHTS + ("Foreign",)}
        vector = RightsVector(LicenseMetadata(licensor="L", license_name="N", dataset_name="D"),
                              standalone, model)
        assert (tuple(vector.standalone_rights), tuple(vector.model_rights)) == (
            tuple(standalone), tuple(model),
        )
        before = vector.to_dict()
        for rights in (standalone, model):
            rights.update(dict.fromkeys(rights, denied), Later=denied)
        assert vector.to_dict() == before
        assert vector.grant("Access") is vector.grant("Research") is Grant.GRANTED
        assert vector.grant("Later") is Grant.UNSPECIFIED


class TestRightsMapOwnership:
    """A vector's ``__post_init__`` copies each rights map, however the
    vector is built: by ``__init__``, so also by ``replace``, or by a decode
    in either tier. No two vectors, and no vector and its input, share one."""

    @pytest.mark.parametrize("shape", ["canonical", "reordered", "no custom"])
    @pytest.mark.parametrize("tier", ["interpreted", "compiled"])
    def test_two_decodes_share_no_group_dict_with_each_other_or_the_input(
            self, tier, shape, use_tier):
        use_tier(tier)
        doc = full_vector(obligations=[CITE]).to_dict()
        doc["custom_rights"] = {"X": {"grant": "denied"}}
        if shape == "reordered":
            doc["standalone_rights"] = dict(reversed(doc["standalone_rights"].items()))
        elif shape == "no custom":
            del doc["custom_rights"]
        first, second = RightsVector.from_dict(doc), RightsVector.from_dict(doc)
        groups = [getattr(v, g) for v in (first, second) for g in GROUPS]
        assert all(group.__class__ is dict for group in groups)
        inputs = [doc[g] for g in GROUPS if g in doc]
        assert len({id(group) for group in groups + inputs}) == len(groups + inputs)
        assert tuple(first.standalone_rights) == STANDALONE_RIGHTS
        doc["standalone_rights"]["Access"] = {"grant": "denied"}
        first.model_rights["Research"] = RightEntry(grant=Grant.DENIED)
        first.custom_rights["Y"] = RightEntry(grant=Grant.GRANTED)
        assert (first.grant("Access"), second.grant("Research"), second.grant("Y")) == (
            Grant.GRANTED, Grant.GRANTED, Grant.UNSPECIFIED)

    def test_replace_copies_a_callers_maps(self):
        """As ``__init__`` does (``TestValidateRightsVector``), which it calls."""
        base = full_vector()
        maps = {g: dict(getattr(base, g)) for g in GROUPS}
        vector = replace(base, **maps)
        assert all(getattr(vector, g) is not maps[g] for g in GROUPS)
        maps["standalone_rights"]["Access"] = RightEntry(grant=Grant.DENIED)
        maps["custom_rights"]["X"] = RightEntry(grant=Grant.DENIED)
        assert (vector.grant("Access"), vector.grant("X")) == (Grant.GRANTED, Grant.UNSPECIFIED)

    @pytest.mark.parametrize("ids, repeated", [
        ((), ()), (("a",), ()), (("a", "b"), ()), (("a", "a"), ("a",)),
        (("c", "a", "b", "a", "c", "c"), ("a", "c")),
    ])
    def test_an_entry_built_by_init_records_the_repeated_ids_a_decoded_one_does(
            self, ids, repeated):
        obligations = tuple(Obligation(i, f"text {n}", ObligationKind.OTHER) for n, i in enumerate(ids))
        built = RightEntry(Grant.GRANTED, obligations)
        RightEntry._shared.clear()
        decoded = RightEntry.from_dict(built.to_dict())
        assert decoded == built and decoded is not built
        assert built._duplicate_ids == decoded._duplicate_ids == repeated
        copied = (copy.copy(built), copy.deepcopy(built), replace(built, grant=Grant.DENIED))
        assert [entry._duplicate_ids for entry in copied] == [repeated] * 3
        assert list(vars(built)) == list(RightEntry._fields)  # not a field


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
    for _ in range(_HOT):  # each call past the memo, so that the decoder is compiled
        RightEntry._decode(RightEntry(Grant.GRANTED)._encode(), "right", True)
    function = RightEntry.__dict__["_decode"]
    assert function.__code__.co_filename == "<codec RightEntry>"
    assert (function.__name__, function.__qualname__) == ("_decode", "RightEntry._decode")


@pytest.mark.parametrize("tier", ["interpreted", "compiled"])
def test_a_nested_warning_names_the_field_decoder_both_tiers_share(tier, use_tier):
    """A nested document's unknown-field warning names the caller of its
    ``from_dict``: in either tier, the field decoder in ``dla.model``."""
    use_tier(tier)
    doc = template_vector_doc()
    doc["metadata"]["bonus"] = 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        RightsVector.from_dict(doc, strict=False)
    assert [(w.category, str(w.message), w.filename) for w in caught] == [
        (UnknownFieldWarning, "vector.metadata: ignoring unknown fields ['bonus']", dla.model.__file__)
    ]


class Subdict(dict):
    pass


class Substr(str):
    pass


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
# Scalar type swaps, nulls, arrays and objects in scalar places, and deletion.
SHARED_VALUES = [
    True, 1, 1.0, "granted", False, 0, 0.0, "denied", None, "maybe", "cite", "other", "",
    [], ["granted"], [{"id": "a", "text": "b", "kind": "cite"}], {}, {"grant": "granted"},
    DELETE,
]


def edit_entry(doc: dict, place: tuple, value: object) -> None:
    """:func:`helpers.edit` with a copy of ``value``, if the place is still there."""
    with contextlib.suppress(KeyError, IndexError, TypeError):
        edit(doc, place, value if value is DELETE else copy.deepcopy(value))


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
        edit_entry(doc, place, value)
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
                edit_entry(doc, place, value)
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
        assert RightEntry.from_dict(MappingProxyType(copy.deepcopy(SHARED_BASE))) == first
        assert RightEntry.from_dict(json.loads(json.dumps(SHARED_BASE))) is first

    @pytest.mark.parametrize(
        "doc",
        [MappingProxyType(copy.deepcopy(SHARED_BASE)), Subdict(copy.deepcopy(SHARED_BASE)),
         dict(SHARED_BASE, grant=Substr("granted")), dict(SHARED_BASE, grant=Grant.GRANTED)],
        ids=["mapping-proxy", "dict-subclass", "str-subclass", "enum-member"],
    )
    def test_an_entry_not_made_of_exact_built_in_types_is_not_shared(self, doc):
        memo = empty_memo()
        assert RightEntry.from_dict(doc) == RightEntry.from_dict(copy.deepcopy(SHARED_BASE))
        assert len(memo) == 1  # the plain-dict form only

    @pytest.mark.parametrize("place", [("bonus",), ("obligations", 0, "bonus")], ids=len)
    def test_a_lenient_decode_that_warned_is_never_stored(self, place):
        memo = empty_memo()
        doc = copy.deepcopy(SHARED_BASE)
        edit(doc, place, 1)
        for _ in range(2):
            with pytest.warns(UnknownFieldWarning, match=r"^right\S*: ignoring unknown fields"):
                assert RightEntry.from_dict(doc, strict=False) == RightEntry.from_dict(SHARED_BASE)
            assert len(memo) == 1  # the entry without the unknown field only

    @pytest.mark.filterwarnings("ignore::dla.errors.UnknownFieldWarning")
    def test_threads_never_store_a_decode_that_warned(self):
        """A warning in one thread during another thread's decode keeps that
        decode out of the memo too; a lost count would let one in."""
        memo = empty_memo()

        def work(n: int) -> None:
            for i in range(300):
                doc = copy.deepcopy(SHARED_BASE)
                edit(doc, ("obligations", 0, "id"), f"o{n}-{i}")
                if i % 2:
                    edit(doc, ("obligations", 0, "bonus") if i % 4 == 1 else ("bonus",), 1)
                RightEntry.from_dict(doc, strict=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stored = [marshal.loads(key) for key in memo]
        assert stored and not any("bonus" in doc or "bonus" in doc["obligations"][0] for doc in stored)

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
    # The lookup compiles _decode, which would replace a wrapper around it.
    built, real_decode = [], RightEntry._decode

    def decode(data, path, strict):
        built.append(data)
        return real_decode(data, path, strict)

    monkeypatch.setattr(RightEntry, "_decode", decode)
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


@pytest.mark.parametrize("tier", ["interpreted", "compiled"])
def test_a_vector_decoder_serves_entry_memo_hits_itself(tier, monkeypatch):
    """In either tier, a vector's decoder looks each entry up in the memo and
    calls ``RightEntry.from_dict`` only on a miss."""
    monkeypatch.setattr(RightsVector, "_decode", RightsVector.__dict__["_decode"])
    interpreted, compiled = _codec(RightsVector, hot=0)
    decode = interpreted["_decode"] if tier == "interpreted" else compiled()
    calls, from_dict = [], RightEntry.from_dict.__func__

    def counted(cls, data, path=None, strict=True):
        calls.append(path)
        return from_dict(cls, data, path, strict)

    monkeypatch.setattr(RightEntry, "from_dict", classmethod(counted))
    empty_memo()
    doc = full_vector(Grant.DENIED).to_dict()
    first = decode(doc, "vector", True)
    assert calls == [(("vector", "standalone_rights"), "Access")]  # then each entry is a hit
    assert decode(copy.deepcopy(doc), "vector", True) == first == full_vector(Grant.DENIED)
    assert len(calls) == 1
    doc["model_rights"]["Publish"] = MappingProxyType(doc["model_rights"]["Publish"])
    assert decode(doc, "vector", True) == first  # marshal refuses it: from_dict decodes it
    assert calls[1:] == [(("vector", "model_rights"), "Publish")]


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


def test_values_of_two_classes_with_equal_fields_are_unequal():
    digest, violation = Digest("sha256", "00"), Violation("sha256", "00")
    assert digest != violation and violation != digest
    assert not digest == violation


# ---------------------------------------------------------------------------
# Construction: decoders, and copies through __init__ (dla.model.replace)
# ---------------------------------------------------------------------------


def fixture_values() -> dict[type, list]:
    """Each distinct value, by class, that the seven fixture bundles decode
    to, with the values in their fields: lineages, interpretation and
    template documents and what they parse to, capture lists, the default
    scenarios, and each bundle's verified license and assessment table
    decoded from their JSON."""
    found: dict[type, list] = {}
    seen: set[int] = set()

    def walk(obj: object) -> None:
        if isinstance(obj, Value):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            found.setdefault(type(obj), []).append(obj)
            items = [getattr(obj, name) for name in obj._fields]
        elif isinstance(obj, Mapping):
            items = list(obj.values())
        elif isinstance(obj, (list, tuple)):
            items = obj
        else:
            return
        for item in items:
            walk(item)

    catalog = load_catalog()
    walk([catalog, default_scenarios()])
    for path in sorted(templates_dir().glob("*.json")):
        walk(_TemplateDocument.from_dict(json.loads(path.read_bytes())))
    for name in BUNDLE_NAMES:
        bundle = read_bundle(name)
        verified, _ = lookup_or_verify(None, bundle)
        table = assess_all(verified, default_scenarios())
        walk([bundle, bundle.graph, bundle.interpretations, verified.audit,
              VerifiedLicense.from_dict(verified.to_dict()),
              AssessmentTable.from_dict(table.to_dict())])
        lineage, interpretations = bundle_paths(name)
        for path in sorted(interpretations.glob("*.json")):
            walk(_InterpretationDocument.from_dict(json.loads(path.read_bytes())))
        for path in sorted((lineage.parent / "captures").glob("*.json")):
            walk(parse_capture_list(json.loads(path.read_bytes())))
    return found


FIXTURE_VALUES = fixture_values()


def test_fixture_values_cover_every_decoded_class():
    names = {cls.__name__ for cls in FIXTURE_VALUES}
    assert names >= {
        "AssessmentRow", "AssessmentTable", "AuditInfo", "CaptureInput", "Digest",
        "LicenseMetadata", "Obligation", "ProvenanceRecord", "RightEntry", "RightsVector",
        "UsageScenario", "VerifiedLicense", "_BlockingRight", "_InterpretationDocument",
        "_TemplateDocument", "LineageGraph", "LicenseTemplate", "InterpretationSet",
    }


def same(a: object, b: object) -> bool:
    """Equal values, and for documents equal JSON, key order included."""
    if isinstance(a, Document):
        return canonical_json(a.to_dict()) == canonical_json(b.to_dict())
    return a == b


@pytest.mark.parametrize("cls", sorted(FIXTURE_VALUES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_model_replace_changes_only_the_named_field(cls):
    """A copy with one field changed holds that field of the other value and
    every other field of the first, as the two documents merged would, and
    only its fields, in declaration order."""
    values = FIXTURE_VALUES[cls][:20]
    for i, value in enumerate(values):
        other = values[(i + 1) % len(values)]
        for name in cls._fields:
            change = {name: getattr(other, name)}
            copy_of = replace(value, **change)
            assert type(copy_of) is cls
            expected = {g: getattr(value, g) for g in cls._fields} | change
            assert {g: getattr(copy_of, g) for g in cls._fields} == expected
            if isinstance(value, Document):
                merged = {**value.to_dict(), name: other.to_dict()[name]}
                assert canonical_json(copy_of.to_dict()) == canonical_json(merged)
            assert list(vars(copy_of)) == list(cls._fields)
        assert same(replace(value), value)
        with pytest.raises(TypeError):
            replace(value, no_such_field=1)


def test_model_replace_runs_post_init_again():
    vector = FIXTURE_VALUES[RightsVector][0]
    reordered = {
        "standalone_rights": dict(reversed(vector.standalone_rights.items())),
        "model_rights": dict(reversed(vector.model_rights.items())),
    }
    copy_of = replace(vector, **reordered)
    assert tuple(copy_of.standalone_rights) == STANDALONE_RIGHTS
    assert tuple(copy_of.model_rights) == MODEL_RIGHTS
    scenario = FIXTURE_VALUES[UsageScenario][0]
    twice = scenario.required_rights * 2
    assert replace(scenario, required_rights=twice).required_rights == scenario.required_rights
    with pytest.raises(ValueError, match=r"consecutive years, got \[2000, 2010\]"):
        replace(LicenseRange(2009, 2010), start_year=2000)


@pytest.mark.parametrize(
    "cls", sorted((c for c in FIXTURE_VALUES if issubclass(c, Document)), key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_a_decoded_value_equals_the_value_built_by_keyword(cls):
    names = list(cls._fields)
    for doc in {canonical_json(value.to_dict()): value.to_dict()
                for value in FIXTURE_VALUES[cls]}.values():
        decoded = cls.from_dict(doc, strict=True)
        built = cls(**{name: getattr(decoded, name) for name in names})
        assert decoded == built and same(decoded, built)
        assert list(vars(decoded)) == names
        with pytest.raises(FrozenInstanceError):
            setattr(decoded, names[0], None)
        with pytest.raises(FrozenInstanceError):
            delattr(decoded, names[0])
        assert list(vars(decoded)) == names


def test_rights_by_name_reads_each_right_as_entry_does():
    """A name in more than one group reads from the first of standalone,
    model and custom rights, in both lookups."""
    granted, denied = RightEntry(grant=Grant.GRANTED), RightEntry(grant=Grant.DENIED)
    unspecified = RightEntry(grant=Grant.UNSPECIFIED)
    vector = RightsVector(LicenseMetadata(licensor="L", license_name="N", dataset_name="D"),
                          {"Access": granted, "Tagging": granted},
                          {"Access": denied, "Research": denied},
                          {"Access": unspecified, "Research": granted, "Own": granted})
    by_name = vector.rights_by_name()
    assert by_name == {n: vector.entry(n) for n in ("Access", "Tagging", "Research", "Own")}
    assert (by_name["Access"], by_name["Research"], by_name["Own"]) == (granted, denied, granted)
    assert vector.rights_by_name() is not by_name  # a new dict for each caller


def test_license_range_rejects_wrong_width():
    with pytest.raises(ValueError):
        LicenseRange(2005, 2007)


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
