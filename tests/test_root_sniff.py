"""A store hit reads its key's root record out of the lineage text
(:func:`dla.lineage.sniff_root`) and decodes no lineage.

The sniff is a guess that only a fresh blob confirms, so it may change
nothing but speed: every run here prints what a run without a store prints,
and the sniff returns the root record of a valid lineage or nothing.
"""

from __future__ import annotations

import functools
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import dla.store
from dla import AnalysisStore, Bundle, lookup_or_verify
from dla.errors import StaleEntryWarning, UnknownFieldWarning
from dla.jsonio import canonical_json
from dla.lineage import LineageGraph, decode_root, sniff_root

from helpers import BUNDLE_NAMES, bundle_paths, copy_bundle, run_cli, run_dla

FFHQ_LINEAGE, FFHQ_INTERPRETATIONS = bundle_paths("ffhq")


# A child's stderr holds each warning as an operator sees it, and a traceback if one escapes.
dla_process = functools.partial(run_dla, text=True, timeout=300)


def ffhq() -> dict:
    return json.loads(FFHQ_LINEAGE.read_text(encoding="utf-8"))


def lenient_record_root_id(tmp_path: Path, request) -> tuple:
    """A record's unknown ``root_id``, written after the top-level one, names
    another record: the sniff finds that record, whose key has no blob."""
    doc = ffhq()
    doc["records"][1]["root_id"] = "flickr"
    doc = {"root_id": doc["root_id"], "records": doc["records"], "edges": doc["edges"]}
    return json.dumps(doc, indent=2), FFHQ_INTERPRETATIONS, ("--lenient",), 3


def subject_id_not_first(tmp_path: Path, request) -> tuple:
    doc = ffhq()
    root = doc["records"][0]
    root["subject_id"] = root.pop("subject_id")
    return json.dumps(doc, indent=2), FFHQ_INTERPRETATIONS, (), 3


def escaped_root_id_key(tmp_path: Path, request) -> tuple:
    text = json.dumps(ffhq(), indent=2)
    assert text.count('"root_id":') == 1
    return text.replace('"root_id":', '"root\\u005fid":'), FFHQ_INTERPRETATIONS, (), 3


def escaped_root_id_value(tmp_path: Path, request) -> tuple:
    text = json.dumps(ffhq(), indent=2)
    assert text.count('"root_id": "ffhq"') == 1
    return text.replace('"root_id": "ffhq"', '"root_id": "ff\\u0068q"'), FFHQ_INTERPRETATIONS, (), 3


def duplicated_root(tmp_path: Path, request) -> tuple:
    doc = ffhq()
    doc["records"].append(doc["records"][0])
    return json.dumps(doc), FFHQ_INTERPRETATIONS, (), 1


def root_last_of_5000(tmp_path: Path, request) -> tuple:
    bundle = request.getfixturevalue("wide_seed_7_bundle")
    doc = json.loads(bundle.lineage.read_text(encoding="utf-8"))
    doc["records"].append(doc["records"].pop(0))
    assert len(doc["records"]) == 5000
    return json.dumps(doc, indent=2), bundle.interpretations, (), 3


def root_record_past_the_sniffs_window(tmp_path: Path, request) -> tuple:
    """The sniff reads at most 64 KiB of a record, so it finds no root record
    here, and the hit decodes the lineage to find it."""
    doc = ffhq()
    doc["records"][0]["notes"] = "x" * (1 << 17)
    assert sniff_root(json.dumps(doc, indent=2).encode("utf-8")) is None
    return json.dumps(doc, indent=2), FFHQ_INTERPRETATIONS, (), 3


def lone_surrogate_in_the_root_name(tmp_path: Path, request) -> tuple:
    text = json.dumps(ffhq(), indent=2)
    assert text.count('"dataset_name": "FFHQ"') == 1
    text = text.replace('"dataset_name": "FFHQ"', '"dataset_name": "\\ud800"')
    return text, FFHQ_INTERPRETATIONS, (), 64


CASES = {case.__name__: case for case in (
    lenient_record_root_id, subject_id_not_first, escaped_root_id_key, escaped_root_id_value,
    duplicated_root, root_last_of_5000, root_record_past_the_sniffs_window,
    lone_surrogate_in_the_root_name,
)}


@pytest.mark.parametrize("case", CASES)
def test_a_store_changes_no_output_of_a_sniffed_lineage(tmp_path, request, case):
    """No store, then a miss, then a second run: the same stdout and exit
    code each time, the miss's stderr that of the run without a store, and
    the second run's a hit notice alone, or the same error."""
    text, interpretations, options, code = CASES[case](tmp_path, request)
    lineage, store = tmp_path / "lineage.json", tmp_path / "store"
    lineage.write_text(text, encoding="utf-8")
    args = [*options, "assess", lineage, interpretations]
    nostore, miss, second = [dla_process(*store_option, *args)
                             for store_option in ([], ["--store", store], ["--store", store])]
    assert nostore.returncode == code, nostore.stderr
    for run in (miss, second):
        assert (run.returncode, run.stdout) == (nostore.returncode, nostore.stdout)
        assert "Traceback" not in run.stderr
    assert miss.stderr == nostore.stderr
    valid = code in (0, 3)
    assert second.stderr == ("(cached analysis)\n" if valid else nostore.stderr)
    assert len(list(store.glob("*.json"))) == valid
    if case == "lenient_record_root_id":
        assert nostore.stderr.startswith("warning: ") and "'root_id'" in nostore.stderr
    if not valid:
        assert nostore.stderr.startswith(f"error: {lineage}") and nostore.stderr.count("\n") == 1
    if case == "lone_surrogate_in_the_root_name":
        assert nostore.stderr.startswith(f"error: {lineage}: invalid JSON: a \\u escape")


def test_a_duplicated_root_over_its_stored_entry_warns_nothing(tmp_path):
    """The sniff finds the first copy, whose key holds the entry stored for
    the valid lineage; that entry is stale, but only the exact lookup warns,
    and a root given twice gives it nothing to look up."""
    lineage, store = tmp_path / "lineage.json", tmp_path / "store"
    shutil.copy(FFHQ_LINEAGE, lineage)
    args = ["assess", lineage, FFHQ_INTERPRETATIONS]
    assert dla_process("--store", store, *args).returncode == 3
    text, *_ = duplicated_root(tmp_path, None)
    lineage.write_text(text, encoding="utf-8")
    nostore, over = dla_process(*args), dla_process("--store", store, *args)
    assert (over.returncode, over.stdout, over.stderr) == (nostore.returncode, nostore.stdout, nostore.stderr)
    assert nostore.returncode == 1 and "warning" not in over.stderr


_TEXTS = st.one_of(st.text(max_size=12), st.sampled_from([
    "root_id", '"root_id": "x"', '{"subject_id": "r"}', "\\", '"', "{", "}", '\\"root_id\\"',
]))


@st.composite
def lineage_texts(draw) -> tuple[dict, bytes]:
    """A strict-valid lineage with drawn ids and names, its records and each
    record's fields in a drawn order, written by ``json.dumps`` as drawn."""
    template = ffhq()["records"][0]
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=5, unique=True))
    records = []
    for node_id in ids:
        record = dict(template, subject_id=node_id, dataset_name=draw(_TEXTS), notes=draw(_TEXTS))
        records.append(dict(draw(st.permutations(list(record.items())))))
    members = [("records", draw(st.permutations(records))),
               ("edges", [[ids[0], other] for other in ids[1:]]), ("root_id", ids[0])]
    doc = dict(draw(st.permutations(members)))
    indent, ascii_only = draw(st.sampled_from([0, 2, None])), draw(st.booleans())
    return doc, json.dumps(doc, indent=indent, ensure_ascii=ascii_only).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(lineage_texts())
def test_the_sniff_finds_the_root_record_or_nothing(case):
    doc, raw = case
    graph = LineageGraph.from_dict(json.loads(raw))  # the lineage is valid
    root = next(record for record in doc["records"] if record["subject_id"] == doc["root_id"])
    sniffed = sniff_root(raw)
    if sniffed is not None:
        assert sniffed == graph.root
    if raw.count(b'"root_id"') == 1 and next(iter(root)) == "subject_id":
        assert sniffed is not None  # the root record is in plain sight


@settings(max_examples=50, deadline=None)
@given(lineage_texts())
def test_a_store_changes_no_analysis_of_a_generated_lineage(case):
    """No store, a miss, then a hit, each through the library: the same
    canonical JSON each time, one blob, and the hit's root is the lineage's,
    whether the sniff or the decoded root found its key."""
    _, raw = case
    graph = LineageGraph.from_dict(json.loads(raw))
    with tempfile.TemporaryDirectory() as work:
        lineage, interpretations = Path(work, "lineage.json"), Path(work, "interpretations")
        lineage.write_bytes(raw)
        interpretations.mkdir()
        for i, node_id in enumerate(graph.nodes):
            Path(interpretations, f"{i}.json").write_text(
                json.dumps({"subject_id": node_id, "template": "CC-BY-4.0"}), encoding="utf-8")
        store = AnalysisStore(Path(work, "store"))
        bundles = [Bundle.read(lineage, interpretations) for _ in range(3)]
        results = [lookup_or_verify(used, bundle)
                   for used, bundle in zip((None, store, store), bundles)]
        assert len({canonical_json(verified.to_dict()) for verified, _ in results}) == 1
        assert [hit for _, hit in results] == [False, False, True]
        assert len(list(store.root.glob("*.json"))) == 1
        assert bundles[2].root == graph.root
        event("hit by the " + ("exact key" if "lineage" in vars(bundles[2]) else "sniffed key"))


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_the_sniff_finds_the_root_of_every_fixture(name):
    lineage, _ = bundle_paths(name)
    sniffed = sniff_root(lineage.read_bytes(), str(lineage))
    assert sniffed is not None
    assert sniffed == decode_root(json.loads(lineage.read_bytes()), str(lineage))


def test_a_hit_never_decodes_the_lineage(tmp_path, monkeypatch):
    lineage, interpretations, _ = copy_bundle("cifar-10", tmp_path)
    store = AnalysisStore(tmp_path / "store")
    assert not lookup_or_verify(store, Bundle.read(lineage, interpretations))[1]
    decoded, read_json = [], dla.store.read_json
    monkeypatch.setattr(dla.store, "read_json",
                        lambda path, raw=None: decoded.append(Path(path)) or read_json(path, raw))
    bundle = Bundle.read(lineage, interpretations)
    _, hit = lookup_or_verify(store, bundle)
    assert hit and "lineage" not in vars(bundle) and lineage not in decoded
    assert bundle.root == decode_root(json.loads(lineage.read_bytes()), str(lineage))


def test_an_entry_that_names_another_dataset_is_not_served_by_the_sniff(tmp_path):
    """Its key is the sniffed record's, but its dataset name is not: the
    lineage is decoded, and the exact lookup serves the entry as it did."""
    lineage, interpretations, _ = copy_bundle("cifar-10", tmp_path)
    store = AnalysisStore(tmp_path / "store")
    lookup_or_verify(store, Bundle.read(lineage, interpretations))
    (blob,) = store.root.glob("*.json")
    entry = json.loads(blob.read_text(encoding="utf-8"))
    blob.write_text(json.dumps(dict(entry, dataset_name="Another")), encoding="utf-8")
    bundle = Bundle.read(lineage, interpretations)
    assert lookup_or_verify(store, bundle)[1] and "lineage" in vars(bundle)


def test_a_stale_entry_warns_once_and_is_replaced(tmp_path):
    """The sniffed key is the root's: the sniff passes the stale entry over
    silently, and the exact lookup warns once, reruns and replaces it."""
    lineage, interpretations, _ = copy_bundle("cifar-10", tmp_path)
    store = AnalysisStore(tmp_path / "store")
    lookup_or_verify(store, Bundle.read(lineage, interpretations))
    lineage.write_bytes(lineage.read_bytes() + b"\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, hit = lookup_or_verify(store, Bundle.read(lineage, interpretations))
    assert not hit
    assert [w.category for w in caught] == [StaleEntryWarning]
    assert "computed from different inputs" in str(caught[0].message)
    assert len(list(store.root.glob("*.json"))) == 1
    assert lookup_or_verify(store, Bundle.read(lineage, interpretations))[1]


def test_a_lineage_that_is_not_json_over_a_damaged_entry_is_named(tmp_path):
    """The sniff still finds the root's key in the text, and its blob is
    damaged, but the lineage's error comes first, as without a sniff."""
    lineage, interpretations, _ = copy_bundle("cifar-10", tmp_path)
    store = tmp_path / "store"
    assert run_cli("--store", store, "assess", lineage, interpretations).exit_code == 3
    (blob,) = store.glob("*.json")
    blob.write_text("{not json", encoding="utf-8")
    lineage.write_bytes(lineage.read_bytes().rstrip()[:-1])  # the closing brace
    assert sniff_root(lineage.read_bytes()) is not None
    result = run_cli("--store", store, "assess", lineage, interpretations)
    assert (result.exit_code, result.stdout) == (64, "")
    assert result.stderr.startswith(f"error: {lineage}: invalid JSON: ")


def test_a_record_that_shares_the_roots_key_is_not_taken_for_the_root(tmp_path):
    """A ``--lenient`` record's own ``root_id`` points the sniff at a twin of
    the root, whose key is the root's: the hit is served, by the exact
    lookup, and the bundle's root is still the root."""
    doc = ffhq()
    doc["records"].append(dict(doc["records"][0], subject_id="twin", root_id="twin"))
    doc["edges"].append(["ffhq", "twin"])
    lineage, interpretations, _ = copy_bundle("ffhq", tmp_path)
    lineage.write_text(json.dumps({"root_id": "ffhq", "records": doc["records"],
                                   "edges": doc["edges"]}), encoding="utf-8")
    (interpretations / "twin.json").write_text('{"subject_id": "twin", "unavailable": true}',
                                               encoding="utf-8")
    assert sniff_root(lineage.read_bytes(), strict=False).subject_id == "twin"
    store = AnalysisStore(tmp_path / "store")
    with pytest.warns(UnknownFieldWarning):
        assert not lookup_or_verify(store, Bundle.read(lineage, interpretations, strict=False))[1]
    bundle = Bundle.read(lineage, interpretations, strict=False)
    assert lookup_or_verify(store, bundle)[1] and bundle.root.subject_id == "ffhq"
