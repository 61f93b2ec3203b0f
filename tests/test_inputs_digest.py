"""The CLI's bytes-first store lookup.

The inputs digest is a Merkle root over the authored bytes: the lineage file,
each interpretation file by name, every catalog template, and the policy,
parse mode and engine version. ``assess`` reads and hashes those bytes,
decodes the lineage's root record alone to look the key up, and parses the
whole lineage, the interpretations and the templates only when the engine has
to run.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import warnings
from pathlib import Path

import pytest

import dla.catalog
import dla.engine
import dla.lineage
import dla.store
from dla import AnalysisStore, Bundle, EnginePolicy, lookup_or_verify
from dla.errors import StaleEntryWarning, UnknownFieldWarning
from dla.model import ProvenanceRecord, VerifiedLicense
from dla.resources import templates_dir

from helpers import BUNDLE_NAMES, bundle_paths, copy_bundle, run_cli

OLDER_BLOB = Path(__file__).parent / "data" / "older_store_blob.json"


@pytest.fixture()
def bundle(tmp_path, monkeypatch):
    """A writable copy of the ffhq bundle, and of the templates a bundle reads."""
    shutil.copytree(templates_dir(), tmp_path / "templates")
    monkeypatch.setattr(dla.store, "templates_dir", lambda: tmp_path / "templates")
    return copy_bundle("ffhq", tmp_path).lineage.parent


def assess(bundle: Path, *options: str):
    args = ["--store", str(bundle.parent / "store"), *options, "--format", "json",
            "assess", "--no-gate", str(bundle / "lineage.json"), str(bundle / "interpretations")]
    return run_cli(*args)


def cached(result) -> bool:
    return "(cached analysis)" in result.stderr


def inputs_digest(result) -> str:
    return json.loads(result.stdout)["verified_license"]["audit"]["inputs_digest"]


def without_audit(result) -> dict:
    """The answer, without the trailer that names the digests of the inputs."""
    doc = json.loads(result.stdout)
    del doc["verified_license"]["audit"]
    return doc


def test_hit_parses_no_interpretation_and_no_template(bundle, monkeypatch):
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dla.catalog, "parse_interpretation",
                        counted("parse_interpretation", dla.catalog.parse_interpretation))
    monkeypatch.setattr(dla.catalog, "load_catalog", counted("load_catalog", dla.catalog.load_catalog))
    assert not cached(assess(bundle))
    assert sorted(set(calls)) == ["load_catalog", "parse_interpretation"]
    calls.clear()
    assert cached(assess(bundle))
    assert calls == []


@pytest.mark.parametrize(
    "changed",
    ["lineage.json", "interpretations/flickr.json",
     "../templates/cc-by-nc-sa-4.0.json", "../templates/cc-by-4.0.json"],
    ids=["lineage", "interpretation", "used-template", "unused-template"],
)
def test_one_changed_byte_is_a_miss(bundle, changed):
    first = assess(bundle)
    path = bundle / changed
    path.write_bytes(path.read_bytes() + b"\n")  # the same document, other bytes
    with pytest.warns(StaleEntryWarning, match="computed from different inputs"):
        second = assess(bundle)
    assert not cached(second)
    assert inputs_digest(second) != inputs_digest(first)
    assert without_audit(second) == without_audit(first)
    assert cached(assess(bundle))


def test_renamed_interpretation_file_is_a_miss(bundle):
    first = assess(bundle)
    interp = bundle / "interpretations"
    (interp / "flickr.json").rename(interp / "flickr-source.json")
    with pytest.warns(StaleEntryWarning):
        second = assess(bundle)
    assert not cached(second)
    assert inputs_digest(second) != inputs_digest(first)
    assert cached(assess(bundle))


def test_switching_strict_and_lenient_is_a_miss(bundle):
    with pytest.warns(StaleEntryWarning):
        runs = [assess(bundle, m) for m in ("--strict", "--lenient", "--lenient", "--strict")]
    assert [cached(run) for run in runs] == [False, False, True, False]
    assert inputs_digest(runs[0]) == inputs_digest(runs[3]) != inputs_digest(runs[1])


def test_blob_written_before_the_merkle_digest_is_stale_and_overwritten(tmp_path):
    """``older_store_blob.json`` is the cityscapes analysis as engine 0.1.0
    stored it while the digest was a sha256 of the parsed inputs."""
    lineage, interp = bundle_paths("cityscapes")
    store = tmp_path / "store"
    store.mkdir()
    blob = store / json.loads(OLDER_BLOB.read_text(encoding="utf-8"))["key"]
    blob = blob.with_suffix(".json")
    shutil.copy(OLDER_BLOB, blob)
    args = ["--store", str(store), "assess", str(lineage), str(interp)]
    with pytest.warns(StaleEntryWarning, match="was computed by engine 0.1.0"):
        first = run_cli(*args)
    assert first.exit_code == 3
    assert first.stderr == ""  # neither corrupt nor a hit
    assert blob.read_bytes() != OLDER_BLOB.read_bytes()
    second = run_cli(*args)
    assert cached(second) and second.stdout == first.stdout


@pytest.mark.parametrize("path", ["no-store", "miss", "hit", "stale"])
def test_cli_run_fingerprints_once(bundle, monkeypatch, path):
    if path in ("hit", "stale"):
        assess(bundle)
    if path == "stale":
        lineage = bundle / "lineage.json"
        lineage.write_bytes(lineage.read_bytes() + b"\n")
    calls = []
    real = dla.engine.fingerprint_inputs

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (dla.engine, dla.store):
        monkeypatch.setattr(module, "fingerprint_inputs", counted)
    options = ("--store", str(bundle.parent / "store")) if path != "no-store" else ()
    args = [*options, "assess", str(bundle / "lineage.json"), str(bundle / "interpretations")]
    with pytest.warns(StaleEntryWarning) if path == "stale" else contextlib.nullcontext():
        result = run_cli(*args)
    assert cached(result) is (path == "hit")
    assert len(calls) == 1


@pytest.mark.parametrize("output_format", ["json", "markdown"])
@pytest.mark.parametrize("command", ["assess", "verify"])
@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_hit_prints_what_the_miss_printed(tmp_path, name, command, output_format):
    lineage, interp = bundle_paths(name)
    args = ["--store", str(tmp_path / "store"), "--format", output_format, command,
            str(lineage), str(interp)]
    miss, hit = (run_cli(*args) for _ in range(2))
    assert not cached(miss) and cached(hit)
    assert (hit.stdout, hit.exit_code) == (miss.stdout, miss.exit_code)


def test_hit_decodes_the_root_record_alone(bundle, monkeypatch):
    calls = []
    real_record, real_build = ProvenanceRecord.from_dict, dla.lineage.build_lineage

    def record(cls, *args, **kwargs):
        calls.append("record")
        return real_record(*args, **kwargs)

    def build(*args, **kwargs):
        calls.append("build_lineage")
        return real_build(*args, **kwargs)

    monkeypatch.setattr(ProvenanceRecord, "from_dict", classmethod(record))
    monkeypatch.setattr(dla.lineage, "build_lineage", build)
    assert not cached(assess(bundle))
    assert sorted(calls) == ["build_lineage"] + ["record"] * 4  # the root sniffed, alone, then both
    calls.clear()
    assert cached(assess(bundle))
    assert calls == ["record"]


@pytest.mark.parametrize("command", ["assess", "verify"])
def test_a_run_renders_the_verified_license_at_most_once(tmp_path, monkeypatch, command):
    """No store and a miss encode the verified license once, for the payload
    digest, the blob and the JSON report alike; a hit encodes it never, and
    prints the text its blob holds. ``StoreEntry.to_dict`` would encode it
    through ``_encode`` too."""
    paths = copy_bundle("cifar-10", tmp_path)[:2]
    encodes, real = [], VerifiedLicense._encode
    monkeypatch.setattr(VerifiedLicense, "_encode", lambda self: encodes.append(self) or real(self))
    runs = []
    for store in ([], ["--store", tmp_path / "store"], ["--store", tmp_path / "store"]):
        encodes.clear()
        result = run_cli(*store, "--format", "json", command, *paths)
        runs.append((len(encodes), cached(result), result.stdout))
    assert [run[:2] for run in runs] == [(1, False), (1, False), (0, True)]
    assert runs[0][2] == runs[1][2] == runs[2][2]


def edit_lineage(doc: dict, edit: str) -> None:
    """Make the ffhq lineage invalid in place."""
    if edit == "cycle":
        doc["edges"].append(["flickr", "ffhq"])
    elif edit == "duplicate-root":
        doc["records"].append(doc["records"][0])
    else:
        del doc["records"][0]


@pytest.mark.parametrize(
    "edit, code, error",
    [("cycle", 2, "cycle detected: ffhq -> flickr -> ffhq"),
     ("duplicate-root", 1, "{lineage}.records[{last}]: duplicate subject_id 'ffhq'"),
     ("deleted-root", 2, "edge references unknown subject: 'ffhq'")],
    ids=["cycle", "duplicate-root", "deleted-root"],
)
def test_stored_lineage_edited_into_an_invalid_one_is_a_miss(bundle, edit, code, error):
    assess(bundle)
    lineage = bundle / "lineage.json"
    doc = json.loads(lineage.read_text(encoding="utf-8"))
    assert doc["records"][0]["subject_id"] == doc["root_id"] == "ffhq"
    edit_lineage(doc, edit)
    lineage.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = assess(bundle)
    stale = [w for w in caught if issubclass(w.category, StaleEntryWarning)]
    assert len(stale) == (edit == "cycle")  # only a cycle leaves the root decodable
    assert not cached(result)
    assert (result.exit_code, result.stdout) == (code, "")
    error = error.format(lineage=lineage, last=len(doc["records"]) - 1)
    assert result.stderr == f"error: {error}\n"  # no traceback


def test_blob_of_the_previous_engine_version_is_stale(bundle, monkeypatch):
    history = json.loads((OLDER_BLOB.parent / "engine_version.json").read_text("utf-8"))
    previous = history["versions"][-2]["engine_version"]
    with monkeypatch.context() as patched:
        patched.setattr(dla.engine, "ENGINE_VERSION", previous)
        assess(bundle)
    with pytest.warns(StaleEntryWarning, match=f"was computed by engine {re.escape(previous)};"):
        stale = assess(bundle)
    assert not cached(stale)
    assert json.loads(stale.stdout)["verified_license"]["audit"]["engine_version"] != previous
    assert cached(assess(bundle))


def test_lineage_unknown_field_warns_once_on_a_miss_and_never_on_a_hit(bundle):
    lineage = bundle / "lineage.json"
    doc = json.loads(lineage.read_text(encoding="utf-8"))
    for record in doc["records"]:
        record["zz_unknown"] = 1
    lineage.write_text(json.dumps(doc), encoding="utf-8")

    def warned() -> list[str]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assess(bundle, "--lenient")
        return sorted(str(w.message) for w in caught
                      if issubclass(w.category, UnknownFieldWarning))

    miss = warned()
    assert [m.split(": ")[0].rsplit(".", 1)[1] for m in miss] == ["records[0]", "records[1]"]
    assert warned() == []  # a hit
    lineage.write_bytes(lineage.read_bytes() + b"\n")
    assert warned() == miss  # a stale entry: the full parse warns, once per record


def test_cli_and_library_share_one_store_entry(bundle):
    store = bundle.parent / "store"
    library = Bundle.read(bundle / "lineage.json", bundle / "interpretations")
    verified, hit = lookup_or_verify(AnalysisStore(store), library, EnginePolicy())
    assert not hit
    args = ["--format", "json", "assess", "--no-gate",
            str(bundle / "lineage.json"), str(bundle / "interpretations")]
    shared = run_cli("--store", str(store), *args)
    alone = run_cli(*args)
    assert cached(shared)
    assert len(list(store.glob("*.json"))) == 1
    assert shared.stdout == alone.stdout
    assert inputs_digest(shared) == verified.audit.inputs_digest
