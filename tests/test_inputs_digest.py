"""The CLI's bytes-first store lookup.

The inputs digest is a Merkle root over the authored bytes: the lineage file,
each interpretation file by name, every catalog template, and the policy,
parse mode and engine version. ``assess`` reads and hashes those bytes, looks
the key up, and parses interpretations and templates only when the engine
has to run.
"""

from __future__ import annotations

import contextlib
import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

import dla.catalog
import dla.cli
import dla.engine
import dla.store
from dla.cli import cli
from dla.errors import StaleEntryWarning
from dla.resources import templates_dir

from helpers import bundle_paths

OLDER_BLOB = Path(__file__).parent / "data" / "older_store_blob.json"


@pytest.fixture()
def bundle(tmp_path, monkeypatch):
    """A writable copy of the ffhq bundle, and of the templates the CLI reads."""
    lineage, _ = bundle_paths("ffhq")
    shutil.copytree(lineage.parent, tmp_path / "ffhq")
    shutil.copytree(templates_dir(), tmp_path / "templates")
    monkeypatch.setattr(dla.cli, "templates_dir", lambda: tmp_path / "templates")
    return tmp_path / "ffhq"


def assess(bundle: Path, *options: str):
    args = ["--store", str(bundle.parent / "store"), *options, "--format", "json",
            "assess", "--no-gate", str(bundle / "lineage.json"), str(bundle / "interpretations")]
    return CliRunner().invoke(cli, args, catch_exceptions=False)


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
    monkeypatch.setattr(dla.cli, "load_catalog", counted("load_catalog", dla.cli.load_catalog))
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
    """``older_store_blob.json`` is the cityscapes analysis as the same engine
    version stored it while the digest was a sha256 of the parsed inputs."""
    lineage, interp = bundle_paths("cityscapes")
    store = tmp_path / "store"
    store.mkdir()
    blob = store / json.loads(OLDER_BLOB.read_text(encoding="utf-8"))["key"]
    blob = blob.with_suffix(".json")
    shutil.copy(OLDER_BLOB, blob)
    args = ["--store", str(store), "assess", str(lineage), str(interp)]
    with pytest.warns(StaleEntryWarning, match="computed from different inputs"):
        first = CliRunner().invoke(cli, args, catch_exceptions=False)
    assert first.exit_code == 3
    assert first.stderr == ""  # neither corrupt nor a hit
    assert blob.read_bytes() != OLDER_BLOB.read_bytes()
    second = CliRunner().invoke(cli, args, catch_exceptions=False)
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

    for module in (dla.cli, dla.engine, dla.store):
        monkeypatch.setattr(module, "fingerprint_inputs", counted)
    options = ("--store", str(bundle.parent / "store")) if path != "no-store" else ()
    args = [*options, "assess", str(bundle / "lineage.json"), str(bundle / "interpretations")]
    with pytest.warns(StaleEntryWarning) if path == "stale" else contextlib.nullcontext():
        result = CliRunner().invoke(cli, args, catch_exceptions=False)
    assert cached(result) is (path == "hit")
    assert len(calls) == 1
