"""Analysis store: keys, cache semantics, atomicity-adjacent invariants."""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import dla.engine
import dla.store
from dla import AnalysisStore, Bundle, EnginePolicy, analysis_key, lookup_or_verify, verify
from dla.engine import ENGINE_VERSION
from dla.errors import StaleEntryWarning, StoreCorrupt
from dla.model import Grant, VerifiedLicense, canonical_json

from helpers import DIGEST, GOLDEN_KEYS_PATH, bundle_paths, load_bundle, read_bundle, record_for


class TestAnalysisKey:
    def test_same_record_same_key(self):
        record = record_for("demo")
        assert analysis_key(record) == analysis_key(record)

    def test_version_changes_key(self):
        record = record_for("demo")
        versioned = replace(record, dataset_version="2.0")
        assert analysis_key(record) != analysis_key(versioned)

    def test_policy_changes_key(self):
        record = record_for("demo")
        assert analysis_key(record) != analysis_key(record, EnginePolicy(unknown_denies=True))

    def test_cifar_golden_keys(self):
        golden = json.loads(GOLDEN_KEYS_PATH.read_text())["cifar-10"]
        graph, _ = load_bundle("cifar-10")
        assert analysis_key(graph.root) == golden["unknown_denies=0"]
        assert (
            analysis_key(graph.root, EnginePolicy(unknown_denies=True))
            == golden["unknown_denies=1"]
        )


def verified_of(bundle: Bundle) -> VerifiedLicense:
    """The bundle's analysis as :func:`lookup_or_verify` computes it on a miss."""
    interp = bundle.interpretations
    return verify(bundle.graph, interp.vectors, template_digests=interp.template_digests,
                  inputs_digest=bundle.digest(EnginePolicy()))


def copy_bundle(name: str, into: Path) -> Bundle:
    """A writable copy of a fixture bundle, read."""
    lineage, interp = bundle_paths(name)
    shutil.copy(lineage, into / "lineage.json")
    shutil.copytree(interp, into / "interpretations")
    return Bundle.read(into / "lineage.json", into / "interpretations")


class TestLookupOrVerify:
    def test_second_call_hits_and_is_byte_identical(self, tmp_path):
        bundle = read_bundle("cifar-10")
        store = AnalysisStore(tmp_path / "store")
        first, hit1 = lookup_or_verify(store, bundle)
        second, hit2 = lookup_or_verify(store, read_bundle("cifar-10"))
        assert (hit1, hit2) == (False, True)
        assert canonical_json(first.to_dict()) == canonical_json(second.to_dict())

    def test_changed_interpretation_is_stale(self, tmp_path):
        bundle = copy_bundle("cifar-10", tmp_path)
        store = AnalysisStore(tmp_path / "store")
        first, _ = lookup_or_verify(store, bundle)
        assert first.grant("Access") is Grant.GRANTED
        google = bundle.interpretations_dir / "google.json"
        doc = json.loads(google.read_text(encoding="utf-8"))
        doc["vector"]["standalone_rights"]["Access"]["grant"] = "denied"
        google.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.warns(StaleEntryWarning):
            result, hit = lookup_or_verify(store, Bundle.read(bundle.lineage_path,
                                                              bundle.interpretations_dir))
        assert hit is False
        assert result.grant("Access") is Grant.DENIED

    def test_cache_transparency(self, tmp_path):
        store = AnalysisStore(tmp_path / "store")
        lookup_or_verify(store, read_bundle("ffhq"))
        bundle = read_bundle("ffhq")
        cached, hit = lookup_or_verify(store, bundle)
        assert hit is True
        interp = bundle.interpretations
        uncached = verify(bundle.graph, interp.vectors, template_digests=interp.template_digests,
                          inputs_digest=bundle.digest(EnginePolicy()))
        assert canonical_json(cached.to_dict()) == canonical_json(uncached.to_dict())

    @pytest.mark.parametrize(
        "audit",
        [lambda a: replace(a, engine_version="0.0.0"), lambda a: None],
        ids=["other-engine", "no-audit"],
    )
    def test_entry_from_another_engine_is_stale(self, tmp_path, audit):
        bundle = read_bundle("cifar-10")
        store = AnalysisStore(tmp_path / "store")
        verified = verified_of(bundle)
        key = analysis_key(bundle.root)
        store.put(key, replace(verified, audit=audit(verified.audit)), bundle.root.dataset_name)
        with pytest.warns(StaleEntryWarning):
            result, hit = lookup_or_verify(store, bundle)
        assert hit is False
        assert result == verified
        assert store.get(key) == verified

    @pytest.mark.parametrize("path", ["no-store", "miss", "hit", "stale"])
    def test_inputs_fingerprinted_once_per_lookup(self, tmp_path, monkeypatch, path):
        bundle = read_bundle("cifar-10")
        store = None if path == "no-store" else AnalysisStore(tmp_path / "store")
        if path == "hit":
            lookup_or_verify(store, bundle)
        if path == "stale":
            verified = verified_of(bundle)
            stale = replace(verified, audit=replace(verified.audit, inputs_digest="0" * 64))
            store.put(analysis_key(bundle.root), stale, bundle.root.dataset_name)
        calls = []
        real = dla.engine.fingerprint_inputs

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dla.engine, "fingerprint_inputs", counted)
        monkeypatch.setattr(dla.store, "fingerprint_inputs", counted)
        with pytest.warns(StaleEntryWarning) if path == "stale" else contextlib.nullcontext():
            _, hit = lookup_or_verify(store, bundle)
        assert hit is (path == "hit")
        assert len(calls) == 1

    def test_no_store_runs_engine(self):
        result, hit = lookup_or_verify(None, read_bundle("cityscapes"))
        assert hit is False
        assert result.root_id == "cityscapes"

    def test_a_missing_store_is_created_by_the_first_analysis(self, tmp_path):
        store = AnalysisStore(tmp_path / "a" / "store")
        assert store.entries() == [] and store.get("0" * 64) is None
        assert store.remove("0" * 64) is False
        assert not (tmp_path / "a").exists()
        lookup_or_verify(store, read_bundle("cityscapes"))
        assert [entry.dataset_name for entry in store.entries()] == ["Cityscapes"]


class TestStoreIntegrity:
    def test_round_trip_identical_document(self, tmp_path):
        graph, interp = load_bundle("vggface2")
        store = AnalysisStore(tmp_path / "store")
        verified = verify(graph, interp.vectors, template_digests=interp.template_digests,
                          inputs_digest=DIGEST)
        key = analysis_key(graph.root)
        store.put(key, verified, graph.root.dataset_name)
        loaded = store.get(key)
        assert loaded == verified
        assert canonical_json(loaded.to_dict()) == canonical_json(verified.to_dict())

    def test_tampered_blob_is_corrupt(self, tmp_path):
        bundle = read_bundle("cityscapes")
        store = AnalysisStore(tmp_path / "store")
        lookup_or_verify(store, bundle)
        key = analysis_key(bundle.root)
        blob = store.root / f"{key}.json"
        blob.write_text(blob.read_text().replace("denied", "granted"))
        with pytest.raises(StoreCorrupt):
            store.get(key)

    def test_missing_blob_is_a_clean_miss(self, tmp_path):
        bundle = read_bundle("cityscapes")
        store = AnalysisStore(tmp_path / "store")
        lookup_or_verify(store, bundle)
        key = analysis_key(bundle.root)
        (store.root / f"{key}.json").unlink()
        assert store.get(key) is None
        assert store.entries() == []

    @pytest.mark.parametrize(
        "field, value", [("payload_sha256", "0" * 64), ("key", "f" * 64)], ids=["digest", "key"]
    )
    def test_blob_disagreeing_with_itself_is_corrupt(self, tmp_path, field, value):
        bundle = read_bundle("cityscapes")
        store = AnalysisStore(tmp_path / "store")
        lookup_or_verify(store, bundle)
        key = analysis_key(bundle.root)
        blob = store.root / f"{key}.json"
        doc = json.loads(blob.read_text())
        doc[field] = value
        blob.write_text(canonical_json(doc))
        with pytest.raises(StoreCorrupt):
            store.get(key)
        with pytest.raises(StoreCorrupt):
            store.entries()

    @pytest.mark.parametrize("read", ["get", "entries"])
    def test_blob_removed_before_it_is_read_is_a_clean_miss(self, tmp_path, monkeypatch, read):
        bundle = read_bundle("cifar-10")
        store = AnalysisStore(tmp_path / "store")
        lookup_or_verify(store, bundle)
        real = Path.read_bytes

        def racing(path):  # a ``store rm`` lands between the lookup or listing and the read
            if path.parent == store.root:
                path.unlink()
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", racing)
        if read == "get":
            assert store.get(analysis_key(bundle.root)) is None
        else:
            assert store.entries() == []

    def test_entries_and_remove(self, tmp_path):
        bundle = read_bundle("cityscapes")
        store = AnalysisStore(tmp_path / "store")
        lookup_or_verify(store, bundle)
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0].dataset_name == "Cityscapes"
        assert store.remove(entries[0].key) is True
        assert store.entries() == []
        assert store.remove(entries[0].key) is False

    def test_unknown_key_is_a_clean_miss(self, tmp_path):
        store = AnalysisStore(tmp_path / "store")
        assert store.get("0" * 64) is None

    def test_malformed_keys_never_leave_the_store(self, tmp_path):
        victim = tmp_path / "victim.json"
        victim.write_text("{}")
        store = AnalysisStore(tmp_path / "store")
        for key in ("../victim", "A" * 64, "0" * 63, ""):
            assert store.get(key) is None
            assert store.remove(key) is False
        graph, interp = load_bundle("cityscapes")
        with pytest.raises(ValueError):
            store.put("../victim", verify(graph, interp.vectors, inputs_digest=DIGEST), "victim")
        assert victim.read_text() == "{}"

    def test_distinct_policies_do_not_collide(self, tmp_path):
        bundle = read_bundle("cifar-10")
        store = AnalysisStore(tmp_path / "store")
        default, _ = lookup_or_verify(store, bundle)
        strict, hit = lookup_or_verify(store, bundle, EnginePolicy(unknown_denies=True))
        assert hit is False
        assert len(store.entries()) == 2
        assert set(strict.changed) >= set(default.changed)


def _put_many(root, verified, keys, barrier):
    """One writer process: waits for the others, then puts its keys."""
    store = AnalysisStore(root)
    barrier.wait()
    for key in keys:
        store.put(key, verified, f"dataset-{key[:8]}")


class TestConcurrentWriters:
    def test_four_processes_lose_no_entry(self, tmp_path):
        graph, interp = load_bundle("cityscapes")
        verified = verify(graph, interp.vectors, inputs_digest=DIGEST)
        root = tmp_path / "store"
        keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(100)]
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(4, timeout=60)
        writers = [
            context.Process(target=_put_many, args=(root, verified, keys[i::4], barrier))
            for i in range(4)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0] * 4
        store = AnalysisStore(root)
        assert sorted(entry.key for entry in store.entries()) == sorted(keys)
        assert all(store.get(key) == verified for key in keys)
        assert list(root.glob("*.tmp")) == []
