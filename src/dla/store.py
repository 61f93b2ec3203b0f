"""Content-addressed persistence of completed analyses.

Layout is deliberately plain text so results can be shared and reviewed: a
flat directory of JSON blobs named ``<key>.json`` plus an ``index.json``
mapping each key to the dataset name, the digest of the blob file, and the
digest of the inputs that produced it. Writes go through a temp file and an
atomic rename; multiple readers are fine, writers must not race each other.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .engine import EnginePolicy, fingerprint_inputs, verify
from .errors import ReadOnlyStoreWarning, StaleEntryWarning, StoreCorrupt
from .lineage import LineageGraph
from .model import ProvenanceRecord, RightsVector, VerifiedLicense, canonical_json

_KEY_SCHEME = "dla-analysis-key-v1"
_INDEX_NAME = "index.json"


def analysis_key(record: ProvenanceRecord, policy: EnginePolicy = EnginePolicy()) -> str:
    """Deterministic store key for one dataset under one engine policy.

    Algorithm: SHA-256 over the NUL-joined fields
    ``("dla-analysis-key-v1", dataset_name, dataset_version or "",
    "algorithm:hex" of the content digest or "", policy token)``, hex-encoded.
    Stable across runs and platforms.
    """
    digest_part = ""
    if record.digest is not None:
        digest_part = f"{record.digest.algorithm}:{record.digest.hex}"
    material = "\x00".join(
        [
            _KEY_SCHEME,
            record.dataset_name,
            record.dataset_version or "",
            digest_part,
            policy.token(),
        ]
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreEntry:
    key: str
    dataset_name: str
    inputs_digest: str
    blob_sha256: str


class AnalysisStore:
    """Filesystem-backed result store with lookup-before-analyze semantics."""

    def __init__(self, root: Path | str, read_only: bool = False) -> None:
        self.root = Path(root)
        self.read_only = read_only
        if not read_only:
            self.root.mkdir(parents=True, exist_ok=True)

    # -- index ------------------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self.root / _INDEX_NAME

    def _load_index(self) -> dict[str, Any]:
        if not self._index_path.exists():
            return {"version": 1, "entries": {}}
        try:
            data = json.loads(self._index_path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreCorrupt(_INDEX_NAME, f"invalid index: {exc}")
        if not isinstance(data, dict) or not isinstance(data.get("entries"), dict):
            raise StoreCorrupt(_INDEX_NAME, "index missing 'entries'")
        return data

    def _write_atomic(self, path: Path, text: str) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)

    # -- public API --------------------------------------------------------

    def entries(self) -> list[StoreEntry]:
        index = self._load_index()
        return [
            StoreEntry(
                key=key,
                dataset_name=str(meta.get("dataset_name", "")),
                inputs_digest=str(meta.get("inputs_digest", "")),
                blob_sha256=str(meta.get("blob_sha256", "")),
            )
            for key, meta in sorted(index["entries"].items())
        ]

    def get(self, key: str) -> tuple[VerifiedLicense, str] | None:
        """Stored (verified license, inputs digest) for a key, or None.

        Raises StoreCorrupt when the blob on disk does not match the digest
        recorded in the index.
        """
        index = self._load_index()
        meta = index["entries"].get(key)
        if meta is None:
            return None
        blob_path = self.root / f"{key}.json"
        if not blob_path.exists():
            raise StoreCorrupt(key, "indexed blob file is missing")
        raw = blob_path.read_bytes()
        actual = hashlib.sha256(raw).hexdigest()
        if actual != meta.get("blob_sha256"):
            raise StoreCorrupt(key, "blob digest does not match index")
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreCorrupt(key, f"blob is not valid JSON: {exc}")
        verified = VerifiedLicense.from_dict(doc["verified_license"], f"{blob_path}")
        return verified, str(doc.get("inputs_digest", ""))

    def put(
        self,
        key: str,
        verified: VerifiedLicense,
        dataset_name: str,
        inputs_digest: str,
    ) -> None:
        if self.read_only:
            warnings.warn(
                f"store {self.root} is read-only; result for {dataset_name!r} not persisted",
                ReadOnlyStoreWarning,
                stacklevel=2,
            )
            return
        blob_doc = {
            "key": key,
            "inputs_digest": inputs_digest,
            "verified_license": verified.to_dict(),
        }
        blob_text = canonical_json(blob_doc)
        blob_path = self.root / f"{key}.json"
        self._write_atomic(blob_path, blob_text)
        index = self._load_index()
        index["entries"][key] = {
            "dataset_name": dataset_name,
            "inputs_digest": inputs_digest,
            "blob_sha256": hashlib.sha256(blob_text.encode("utf-8")).hexdigest(),
        }
        index["entries"] = dict(sorted(index["entries"].items()))
        self._write_atomic(self._index_path, canonical_json(index))

    def remove(self, key: str) -> bool:
        index = self._load_index()
        if key not in index["entries"]:
            return False
        del index["entries"][key]
        blob_path = self.root / f"{key}.json"
        if blob_path.exists():
            blob_path.unlink()
        self._write_atomic(self._index_path, canonical_json(index))
        return True


def lookup_or_verify(
    store: AnalysisStore | None,
    graph: LineageGraph,
    interpretations: Mapping[str, RightsVector | None],
    policy: EnginePolicy = EnginePolicy(),
    *,
    template_digests: Mapping[str, str] | None = None,
) -> tuple[VerifiedLicense, bool]:
    """Return the verified license, consulting the store first.

    On a hit whose recorded inputs match the current ones, the engine is not
    invoked at all. A hit with different inputs is treated as a miss and a
    StaleEntryWarning is emitted. Misses run the engine and persist (unless
    the store is read-only or None).
    """
    key = analysis_key(graph.root, policy)
    current_digest = fingerprint_inputs(graph, interpretations, policy)

    if store is not None:
        found = store.get(key)
        if found is not None:
            stored, recorded_digest = found
            if recorded_digest == current_digest:
                return stored, True
            warnings.warn(
                f"stored analysis for key {key[:12]}... was computed from different "
                "inputs; re-analyzing",
                StaleEntryWarning,
                stacklevel=2,
            )

    verified = verify(graph, interpretations, policy, template_digests=template_digests)
    if store is not None:
        store.put(key, verified, graph.root.dataset_name, current_digest)
    return verified, False
