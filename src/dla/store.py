"""Content-addressed persistence of completed analyses.

A store is a flat directory of self-describing JSON blobs, one per analysis,
named ``<key>.json`` and holding a :class:`StoreEntry`: the key, the dataset
name, the verified license, and the sha256 of that license's canonical JSON.
The inputs digest and engine version are read from the license's own audit
trailer, so each fact is stored once. As in git's loose-object store there is
no index to keep consistent: listing scans the directory, and every write
goes through its own temp file and an atomic rename, so concurrent writers
are safe. A blob that does not decode, names another key or fails its digest
is corrupt; one removed between a listing or lookup and its read is a miss.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .catalog import InterpretationSet
from .engine import ENGINE_VERSION, EnginePolicy, fingerprint_inputs, verify
from .errors import (
    InputError,
    ParseError,
    ReadOnlyStoreWarning,
    StaleEntryWarning,
    StoreCorrupt,
    StoreError,
)
from .lineage import LineageGraph
from .model import (
    Document,
    ProvenanceRecord,
    RightsVector,
    VerifiedLicense,
    canonical_json,
    read_json,
)

_KEY_SCHEME = "dla-analysis-key-v1"
_KEY = re.compile(r"[0-9a-f]{64}")


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


def _payload_sha256(verified: VerifiedLicense) -> str:
    return hashlib.sha256(canonical_json(verified.to_dict()).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreEntry(Document, path="store_entry"):
    """One stored analysis, exactly as its blob holds it."""

    key: str
    dataset_name: str
    payload_sha256: str
    verified_license: VerifiedLicense


class AnalysisStore:
    """Filesystem-backed result store with lookup-before-analyze semantics."""

    def __init__(self, root: Path | str, read_only: bool = False) -> None:
        self.root = Path(root)
        self.read_only = read_only
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store {self.root} is not a directory")
        if not read_only:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                detail = exc.strerror or exc
                raise StoreError(f"cannot create store {self.root}: {detail}") from exc

    def _blob_path(self, key: str) -> Path | None:
        """The blob of a well-formed key; None for any other string, so a
        key never names a path outside the store."""
        return self.root / f"{key}.json" if _KEY.fullmatch(key) else None

    def _read(self, path: Path) -> StoreEntry | None:
        key = path.stem
        try:
            entry = StoreEntry.from_dict(read_json(path))
        except (InputError, ParseError) as exc:
            if isinstance(exc.__cause__, FileNotFoundError):
                return None  # removed (``store rm``) since it was listed or looked up
            raise StoreCorrupt(key, f"invalid blob: {exc}")
        if entry.key != key:
            raise StoreCorrupt(key, f"blob names key {entry.key!r}")
        if entry.payload_sha256 != _payload_sha256(entry.verified_license):
            raise StoreCorrupt(key, "payload does not match its sha256")
        return entry

    def entries(self) -> list[StoreEntry]:
        found = (self._read(p) for p in sorted(self.root.glob("*.json")) if _KEY.fullmatch(p.stem))
        return [entry for entry in found if entry is not None]

    def get(self, key: str) -> VerifiedLicense | None:
        """The stored verified license for a key, or None.

        Raises StoreCorrupt when the key's blob cannot be trusted.
        """
        path = self._blob_path(key)
        entry = self._read(path) if path is not None else None
        return entry.verified_license if entry is not None else None

    def put(self, key: str, verified: VerifiedLicense, dataset_name: str) -> None:
        if self.read_only:
            warnings.warn(
                f"store {self.root} is read-only; result for {dataset_name!r} not persisted",
                ReadOnlyStoreWarning,
                stacklevel=2,
            )
            return
        path = self._blob_path(key)
        if path is None:
            raise ValueError(f"not a store key: {key!r}")
        entry = StoreEntry(key, dataset_name, _payload_sha256(verified), verified)
        fd, tmp = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp", dir=self.root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.write(canonical_json(entry.to_dict()))
            os.chmod(tmp, 0o644)  # mkstemp makes it private; a store is shared
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def remove(self, key: str) -> bool:
        path = self._blob_path(key)
        if path is None:
            return False
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True


def _stale_reason(stored: VerifiedLicense, current_digest: str) -> str | None:
    audit = stored.audit
    if audit is None:
        return "has no audit trailer"
    if audit.engine_version != ENGINE_VERSION:
        return f"was computed by engine {audit.engine_version}"
    if audit.inputs_digest != current_digest:
        return "was computed from different inputs"
    return None


def lookup_or_verify(
    store: AnalysisStore | None,
    graph: LineageGraph | Callable[[], LineageGraph],
    interpretations: Mapping[str, RightsVector | None] | Callable[[], InterpretationSet],
    policy: EnginePolicy = EnginePolicy(),
    *,
    root: ProvenanceRecord | None = None,
    template_digests: Mapping[str, str] | None = None,
    inputs_digest: str | None = None,
) -> tuple[VerifiedLicense, bool]:
    """Return the verified license, consulting the store first.

    ``graph`` is the lineage graph; or a function that builds it, called
    only when the engine runs, with ``root``, its root record, for the store
    key (None: the store is not consulted). ``interpretations`` is the parsed
    vectors; or a function that parses them, also called only when the engine
    runs. Either function needs the ``inputs_digest`` of the authored bytes;
    objects are fingerprinted here. A stored analysis is served only when its
    audit trailer names this engine version and the inputs digest; the engine
    is then not invoked at all. Any other stored analysis is stale: a
    StaleEntryWarning is emitted and the analysis reruns. Misses run the
    engine and persist (unless the store is read-only or None).
    """
    if isinstance(graph, LineageGraph):
        root = graph.root
    if inputs_digest is None:
        inputs_digest = fingerprint_inputs(graph, interpretations, policy,
                                           template_digests=template_digests)
    if store is not None and root is not None:
        key = analysis_key(root, policy)
        stored = store.get(key)
        if stored is not None:
            reason = _stale_reason(stored, inputs_digest)
            if reason is None:
                return stored, True
            warnings.warn(
                f"stored analysis for key {key[:12]}... {reason}; re-analyzing",
                StaleEntryWarning,
                stacklevel=2,
            )

    if callable(graph):
        graph = graph()
    if callable(interpretations):
        parsed = interpretations()
        interpretations, template_digests = parsed.vectors, parsed.template_digests
    verified = verify(graph, interpretations, policy, template_digests=template_digests,
                      inputs_digest=inputs_digest)
    if store is not None:
        store.put(analysis_key(graph.root, policy), verified, graph.root.dataset_name)
    return verified, False
