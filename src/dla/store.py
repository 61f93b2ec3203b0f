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

:func:`lookup_or_verify` analyses a :class:`Bundle`, the files of one dataset
as read from disk, through the store; the CLI and library callers share it,
and so share store entries.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping

from .catalog import InterpretationSet, load_catalog, load_interpretations_dir
from .engine import ENGINE_VERSION, EnginePolicy, fingerprint_inputs, verify
from .errors import InputError, ParseError, StaleEntryWarning, StoreCorrupt, StoreError
from .lineage import LineageGraph, decode_root
from .model import (
    Document,
    ProvenanceRecord,
    VerifiedLicense,
    canonical_json,
    read_input,
    read_inputs,
    read_json,
)
from .resources import templates_dir

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
    """Filesystem-backed result store with lookup-before-analyze semantics.
    The directory is created by the first :meth:`put`; until then the store
    is empty."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store {self.root} is not a directory")

    def _blob_path(self, key: str) -> Path | None:
        """The blob of a well-formed key; None for any other string, so a
        key never names a path outside the store."""
        return self.root / f"{key}.json" if _KEY.fullmatch(key) else None

    def _read(self, path: Path) -> StoreEntry | None:
        key = path.stem
        try:
            entry = StoreEntry.from_dict(read_json(path))
        except (InputError, ParseError) as exc:
            if isinstance(exc.__cause__, (FileNotFoundError, NotADirectoryError)):
                return None  # removed (``store rm``) since it was listed, or no store yet
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
        path = self._blob_path(key)
        if path is None:
            raise ValueError(f"not a store key: {key!r}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create store {self.root}: {exc.strerror or exc}") from exc
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
        except (FileNotFoundError, NotADirectoryError):
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


@dataclass(frozen=True)
class Bundle:
    """A dataset's bundle as read from disk: the lineage file's bytes and
    JSON document, the interpretation files by name, the license template
    files by name, and the parse mode. The inputs digest hashes these bytes;
    the root record, the lineage graph and the parsed interpretations are
    decoded from them only when asked, and then once."""

    lineage_path: Path
    lineage_bytes: bytes
    lineage: Any
    interpretations_dir: Path
    interpretation_files: Mapping[str, bytes]
    template_files: Mapping[str, bytes]
    strict: bool = True

    @classmethod
    def read(cls, lineage_path: Path, interpretations_dir: Path, strict: bool = True) -> Bundle:
        """Read a bundle and the shipped templates; raises InputError, naming
        the file, when one cannot be read or the lineage is not JSON."""
        raw = read_input(lineage_path)
        return cls(lineage_path, raw, read_json(lineage_path, raw), interpretations_dir,
                   read_inputs(interpretations_dir), read_inputs(templates_dir()), strict)

    def digest(self, policy: EnginePolicy) -> str:
        return fingerprint_inputs(self.lineage_bytes, self.interpretation_files,
                                  self.template_files, policy, strict=self.strict)

    @cached_property
    def root(self) -> ProvenanceRecord | None:
        """The lineage's root record, decoded alone (:func:`decode_root`)."""
        return decode_root(self.lineage, str(self.lineage_path), self.strict)

    @cached_property
    def graph(self) -> LineageGraph:
        return LineageGraph.from_dict(self.lineage, str(self.lineage_path), self.strict)

    @cached_property
    def interpretations(self) -> InterpretationSet:
        catalog = load_catalog(files=self.template_files)
        return load_interpretations_dir(self.interpretations_dir, catalog, strict=self.strict,
                                        files=self.interpretation_files,
                                        subjects=self.graph.nodes)


def lookup_or_verify(
    store: AnalysisStore | None, bundle: Bundle, policy: EnginePolicy = EnginePolicy()
) -> tuple[VerifiedLicense, bool]:
    """Return the bundle's verified license and whether the store held it.

    The store is looked up under the key of the lineage's root record, decoded
    alone. A stored analysis is served only when its audit trailer names this
    engine version and the bundle's inputs digest. The digest covers every
    byte of the bundle and only analyses of valid bundles are stored, so a hit
    parses nothing more and the engine is not invoked. Any other stored
    analysis is stale: a StaleEntryWarning is emitted and the analysis reruns.
    Otherwise the lineage and interpretations are parsed and validated, the
    engine runs, and the result is stored (unless the store is None).
    """
    inputs_digest = bundle.digest(policy)
    if store is not None and bundle.root is not None:
        key = analysis_key(bundle.root, policy)
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

    graph, parsed = bundle.graph, bundle.interpretations
    verified = verify(graph, parsed.vectors, policy, template_digests=parsed.template_digests,
                      inputs_digest=inputs_digest)
    if store is not None:
        store.put(analysis_key(graph.root, policy), verified, graph.root.dataset_name)
    return verified, False
