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

A blob in the layout :meth:`AnalysisStore.put` writes, the entry's canonical
JSON, has its payload digest checked over its own bytes, which a hit keeps as
the license's text; a blob in any other layout is checked by rendering its
license. This is sound: sha256 binds the text ``put`` hashed, and a JSON string
holds no raw line break, so removing one level of indentation after each LF
touches only whitespace between tokens: the member parses to what the hashed
text parses to, which is the value the blob decoded to.

:func:`lookup_or_verify` analyses a :class:`Bundle`, the files of one dataset
as read from disk, through the store; the CLI and library callers share it,
and so share store entries. A blob is served only when fresh: its audit
trailer names this engine version and the bundle's inputs digest. That digest
covers every byte of the bundle and only valid bundles are stored, so a fresh
blob proves the bytes valid, and a hit decodes no lineage: a fresh blob under
the key of a root record read out of the text (:func:`~dla.lineage.sniff_root`)
that names that root and dataset proves the record the root.
"""

from __future__ import annotations

import hashlib
import os
import re
import warnings
from contextlib import suppress
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from .engine import ENGINE_VERSION, EnginePolicy, fingerprint_inputs, verify
from .errors import InputError, ParseError, StaleEntryWarning, StoreCorrupt, StoreError
from .jsonio import canonical_json, read_input, read_inputs, read_json, read_listed
from .lineage import LineageGraph, decode_root, sniff_root
from .model import Document, ProvenanceRecord, Value, VerifiedLicense
from .resources import templates_dir

if TYPE_CHECKING:
    from .catalog import InterpretationSet

_KEY_SCHEME = "dla-analysis-key-v1"
_KEY = re.compile(r"[0-9a-f]{64}")


def analysis_key(record: ProvenanceRecord, policy: EnginePolicy | None = None) -> str:
    """Deterministic store key for one dataset under one engine policy.

    Algorithm: SHA-256 over the NUL-joined fields
    ``("dla-analysis-key-v1", dataset_name, dataset_version or "",
    "algorithm:hex" of the content digest or "", policy token)``, hex-encoded.
    Stable across runs and platforms.
    """
    policy, digest_part = policy or EnginePolicy(), ""
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
            entry = StoreEntry.from_dict(read_json(path, raw := read_listed(path.parent, path.name)))
        except (InputError, ParseError) as exc:
            if isinstance(exc.__cause__, (FileNotFoundError, NotADirectoryError)):
                return None  # removed (``store rm``) since it was listed, or no store yet
            raise StoreCorrupt(key, f"invalid blob: {exc}")
        if entry.key != key:
            raise StoreCorrupt(key, f"blob names key {entry.key!r}")
        text, verified = raw.decode("utf-8"), entry.verified_license
        # put's layout: the entry's canonical JSON up to the license, its text indented, "\n}\n".
        head = canonical_json(vars(entry), {"verified_license": ""})[:-3]
        member = text[len(head):-3].replace("\n  ", "\n") + "\n"
        if text.startswith(head) and text.endswith("\n}\n") and _sha256(member) == entry.payload_sha256:
            vars(verified)["canonical_text"] = member
        elif entry.payload_sha256 != _sha256(verified.canonical_text):
            raise StoreCorrupt(key, "payload does not match its sha256")
        return entry

    def entries(self) -> list[StoreEntry]:
        found = (self._read(p) for p in sorted(self.root.glob("*.json")) if _KEY.fullmatch(p.stem))
        return [entry for entry in found if entry is not None]

    def get(self, key: str, dataset_name: str | None = None) -> VerifiedLicense | None:
        """The stored verified license for a key, or None (also when the
        entry names another dataset than a given ``dataset_name``).

        Raises StoreCorrupt when the key's blob cannot be trusted.
        """
        path = self._blob_path(key)
        entry = self._read(path) if path is not None else None
        if entry is None or dataset_name not in (None, entry.dataset_name):
            return None
        return entry.verified_license

    def put(self, key: str, verified: VerifiedLicense, dataset_name: str) -> None:
        path = self._blob_path(key)
        if path is None:
            raise ValueError(f"not a store key: {key!r}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create store {self.root}: {exc.strerror or exc}") from exc
        entry = StoreEntry(key, dataset_name, _sha256(verified.canonical_text), verified)
        import tempfile  # only here, so that a run that writes no entry never loads it

        try:
            fd, tmp = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp", dir=self.root)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as out:
                    out.write(canonical_json(vars(entry), {"verified_license": verified.canonical_text}))
                os.chmod(tmp, 0o644)  # mkstemp makes it private; a store is shared
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise StoreError(f"cannot write to store {self.root}: {exc.strerror or exc}") from exc

    def remove(self, key: str) -> bool:
        path = self._blob_path(key)
        if path is None:
            return False
        try:
            path.unlink()
        except (FileNotFoundError, NotADirectoryError):
            return False
        except OSError as exc:
            raise StoreError(f"cannot remove store entry {key}: {exc.strerror or exc}") from exc
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


class Bundle(Value):
    """A dataset's bundle as read from disk: the lineage file's bytes, the
    interpretation files by name, the license template files by name, and
    the parse mode. The inputs digest hashes these bytes; the lineage, its
    graph and the interpretations are decoded only when asked, and then once.
    A store hit decodes none (see :mod:`dla.store`)."""

    lineage_path: Path
    lineage_bytes: bytes
    interpretations_dir: Path
    interpretation_files: Mapping[str, bytes]
    template_files: Mapping[str, bytes]
    strict: bool = True

    @classmethod
    def read(cls, lineage_path: Path, interpretations_dir: Path, strict: bool = True) -> Bundle:
        """Read a bundle and the shipped templates; raises InputError, naming
        the file, when one cannot be read (a lineage that is not JSON first)."""
        raw = read_input(lineage_path)
        try:
            return cls(lineage_path, raw, interpretations_dir, read_inputs(interpretations_dir),
                       read_inputs(templates_dir()), strict)
        except InputError:
            read_json(lineage_path, raw)  # a lineage that is not JSON is named first
            raise

    def digest(self, policy: EnginePolicy) -> str:
        return fingerprint_inputs(self.lineage_bytes, self.interpretation_files,
                                  self.template_files, policy, strict=self.strict)

    @cached_property
    def lineage(self) -> Any:
        """The lineage file's JSON document; raises InputError when it is not JSON."""
        return read_json(self.lineage_path, self.lineage_bytes)

    @cached_property
    def root(self) -> ProvenanceRecord | None:
        """The lineage's root record, decoded alone (:func:`decode_root`)."""
        return decode_root(self.lineage, str(self.lineage_path), self.strict)

    @cached_property
    def graph(self) -> LineageGraph:
        return LineageGraph.from_dict(self.lineage, str(self.lineage_path), self.strict)

    @cached_property
    def interpretations(self) -> InterpretationSet:
        # Imported here, so a store hit does not load the catalog.
        from .catalog import load_catalog, load_interpretations_dir

        catalog = load_catalog(files=self.template_files)
        return load_interpretations_dir(self.interpretations_dir, catalog, strict=self.strict,
                                        files=self.interpretation_files,
                                        subjects=self.graph.nodes)


def lookup_or_verify(
    store: AnalysisStore | None, bundle: Bundle, policy: EnginePolicy | None = None
) -> tuple[VerifiedLicense, bool]:
    """Return the bundle's verified license and whether the store held it.

    The store is looked up under the key of the lineage's root record: first,
    silently, under that of the record :func:`sniff_root` reads out of the
    text, then under that of the root decoded alone. Only a fresh blob is
    served; a hit parses nothing more and runs no engine (see :mod:`dla.store`).
    An analysis stored under the decoded root's key that is not served is
    stale: a StaleEntryWarning is emitted and the analysis reruns. Otherwise
    the lineage and interpretations are parsed and validated, the engine runs,
    and the result is stored (unless the store is None).
    """
    policy = policy or EnginePolicy()
    inputs_digest = bundle.digest(policy)
    sniffed = store and sniff_root(bundle.lineage_bytes, str(bundle.lineage_path), bundle.strict)
    if sniffed is not None:
        stored = None
        with suppress(StoreCorrupt):  # raised in its place by the lookup below
            stored = store.get(analysis_key(sniffed, policy), sniffed.dataset_name)
        if (stored is not None and stored.root_id == sniffed.subject_id
                and _stale_reason(stored, inputs_digest) is None):
            vars(bundle).setdefault("root", sniffed)
            return stored, True
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
