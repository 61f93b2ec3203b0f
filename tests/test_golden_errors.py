"""Frozen parse outcomes of mutated documents, recorded once in
``tests/data/golden_errors.json``.

One valid document of every ``Document`` type is mutated by a seeded
mutator: a value swapped for one of another JSON type, a null, a deleted key
or array item, or an unknown field. Each mutated document is parsed by its
type's ``from_dict`` in strict and in lenient mode, and the outcome is
recorded: the exception class and message, or a digest of the parsed value's
canonical JSON, followed by every warning. A codec rewrite that changes one
error path, message, default or warning fails here.

Edge endpoints are decoded by the lineage document's own hook, not by the
derived codec, so mutations stop at each ``edges`` pair and do not reach
inside it; the endpoint typing is tested by the CLI tests.

Show the cases whose outcome differs from the file with
``PYTHONPATH=src python tests/test_golden_errors.py``; add ``--write`` to
write the file from the current code (once, before a codec change).
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
import warnings
from pathlib import Path
from typing import Any, Iterator

from dla import (
    EnginePolicy,
    LicenseRange,
    assess_all,
    default_scenarios,
    verify,
)
from dla.catalog import _InterpretationDocument, _TemplateDocument
from dla.lineage import CaptureInput, _LineageDocument
from dla.model import (
    AssessmentRow,
    AssessmentTable,
    AuditInfo,
    Digest,
    Document,
    LicenseMetadata,
    Obligation,
    ProvenanceRecord,
    RightEntry,
    RightsVector,
    UsageScenario,
    VerifiedLicense,
    _BlockingRight,
    canonical_json,
    replace,
)
from dla.resources import templates_dir
from dla.store import StoreEntry, analysis_key

from helpers import bundle_paths, load_bundle

GOLDEN_ERRORS_PATH = Path(__file__).parent / "data" / "golden_errors.json"
SEED = 20211104
MUTATIONS_PER_TYPE = 96
# One value of each JSON type, and a string no enum accepts.
SWAPS = ("zz", 7, -1, True, 1.5, [], ["zz"], {}, {"zz": 1})
UNKNOWN_FIELD = "zz_unknown"
# The inputs digest and engine version of the imagenet analysis as first
# recorded. This file freezes the codec, not the fingerprint or the engine
# version, so the analysis carries them as they were.
INPUTS_DIGEST = "a68a9ed14f0a2aeee2060644ec8b663440e607381258fc327e3e656019c36b5f"
ENGINE_VERSION = "0.1.0"


def document_types() -> set[type]:
    found: set[type] = set()
    pending = [Document]
    while pending:
        for sub in pending.pop().__subclasses__():
            found.add(sub)
            pending.append(sub)
    return found


def read(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def base_documents() -> dict[type, Any]:
    """One valid JSON document of every document type, from the shipped
    fixtures and the analyses the library computes from them."""
    lineage_path, _ = bundle_paths("imagenet")
    graph, interpretations = load_bundle("imagenet")
    verified = verify(
        graph,
        interpretations.vectors,
        EnginePolicy(),
        template_digests=interpretations.template_digests,
        inputs_digest=INPUTS_DIGEST,
    )
    verified = replace(verified, audit=replace(verified.audit, engine_version=ENGINE_VERSION))
    table = assess_all(verified, default_scenarios(), dataset_name=graph.root.dataset_name)
    blocked = next(row for row in table.rows if row.blocking_rights)
    template = read(templates_dir() / "cc-by-4.0.json")
    vector = template["vector"]
    entry = next(e for e in vector["standalone_rights"].values() if e.get("obligations"))
    cifar_lineage, _ = bundle_paths("cifar-10")
    record = next(r for r in read(cifar_lineage)["records"] if r.get("digest"))
    captures = read(lineage_path.parent / "captures" / "flickr.json")
    _, ffhq_interp = bundle_paths("ffhq")
    return {
        _LineageDocument: read(lineage_path),
        ProvenanceRecord: record,
        Digest: record["digest"],
        CaptureInput: captures[0],
        LicenseRange: LicenseRange.ending_at(2009).to_dict(),
        _TemplateDocument: template,
        RightsVector: vector,
        LicenseMetadata: vector["metadata"],
        RightEntry: entry,
        Obligation: entry["obligations"][0],
        _InterpretationDocument: read(ffhq_interp / "ffhq.json"),
        EnginePolicy: EnginePolicy().to_dict(),
        VerifiedLicense: verified.to_dict(),
        AuditInfo: verified.audit.to_dict(),
        UsageScenario: default_scenarios()[0].to_dict(),
        AssessmentTable: table.to_dict(),
        AssessmentRow: blocked.to_dict(),
        _BlockingRight: blocked.blocking_rights[0].to_dict(),
        StoreEntry: {
            "key": analysis_key(graph.root),
            "dataset_name": graph.root.dataset_name,
            "payload_sha256": hashlib.sha256(
                canonical_json(verified.to_dict()).encode("utf-8")
            ).hexdigest(),
            "verified_license": verified.to_dict(),
        },
    }


def locations(doc: Any, where: tuple = ()) -> Iterator[tuple]:
    """The key path of every value in a JSON tree, the root first."""
    yield where
    if where[:1] == ("edges",) and len(where) == 2:
        return  # an edge pair: its endpoints belong to the lineage hook
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from locations(value, where + (key,))


def render(where: tuple) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where) or "<root>"


def mutate(doc: Any, rng: random.Random) -> tuple[str, Any]:
    """One random mutation of ``doc``: its description and the mutated tree.
    ``doc`` itself is changed, except when the root is replaced."""
    places = list(locations(doc))
    where = rng.choice(places)
    kind = rng.choice(["swap", "null", "delete", "unknown"])
    objects = [p for p in places if isinstance(_at(doc, p), dict)]
    if kind == "unknown" and objects:
        where = rng.choice(objects)
        _at(doc, where)[UNKNOWN_FIELD] = "zz"
        return f"unknown field at {render(where)}", doc
    if kind == "delete" and where:
        del _at(doc, where[:-1])[where[-1]]
        return f"delete {render(where)}", doc
    value = None if kind == "null" else copy.deepcopy(rng.choice(SWAPS))
    description = f"set {render(where)} = {json.dumps(value)}"
    if not where:
        return description, value
    _at(doc, where[:-1])[where[-1]] = value
    return description, doc


def _at(doc: Any, where: tuple) -> Any:
    for key in where:
        doc = doc[key]
    return doc


def outcome(cls: type, doc: Any, strict: bool) -> str:
    """What parsing ``doc`` as ``cls`` gives: the error, or a digest of the
    value, then each warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = cls.from_dict(doc, strict=strict)
        except Exception as exc:  # every outcome is recorded, a crash included
            result = f"{type(exc).__name__}: {exc}"
        else:
            text = canonical_json(value.to_dict())
            result = "ok " + hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return " | ".join([result] + [f"{w.category.__name__}: {w.message}" for w in caught])


def mutated_documents() -> Iterator[tuple[type, str, Any]]:
    """Every case: its type, its name (the type and the mutations) and the
    mutated document."""
    for cls, base in sorted(base_documents().items(), key=lambda item: item[0].__name__):
        rng = random.Random(f"{SEED}:{cls.__name__}")
        for _ in range(MUTATIONS_PER_TYPE):
            doc, descriptions = copy.deepcopy(base), []
            for _ in range(rng.choice([1, 1, 2])):
                description, doc = mutate(doc, rng)
                descriptions.append(description)
            yield cls, f"{cls.__name__}: {'; '.join(descriptions)}", doc


def cases() -> dict[str, dict[str, str]]:
    """Every case's outcome in strict and lenient mode, by type and mutation."""
    return {
        name: {"strict": outcome(cls, doc, strict=True), "lenient": outcome(cls, doc, strict=False)}
        for cls, name, doc in mutated_documents()
    }


def test_every_document_type_has_a_base_document():
    assert set(base_documents()) == document_types()


def test_every_base_document_parses_cleanly():
    for cls, base in base_documents().items():
        assert outcome(cls, base, strict=True).startswith("ok "), cls


def test_mutated_documents_match_golden():
    golden = read(GOLDEN_ERRORS_PATH)
    assert sum(len(modes) for modes in golden.values()) >= 2000
    assert cases() == golden


def main(write: bool) -> int:
    """Print each case added, removed or changed against the file, and exit
    1 when there is one; with ``write``, then record the current outcomes."""
    golden, current = read(GOLDEN_ERRORS_PATH), cases()
    differ = sorted(k for k in golden.keys() | current.keys() if golden.get(k) != current.get(k))
    for key in differ:
        kind = "added" if key not in golden else "removed" if key not in current else "changed"
        print(f"{kind}: {key}\n  was {golden.get(key)}\n  now {current.get(key)}")
    print(f"{len(differ)} of {len(current)} cases differ from {GOLDEN_ERRORS_PATH.name}")
    if write:
        GOLDEN_ERRORS_PATH.write_text(
            json.dumps(current, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main("--write" in sys.argv[1:]))
