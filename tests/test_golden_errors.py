"""Frozen parse outcomes of mutated documents, recorded once in
``tests/data/golden_errors.json``.

One valid document of every ``Document`` type is mutated by the seeded
mutator of ``helpers.mutated_documents``: a value swapped for one of another JSON type, a null, a deleted key
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

import hashlib
import json
import sys
import warnings
from pathlib import Path
from typing import Any

from dla.model import canonical_json

from helpers import base_documents, document_types, mutated_documents, read

GOLDEN_ERRORS_PATH = Path(__file__).parent / "data" / "golden_errors.json"


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
