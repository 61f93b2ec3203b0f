"""The two tiers of every document class's decoder, interpreted and
compiled, each built directly by ``model._codec`` and put on every document
class at once, so that nested documents run the same tier; every class
encodes with its one ``_encode``. Every document decodes and re-encodes to
equal values, or fails with the same exception type and
message, and warns with the same texts from the same file, in both tiers.

The documents: every case of the golden-errors mutator, every shipped
bundle's files, the shipped templates and scenarios, and every file of the
300-node ``wide`` bundle of the bench.
"""

from __future__ import annotations

import importlib
import json
import warnings
from pathlib import Path
from typing import Any, Iterator

import pytest

from dla.catalog import _InterpretationDocument, _TemplateDocument
from dla.lineage import CaptureInput, _LineageDocument
from dla.model import RightEntry, UsageScenario, _codec, canonical_json
from dla.resources import scenarios_path, templates_dir

from helpers import BUNDLE_NAMES, FIXTURES_DIR
from test_golden_errors import document_types, mutated_documents

BENCH = Path(__file__).resolve().parents[1] / "bench"
METHODS = ("_decode",)


@pytest.fixture
def use_tier(monkeypatch):
    """Puts one tier's ``_decode`` on every document class; each class gets
    its decoder back after the test."""
    tiers: dict[str, dict[type, dict[str, Any]]] = {"interpreted": {}, "compiled": {}}
    for cls in document_types():
        for name in METHODS:
            monkeypatch.setattr(cls, name, cls.__dict__[name])
        interpreted, compiled = _codec(cls, hot=0)  # never compiles itself
        tiers["interpreted"][cls] = interpreted
        tiers["compiled"][cls] = {name: compiled() for name in METHODS}

    def use(tier: str) -> None:
        for cls, methods in tiers[tier].items():
            for name, function in methods.items():
                setattr(cls, name, function)
                assert function.__code__.co_filename.startswith("<codec ") == (tier == "compiled")

    return use


def outcome(cls: type, doc: Any, strict: bool) -> tuple:
    """Decoding ``doc`` and writing it back: the value and its document as
    written to disk, or the exception's type and message; then each warning's
    text and file."""
    RightEntry._shared.clear()  # a shared value may come from the other tier
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = cls.from_dict(doc, strict=strict)
            result: tuple = (value, canonical_json(value.to_dict()))
        except Exception as exc:  # every outcome is compared, a crash included
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message), w.filename) for w in caught]


def read(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def bundle_documents(base: Path) -> Iterator[tuple[type, Any]]:
    """Every document of one bundle's files, with its type."""
    yield _LineageDocument, read(base / "lineage.json")
    for path in sorted((base / "interpretations").glob("*.json")):
        yield _InterpretationDocument, read(path)
    for path in sorted((base / "captures").glob("*.json")):
        yield from ((CaptureInput, item) for item in read(path))


def shipped_documents() -> Iterator[tuple[type, Any]]:
    for name in BUNDLE_NAMES:
        yield from bundle_documents(FIXTURES_DIR / name)
    for path in sorted(templates_dir().glob("*.json")):
        yield _TemplateDocument, read(path)
    yield from ((UsageScenario, doc) for doc in read(scenarios_path()))


def assert_tiers_agree(use_tier, documents: list[tuple[type, Any]]) -> None:
    outcomes = {}
    for tier in ("interpreted", "compiled"):
        use_tier(tier)
        outcomes[tier] = [
            outcome(cls, doc, strict) for cls, doc in documents for strict in (True, False)
        ]
    assert outcomes["interpreted"] == outcomes["compiled"]


def test_every_mutated_document_has_one_outcome_in_both_tiers(use_tier):
    documents = [(cls, doc) for cls, _, doc in mutated_documents()]
    assert len(documents) >= 1000
    assert_tiers_agree(use_tier, documents)


def test_every_shipped_document_has_one_outcome_in_both_tiers(use_tier):
    documents = list(shipped_documents())
    assert {cls for cls, _ in documents} == {
        _LineageDocument, _InterpretationDocument, CaptureInput, _TemplateDocument, UsageScenario
    }
    assert_tiers_agree(use_tier, documents)


def test_every_wide_document_has_one_outcome_in_both_tiers(use_tier, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    (bundle,) = workloads.make_bundles("wide", 7, tmp_path, FIXTURES_DIR, nodes=300)
    documents = list(bundle_documents(bundle.root))
    assert len(documents) > 300
    assert_tiers_agree(use_tier, documents)
