"""Every name the package exports, and every attribute the traced benchmark
(``bench/tracing.py``) patches, must exist, and the patched functions must be
the ones an ``assess`` run calls: deleting one, or calling a layer some other
way, fails here and not only in the benchmark's own self-test."""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import dla
from dla.cli import cli
from dla.lineage import LineageGraph
from dla.model import ProvenanceRecord

from helpers import bundle_paths

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
# The layers of an ``assess`` store miss and hit whose per-layer metrics the
# benchmark reports.
ASSESS_LAYERS = ("engine.fingerprint", "store.lookup", "store.get", "store.put",
                 "catalog.load_catalog", "catalog.read", "catalog.parse", "lineage.build",
                 "engine.verify")


def traced_spans() -> list[tuple]:
    """The ``SPANS`` table of the traced benchmark, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPANS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no SPANS")


def test_every_exported_name_resolves():
    assert [name for name in dla.__all__ if not hasattr(dla, name)] == []


@pytest.mark.parametrize("span", traced_spans(), ids=lambda span: f"{span[1]}.{span[2]}")
def test_traced_attribute_exists(span):
    _, module_name, attr, where = span
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    for name in where or ():
        assert getattr(importlib.import_module(name), attr) is owner


def test_wrapped_record_decoder_sees_every_record(monkeypatch):
    """The traced benchmark wraps ``ProvenanceRecord.from_dict`` on the class.
    A lineage's records are decoded through that class attribute, one call
    each, or its per-layer ``model.records_parse_s`` would read zero."""
    lineage, _ = bundle_paths("imagenet")
    doc = json.loads(lineage.read_text(encoding="utf-8"))
    raw = ProvenanceRecord.__dict__["from_dict"]
    calls = []

    def counted(cls, data, *args, **kwargs):
        calls.append(data["subject_id"])
        return raw.__func__(cls, data, *args, **kwargs)

    monkeypatch.setattr(ProvenanceRecord, "from_dict", classmethod(counted))
    graph = LineageGraph.from_dict(doc)
    assert calls == [record["subject_id"] for record in doc["records"]]
    assert sorted(graph.nodes) == sorted(calls)


def test_traced_assess_records_every_layer(tmp_path, monkeypatch):
    """``bench/tracing.py``, imported as it is, records a span for each layer
    of an ``assess`` miss and hit run in process."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    lineage, interp = bundle_paths("cifar-10")
    args = ["--store", str(tmp_path / "store"), "assess", str(lineage), str(interp)]
    with tracing.Patches(tracer).applied():
        miss, hit = (CliRunner().invoke(cli, args) for _ in range(2))
    assert (miss.exit_code, hit.exit_code) == (3, 3)
    assert "(cached analysis)" not in miss.stderr and "(cached analysis)" in hit.stderr
    for name in ASSESS_LAYERS:
        spans = [span for span in tracer.spans if span.name == name]
        assert spans and [span.error for span in spans if span.error] == [], name
