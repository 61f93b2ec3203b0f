"""Every name the package exports, and every attribute the traced benchmark
(``bench/tracing.py``) patches, must exist, and the patched functions must be
the ones an ``assess`` or ``range`` run calls: deleting one, or calling a
layer some other way, fails here and not only in the benchmark's own
self-test."""

from __future__ import annotations

import ast
import importlib
import json
import shutil
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import dla
import dla.lineage
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


def recording(function, seen: list):
    """``function``, appending its first argument to ``seen`` on each call."""
    def recorded(first, *args, **kwargs):
        seen.append(first)
        return function(first, *args, **kwargs)
    return recorded


def test_range_reaches_each_traced_name_once_per_node(monkeypatch):
    """The bench's ``lineage.range`` and ``lineage.capture`` spans wrap these
    names in ``dla.lineage``; ``range --captures`` calls them through the
    module, ``compute_license_range`` and ``select_capture`` once per node and
    ``parse_capture_list`` once per capture file."""
    lineage, _ = bundle_paths("cifar-10")
    captures = lineage.parent / "captures"
    calls: dict[str, list] = {
        name: [] for name in ("compute_license_range", "select_capture", "parse_capture_list")
    }
    for name, seen in calls.items():
        monkeypatch.setattr(dla.lineage, name, recording(getattr(dla.lineage, name), seen))
    result = CliRunner().invoke(cli, ["range", str(lineage), "--captures", str(captures)])
    assert result.exit_code == 0, result.output
    nodes = LineageGraph.from_dict(json.loads(lineage.read_text(encoding="utf-8"))).nodes
    assert calls["compute_license_range"] == list(nodes)
    assert calls["select_capture"] == list(nodes)
    assert len(calls["parse_capture_list"]) == len(list(captures.glob("*.json")))


# Every command form, with the exit code it ends with on the cifar-10 bundle.
# ``{store}`` names a store that holds the cifar-10 and ffhq analyses, and
# ``{key}`` the first of them.
REPORTS = {
    "range": (["range", "{lineage}"], 0),
    "range-captures": (["range", "{lineage}", "--captures", "{captures}"], 0),
    "lineage": (["lineage", "{lineage}"], 0),
    "lineage-json": (["--format", "json", "lineage", "{lineage}"], 0),
    "validate": (["validate", "{lineage}", "{interp}/cifar-10.json", "{captures}/flickr.json"], 0),
    "validate-problem": (["validate", "{lineage}", "{bad_record}"], 1),
    "verify": (["verify", "{lineage}", "{interp}"], 0),
    "verify-json": (["--format", "json", "verify", "{lineage}", "{interp}"], 0),
    "assess": (["assess", "{lineage}", "{interp}"], 3),
    "assess-json": (["--format", "json", "assess", "{lineage}", "{interp}"], 3),
    "store-ls": (["--store", "{store}", "store", "ls"], 0),
    "store-rm": (["--store", "{store}", "store", "rm", "{key}"], 0),
    "store-rm-absent": (["--store", "{store}", "store", "rm", "0" * 64], 0),
}
# Error exits, each after the command has done some of its work.
FAILURES = {
    "validate-missing-second": (["validate", "{lineage}", "{missing}"], 64),
    "range-bad-capture-list": (["range", "{lineage}", "--captures", "{bad_captures}"], 1),
    "assess-uninterpreted-node": (["assess", "{lineage}", "{partial_interp}"], 1),
    "store-ls-corrupt-blob": (["--store", "{corrupt_store}", "store", "ls"], 64),
}


def command_paths(tmp_path: Path) -> dict[str, Path | str]:
    """The paths and store key that ``REPORTS`` and ``FAILURES`` name."""
    lineage, interp = bundle_paths("cifar-10")
    paths: dict[str, Path | str] = {
        "lineage": lineage, "interp": interp, "captures": lineage.parent / "captures",
        "missing": tmp_path / "missing.json", "bad_record": tmp_path / "record.json",
        "bad_captures": tmp_path / "captures", "partial_interp": tmp_path / "interpretations",
        "store": tmp_path / "store", "corrupt_store": tmp_path / "corrupt",
    }
    (tmp_path / "record.json").write_text(json.dumps({"subject_kind": "dataset"}))
    shutil.copytree(paths["captures"], paths["bad_captures"])
    (tmp_path / "captures" / "cifar-10.json").write_text('{"captures": []}')
    shutil.copytree(interp, paths["partial_interp"])
    (tmp_path / "interpretations" / "flickr.json").unlink()
    for name in ("cifar-10", "ffhq"):
        args = ["--store", str(paths["store"]), "assess", *map(str, bundle_paths(name))]
        assert CliRunner().invoke(cli, args).exit_code == 3
    paths["key"] = sorted(paths["store"].glob("*.json"))[0].stem
    shutil.copytree(paths["store"], paths["corrupt_store"])
    sorted(paths["corrupt_store"].glob("*.json"))[1].write_text("{not json")
    return paths


def run_recording_writes(monkeypatch, tmp_path: Path, args: list[str]):
    """Run ``dla`` with ``args`` and every ``click.echo`` call recorded as its
    message and whether it went to stderr."""
    paths = command_paths(tmp_path)
    writes: list = []
    echo = click.echo

    def recorded(message=None, *rest, err=False, **kwargs):
        writes.append((message, err))
        return echo(message, *rest, err=err, **kwargs)

    monkeypatch.setattr(click, "echo", recorded)
    return CliRunner().invoke(cli, [arg.format(**paths) for arg in args]), writes


@pytest.mark.parametrize("args,code", REPORTS.values(), ids=REPORTS)
def test_report_is_one_stdout_write(monkeypatch, tmp_path, args, code):
    result, writes = run_recording_writes(monkeypatch, tmp_path, args)
    assert result.exit_code == code, result.output
    assert result.stdout and writes == [(result.stdout, False)]


@pytest.mark.parametrize("args,code", FAILURES.values(), ids=FAILURES)
def test_error_exit_makes_no_stdout_write(monkeypatch, tmp_path, args, code):
    result, writes = run_recording_writes(monkeypatch, tmp_path, args)
    assert result.exit_code == code, result.output
    assert result.stdout == "" and writes == [(result.stderr.removesuffix("\n"), True)]
    assert result.stderr.startswith("error: ")
