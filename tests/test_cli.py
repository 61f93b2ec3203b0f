"""Command-line interface: exit-code contract, report content, determinism."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from dla import analysis_key
from dla.cli import cli
from dla.errors import LineageError
from dla.lineage import (
    CaptureInput,
    LineageGraph,
    build_lineage,
    compute_license_range,
    select_capture,
)
from dla.model import CaptureStatus, SubjectKind, canonical_json

from helpers import (
    BUNDLE_NAMES,
    bundle_paths,
    load_bundle,
    record_for,
    website_chain,
    write_synthetic_bundle,
)


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(cli, [str(a) for a in args], catch_exceptions=False, **kwargs)


class TestValidate:
    def test_all_fixture_bundles_validate_cleanly(self, runner):
        paths = []
        for name in BUNDLE_NAMES:
            lineage, interp_dir = bundle_paths(name)
            paths.append(lineage)
            paths.extend(sorted(interp_dir.glob("*.json")))
            paths.extend(sorted((lineage.parent / "captures").glob("*.json")))
        result = invoke(runner, "validate", *paths)
        assert result.exit_code == 0, result.output
        assert "problem" not in result.output

    def test_truncated_json_exits_64_naming_the_file(self, runner, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"records": [')
        result = invoke(runner, "validate", bad)
        assert result.exit_code == 64
        assert "broken.json" in result.output

    def test_missing_file_exits_64(self, runner, tmp_path):
        result = invoke(runner, "validate", tmp_path / "nope.json")
        assert result.exit_code == 64

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_later_file_exits_64_before_any_line(self, runner, tmp_path, kind):
        lineage, _ = bundle_paths("cifar-10")
        bad = tmp_path / "bad.json"
        if kind == "directory":
            bad.mkdir()
        result = invoke(runner, "validate", lineage, bad)
        assert result.exit_code == 64
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {bad}: cannot read file")

    def test_vector_missing_fixed_right_exits_1(self, runner, tmp_path):
        doc = {
            "subject_id": "x",
            "vector": {
                "metadata": {"licensor": "L", "license_name": "N", "dataset_name": "D"},
                "standalone_rights": {
                    r: {"grant": "granted"}
                    for r in ("Access", "Tagging", "Distribute", "Rerepresent")
                },
                "model_rights": {"Benchmark": {"grant": "granted"}},
            },
        }
        path = tmp_path / "interp.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, "validate", path)
        assert result.exit_code == 1
        assert "ModelReverseEngineer" in result.output

    def test_unrecognized_document_shape_is_a_problem(self, runner, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"name": "x"}))
        result = invoke(runner, "validate", path)
        assert result.exit_code == 1
        assert result.stdout == f"{path}: 1 problem(s)\n  - unrecognized document shape\n"

    def test_provenance_violation_reported(self, runner, tmp_path):
        record = record_for("x").to_dict()
        record["origin_year"] = None  # dataset without an origin year
        path = tmp_path / "prov.json"
        path.write_text(json.dumps(record))
        result = invoke(runner, "validate", path)
        assert result.exit_code == 1
        assert "origin_year" in result.output

    def test_lenient_mode_downgrades_unknown_fields(self, runner, tmp_path):
        record = record_for("x").to_dict()
        record["surprise"] = 1
        path = tmp_path / "prov.json"
        path.write_text(json.dumps(record))
        strict = runner.invoke(cli, ["validate", str(path)])
        assert strict.exit_code == 1
        assert "unknown fields" in strict.output
        with pytest.warns(UserWarning, match="surprise"):
            lenient = runner.invoke(
                cli, ["--lenient", "validate", str(path)], catch_exceptions=False
            )
        assert lenient.exit_code == 0


# Each kind of input file: the file to break, relative to a copy of the
# cifar-10 bundle, and a command that reads it.
INPUT_KINDS = {
    "lineage": ("lineage.json", ["assess", "lineage.json", "interpretations"]),
    "interpretation": ("interpretations/zz.json", ["assess", "lineage.json", "interpretations"]),
    "scenarios": (
        "scenarios.json",
        ["assess", "lineage.json", "interpretations", "--scenarios", "scenarios.json"],
    ),
    "capture-list": (
        "captures/cifar-10.json", ["range", "lineage.json", "--captures", "captures"]
    ),
    "validate": ("lineage.json", ["validate", "lineage.json"]),
}
FAULT_BYTES = {"truncated": b'{"records": [', "not-utf8": b"\xff\xfe"}


def write_chain_lineage(path: Path, root_id: str, length: int) -> list[str]:
    """Write a ``website_chain`` lineage file; returns the node ids, root first."""
    records, edges = website_chain(root_id, length)
    path.write_text(
        json.dumps(
            {
                "records": [record.to_dict() for record in records],
                "edges": [list(edge) for edge in edges],
                "root_id": root_id,
            }
        )
    )
    return [record.subject_id for record in records]


def break_file(path, fault):
    if path.exists():
        path.unlink()
    if fault == "missing":
        # A dangling symlink: the name is still listed by its directory, but
        # no file is behind it.
        path.symlink_to("absent.json")
    elif fault == "directory":
        path.mkdir()
    else:
        path.write_bytes(FAULT_BYTES[fault])


class TestInputErrors:
    @pytest.mark.parametrize("fault", ["missing", "directory", "truncated", "not-utf8"])
    @pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
    def test_bad_input_file_exits_64_naming_it(
        self, runner, tmp_path, monkeypatch, kind, fault
    ):
        lineage, _ = bundle_paths("cifar-10")
        shutil.copytree(lineage.parent, tmp_path / "bundle")
        monkeypatch.chdir(tmp_path / "bundle")
        target, args = INPUT_KINDS[kind]
        break_file(Path(target), fault)
        result = runner.invoke(cli, args)
        assert result.exit_code == 64, repr(result.exception)
        assert result.stderr.startswith(f"error: {target}: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000 + "]" * 200_000,
            '{"records": ' + "[" * 3000 + "]" * 3000 + ', "edges": [], "root_id": "x"}',
        ],
        ids=["brackets", "records"],
    )
    @pytest.mark.parametrize("command", ["lineage", "validate"])
    def test_json_nested_past_the_parser_exits_64(self, runner, tmp_path, command, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        result = runner.invoke(cli, [command, str(path)])
        assert result.exit_code == 64, repr(result.exception)
        message = "invalid JSON: nested deeper than the parser allows"
        assert result.stderr == f"error: {path}: {message}\n"


# A capture list's faults: its text, the exit code and the error it ends in.
BAD_CAPTURE_LISTS = {
    "truncated": ("[", 64, "invalid JSON"),
    "not-an-array": ("{}", 1, "expected array of captures, got dict"),
}


class TestRange:
    def test_cifar_ranges(self, runner):
        lineage, _ = bundle_paths("cifar-10")
        result = invoke(runner, "range", lineage)
        assert result.exit_code == 0
        assert "cifar-10: 2008-2009" in result.output
        assert "80-million-tiny-images: 2005-2006" in result.output
        for source in ("google", "flickr", "ask", "altavista", "picsearch", "webshots", "cydral"):
            assert f"{source}: 2005-2006" in result.output

    def test_single_node_2015(self, runner, tmp_path):
        record = record_for("solo").to_dict()
        record["origin_year"] = 2015
        lineage = tmp_path / "lineage.json"
        lineage.write_text(
            json.dumps({"records": [record], "edges": [], "root_id": "solo"})
        )
        result = invoke(runner, "range", lineage)
        assert result.exit_code == 0
        assert "solo: 2014-2015" in result.output

    def test_cyclic_lineage_exits_2(self, runner, tmp_path):
        records = [record_for("a").to_dict(), record_for("b").to_dict()]
        lineage = tmp_path / "lineage.json"
        lineage.write_text(
            json.dumps({"records": records, "edges": [["a", "b"], ["b", "a"]], "root_id": "a"})
        )
        result = invoke(runner, "range", lineage)
        assert result.exit_code == 2
        assert "cycle" in result.output

    def test_capture_statuses_shown(self, runner):
        lineage, _ = bundle_paths("cifar-10")
        captures = lineage.parent / "captures"
        result = invoke(runner, "range", lineage, "--captures", captures)
        assert result.exit_code == 0
        assert "google: 2005-2006 capture: 2005 (in_range)" in result.output
        assert "ask: 2005-2006 capture: 2007 (out_of_range_fallback)" in result.output
        assert "cydral: 2005-2006 capture: (unavailable)" in result.output

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_captures_that_is_not_a_directory_exits_64(self, runner, tmp_path, kind):
        lineage, _ = bundle_paths("cifar-10")
        captures = tmp_path / "captures"
        if kind == "file":
            captures.write_text("[]")
        result = invoke(runner, "range", lineage, "--captures", captures)
        assert result.exit_code == 64
        assert result.stdout == ""
        assert result.stderr == f"error: {captures}: not a directory\n"

    def test_node_id_naming_a_path_outside_the_captures_reads_nothing(self, runner, tmp_path):
        lineage, _ = bundle_paths("cifar-10")
        bundle = tmp_path / "bundle"
        shutil.copytree(lineage.parent, bundle)
        text = (bundle / "lineage.json").read_text()
        (bundle / "lineage.json").write_text(text.replace('"flickr"', '"../outside"'))
        shutil.copy(bundle / "captures" / "flickr.json", bundle / "outside.json")
        result = invoke(runner, "range", bundle / "lineage.json", "--captures", bundle / "captures")
        assert result.exit_code == 0
        assert "../outside: 2005-2006 capture: (unavailable)" in result.stdout.splitlines()

    def test_unreadable_capture_list_of_no_node_exits_64(self, runner, tmp_path):
        lineage, _ = bundle_paths("cifar-10")
        captures = tmp_path / "captures"
        shutil.copytree(lineage.parent / "captures", captures)
        (captures / "stray.json").symlink_to("absent.json")
        result = invoke(runner, "range", lineage, "--captures", captures)
        assert result.exit_code == 64
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {captures / 'stray.json'}: cannot read file")

    @pytest.mark.parametrize(
        "where, fault",
        [pytest.param(where, fault, id=fault if where == "absolute" else f"{where}-{fault}")
         for where in ("absolute", "relative", "dotted", "cwd")
         for fault in BAD_CAPTURE_LISTS],
    )
    def test_bad_capture_list_exits_before_any_line(
        self, runner, tmp_path, monkeypatch, where, fault
    ):
        """The file is named as ``str(captures / name)`` names it, for an
        absolute, a relative and a dotted captures directory, and for ``.``
        run inside it."""
        text, code, error = BAD_CAPTURE_LISTS[fault]
        lineage, _ = bundle_paths("cifar-10")
        shutil.copytree(lineage.parent / "captures", tmp_path / "captures")
        (tmp_path / "captures" / "google.json").write_text(text)
        captures = {
            "absolute": tmp_path / "captures",
            "relative": Path("captures"),
            "dotted": Path("./captures/"),
            "cwd": Path("."),
        }[where]
        monkeypatch.chdir(tmp_path / "captures" if where == "cwd" else tmp_path)
        result = invoke(runner, "range", lineage, "--captures", captures)
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {captures / 'google.json'}: {error}")

    def test_deep_website_chain_inherits_the_root_range(self, runner, tmp_path):
        lineage = tmp_path / "lineage.json"
        ids = write_chain_lineage(lineage, "root", 5000)
        result = invoke(runner, "range", lineage)
        assert result.exit_code == 0
        assert result.stdout.splitlines() == [f"{node_id}: 2009-2010" for node_id in ids]

    def test_per_node_errors_inline(self, runner, tmp_path):
        record = record_for("solo").to_dict()
        record["origin_year"] = None
        lineage = tmp_path / "lineage.json"
        lineage.write_text(json.dumps({"records": [record], "edges": [], "root_id": "solo"}))
        result = invoke(runner, "range", lineage)
        assert result.exit_code == 0
        assert "solo: error:" in result.output

    def test_captures_report_matches_the_library_line_by_line(self, runner, tmp_path):
        graph, captures = mixed_lineage(random.Random(41), 300)
        lineage = write_lineage(tmp_path / "lineage.json", graph)
        captures_dir = tmp_path / "captures"
        captures_dir.mkdir()
        for node_id, items in captures.items():
            (captures_dir / f"{node_id}.json").write_text(json.dumps(items))
        lines, outcomes, statuses = [], set(), set()
        for node_id in graph.nodes:
            try:
                node_range = compute_license_range(node_id, graph)
            except LineageError as exc:
                outcomes.add(type(exc).__name__)
                lines.append(f"{node_id}: error: {exc}")
                continue
            outcomes.add("range")
            offered = [CaptureInput.from_dict(item) for item in captures.get(node_id, [])]
            capture = select_capture(node_id, offered, node_range)
            statuses.add(capture.status)
            year = "" if capture.capture_year is None else f"{capture.capture_year} "
            lines.append(f"{node_id}: {node_range.start_year}-{node_range.end_year}"
                         f" capture: {year}({capture.status.value})")
        assert outcomes == {"range", "MissingOriginYear", "AmbiguousRange", "NoDatasetAncestor"}
        assert statuses == set(CaptureStatus)
        assert len(captures) < len(graph.nodes)  # some nodes have no capture file
        result = invoke(runner, "range", lineage, "--captures", captures_dir)
        assert result.exit_code == 0
        assert result.stdout == "\n".join(lines) + "\n"


def write_lineage(path: Path, graph: LineageGraph) -> Path:
    path.write_text(canonical_json(graph.to_dict()))
    return path


def mixed_lineage(rng: random.Random, count: int) -> tuple[LineageGraph, dict[str, list]]:
    """A lineage of ``count`` nodes whose ranges cover every outcome, and
    capture lists for most of its nodes.

    The root is a website, so nodes it reaches through no dataset have no
    dataset ancestor; dataset years come from a small pool that includes
    none, so equally near datasets may disagree or lack a year. A capture
    list may be empty, or hold captures in and out of a node's range.
    """
    ids = [f"n{i:03d}" for i in range(count)]
    kinds = [SubjectKind.WEBSITE] + [
        rng.choice([SubjectKind.DATASET, SubjectKind.WEBSITE, SubjectKind.SEARCH_ENGINE])
        for _ in ids[1:]
    ]
    records = [
        replace(record_for(node_id, kind),
                origin_year=rng.choice([None, 2004, 2005, 2005, 2009])
                if kind is SubjectKind.DATASET else None)
        for node_id, kind in zip(ids, kinds)
    ]
    edges = {(ids[rng.randint(max(0, i - 20), i - 1)], ids[i]) for i in range(1, count)}
    edges |= {(ids[rng.randint(max(0, i - 20), i - 1)], ids[i])
              for i in range(1, count) if rng.random() < 0.3}
    graph = build_lineage(records, edges, ids[0])
    captures = {
        node_id: [
            {"year": rng.randint(2002, 2011), "url": f"https://archive.example/{node_id}/{j}",
             "content": f"terms {j}"}
            for j in range(rng.randint(0, 3))
        ]
        for node_id in ids if rng.random() < 0.8
    }
    return graph, captures


def lineage_markdown(graph: LineageGraph) -> str:
    """The markdown ``lineage`` report of a graph: the root, then each node
    and each edge in the graph's order."""
    lines = [f"root: {graph.root_id}"]
    for node_id, record in graph.nodes.items():
        year = "-" if record.origin_year is None else record.origin_year
        lines.append(f"{node_id}: kind={record.subject_kind.value} origin_year={year}")
    lines += [f"{parent} -> {child}" for parent, child in graph.edges]
    return "\n".join(lines) + "\n"


class TestLineageCmd:
    @pytest.mark.parametrize("endpoint", [None, {"a": 1}], ids=["null", "object"])
    def test_non_string_edge_endpoint_exits_1(self, runner, tmp_path, endpoint):
        lineage, _ = bundle_paths("imagenet")
        doc = json.loads(lineage.read_text(encoding="utf-8"))
        doc["edges"][0] = [endpoint, "google-images"]
        path = tmp_path / "lineage.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["lineage", str(path)])
        assert result.exit_code == 1, repr(result.exception)
        got = type(endpoint).__name__
        assert result.stderr == f"error: {path}.edges[0][0]: expected string, got {got}\n"

    def test_root_naming_no_record_exits_2_naming_the_root(self, runner, tmp_path):
        lineage, _ = bundle_paths("cifar-10")
        doc = json.loads(lineage.read_text(encoding="utf-8"))
        doc["root_id"] = "ghost"
        path = tmp_path / "lineage.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["lineage", str(path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: root_id references unknown subject: 'ghost'\n"

    @pytest.mark.parametrize("nested", [False, True], ids=["top-level", "record"])
    def test_lenient_unknown_field_warns_in_one_line(self, tmp_path, nested):
        """Run as a process: a warning raised in a test is recorded, not shown."""
        lineage, _ = bundle_paths("cifar-10")
        doc = json.loads(lineage.read_text(encoding="utf-8"))
        (doc["records"][0] if nested else doc)["zz_unknown"] = 1
        path = tmp_path / "lineage.json"
        path.write_text(json.dumps(doc))

        def run(target: Path) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-W", "default", "-m", "dla", "--lenient", "lineage",
                 str(target)],
                capture_output=True, text=True, timeout=120, check=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )

        where = f"{path}.records[0]" if nested else str(path)
        result = run(path)
        assert result.stderr == f"warning: {where}: ignoring unknown fields ['zz_unknown']\n"
        assert result.stdout == run(lineage).stdout

    def test_markdown_listing(self, runner):
        lineage, _ = bundle_paths("cifar-10")
        result = invoke(runner, "lineage", lineage)
        assert result.exit_code == 0
        assert "root: cifar-10" in result.output
        assert "cifar-10 -> 80-million-tiny-images" in result.output

    def test_json_round_trips_canonically(self, runner):
        lineage, _ = bundle_paths("cifar-10")
        result = invoke(runner, "--format", "json", "lineage", lineage)
        assert result.exit_code == 0
        assert result.output == canonical_json(json.loads(result.output))


    def test_deep_chain_lists_every_node(self, runner, tmp_path):
        ids = [f"n{i:05d}" for i in range(5000)]
        lineage = tmp_path / "lineage.json"
        lineage.write_text(
            json.dumps(
                {
                    "records": [record_for(i).to_dict() for i in ids],
                    "edges": [list(edge) for edge in zip(ids, ids[1:])],
                    "root_id": ids[0],
                }
            )
        )
        result = invoke(runner, "lineage", lineage)
        assert result.exit_code == 0
        assert f"{ids[-2]} -> {ids[-1]}" in result.output

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_markdown_lists_every_fixture_node_and_edge(self, runner, name):
        lineage, _ = bundle_paths(name)
        result = invoke(runner, "lineage", lineage)
        assert result.exit_code == 0
        assert result.stdout == lineage_markdown(load_bundle(name)[0])

    def test_markdown_lists_a_generated_graph(self, runner, tmp_path):
        graph, _ = mixed_lineage(random.Random(42), 300)
        result = invoke(runner, "lineage", write_lineage(tmp_path / "lineage.json", graph))
        assert result.exit_code == 0
        assert result.stdout == lineage_markdown(graph)


class TestAssess:
    def test_cifar_denied_exit_3(self, runner):
        lineage, interp = bundle_paths("cifar-10")
        result = invoke(runner, "assess", lineage, interp)
        assert result.exit_code == 3
        assert "| CIFAR-10 | No | No | No |" in result.output

    def test_ffhq_row(self, runner):
        lineage, interp = bundle_paths("ffhq")
        result = invoke(runner, "assess", lineage, interp)
        assert result.exit_code == 3
        assert "| FFHQ | Yes(C+D) | No | No |" in result.output

    def test_synthetic_permissive_exits_0(self, runner, tmp_path):
        lineage, interp = write_synthetic_bundle(tmp_path)
        result = invoke(runner, "assess", lineage, interp)
        assert result.exit_code == 0
        assert "| synthetic | Yes | Yes | Yes |" in result.output

    def test_deep_website_chain_denied_by_its_last_source_exits_3(self, runner, tmp_path):
        _, interp = write_synthetic_bundle(tmp_path)
        ids = write_chain_lineage(tmp_path / "lineage.json", "synthetic", 5000)
        for node_id in ids[1:]:
            template = "CC-BY-NC-4.0" if node_id == ids[-1] else "CC-BY-4.0"
            (interp / f"{node_id}.json").write_text(
                json.dumps({"subject_id": node_id, "template": template})
            )
        result = invoke(runner, "--format", "json", "assess", tmp_path / "lineage.json", interp)
        assert result.exit_code == 3
        restrictors = json.loads(result.stdout)["verified_license"]["restrictors"]
        assert {tuple(sources) for sources in restrictors.values() if sources} == {(ids[-1],)}

    def test_no_gate_downgrades_exit(self, runner):
        lineage, interp = bundle_paths("cifar-10")
        result = invoke(runner, "assess", lineage, interp, "--no-gate")
        assert result.exit_code == 0

    def test_json_output_byte_identical_across_runs(self, runner):
        lineage, interp = bundle_paths("vggface2")
        first = invoke(runner, "--format", "json", "assess", lineage, interp)
        second = invoke(runner, "--format", "json", "assess", lineage, interp)
        assert first.exit_code == second.exit_code == 3
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["assessment"]["rows"][0]["obligations"] == ["A", "E", "D"]
        assert doc["verified_license"]["audit"]["generated_at"] is None

    def test_unknown_denies_flag_changes_result(self, runner):
        lineage, interp = bundle_paths("ffhq")
        default = invoke(runner, "assess", lineage, interp)
        strict = invoke(runner, "--unknown-denies", "assess", lineage, interp)
        assert "| FFHQ | Yes(C+D) | No | No |" in default.output
        assert "| FFHQ | No | No | No |" in strict.output

    def test_custom_scenarios_file(self, runner, tmp_path):
        lineage, interp = bundle_paths("cifar-10")
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text('[{"id": "TRAIN", "required_rights": ["Research"]}]')
        result = invoke(runner, "assess", lineage, interp, "--scenarios", scenarios)
        assert result.exit_code == 0
        assert "| CIFAR-10 | Yes(cite-cifar10) |" in result.output

    def test_lenient_mode_warns_about_unknown_scenario_fields(self, runner, tmp_path):
        lineage, interp = bundle_paths("cifar-10")
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text('[{"id": "DD", "required_rights": ["Distribute"], "note": "x"}]')
        with pytest.warns(UserWarning, match="note"):
            result = invoke(
                runner, "--lenient", "assess", lineage, interp, "--scenarios", scenarios
            )
        assert result.exit_code == 3
        assert "| CIFAR-10 | No |" in result.stdout

    def test_missing_interpretations_dir_exits_64(self, runner, tmp_path):
        lineage, _ = bundle_paths("cifar-10")
        result = invoke(runner, "assess", lineage, tmp_path / "nope")
        assert result.exit_code == 64

    def test_uninterpreted_node_exits_1(self, runner, tmp_path):
        lineage, interp = bundle_paths("cifar-10")
        partial = tmp_path / "interpretations"
        partial.mkdir()
        source = interp / "cifar-10.json"
        (partial / "cifar-10.json").write_text(source.read_text())
        result = invoke(runner, "assess", lineage, partial)
        assert result.exit_code == 1

    def test_interpretation_of_no_lineage_node_exits_1_naming_the_file(self, runner, tmp_path):
        lineage, interp = bundle_paths("cityscapes")
        extra = tmp_path / "interpretations"
        shutil.copytree(interp, extra)
        orphan = extra / "renamed-source.json"
        orphan.write_text(json.dumps({"subject_id": "renamed-source", "unavailable": True}))
        result = runner.invoke(cli, ["assess", str(lineage), str(extra)])
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {orphan}: subject_id 'renamed-source' names no lineage node\n"
        )

    def test_template_nulling_a_required_metadata_field_exits_1(self, runner, tmp_path):
        lineage, interp = bundle_paths("ffhq")
        copy = tmp_path / "interpretations"
        shutil.copytree(interp, copy)
        target = copy / "ffhq.json"
        doc = json.loads(target.read_text())
        assert "template" in doc
        doc["metadata"] = {**doc.get("metadata", {}), "licensor": None}
        target.write_text(json.dumps(doc))
        result = runner.invoke(cli, ["assess", str(lineage), str(copy)])
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {target}.metadata.licensor: a required field cannot be null\n"
        )


class TestVerifyCmd:
    def test_json_document(self, runner):
        lineage, interp = bundle_paths("cifar-10")
        result = invoke(runner, "--format", "json", "verify", lineage, interp)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert set(doc["changed"]) == {
            "Tagging", "Distribute", "Rerepresent", "CommercializeOutput", "CommercializeModel",
        }
        assert doc["residual_risk_flags"] == ["80-million-tiny-images", "cydral"]

    def test_markdown_table(self, runner):
        lineage, interp = bundle_paths("cifar-10")
        result = invoke(runner, "verify", lineage, interp)
        assert result.exit_code == 0
        assert "| Tagging | denied (changed) |" in result.output


class TestStoreCli:
    def test_assess_with_store_then_ls_and_rm(self, runner, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        first = invoke(runner, "--store", store, "assess", lineage, interp)
        assert first.exit_code == 3
        listing = invoke(runner, "--store", store, "store", "ls")
        assert listing.exit_code == 0
        assert "Cityscapes" in listing.output
        key = listing.output.split()[0]
        removed = invoke(runner, "--store", store, "store", "rm", key)
        assert removed.exit_code == 0
        assert f"removed {key}" in removed.output
        assert invoke(runner, "--store", store, "store", "ls").output == ""

    def test_store_env_var(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("DLA_STORE", str(tmp_path / "envstore"))
        lineage, interp = bundle_paths("cityscapes")
        result = invoke(runner, "assess", lineage, interp)
        assert result.exit_code == 3
        blobs = list((tmp_path / "envstore").glob("*.json"))
        assert [blob.stem for blob in blobs] == [analysis_key(load_bundle("cityscapes")[0].root)]

    def test_store_commands_require_a_store(self, runner):
        result = invoke(runner, "store", "ls")
        assert result.exit_code == 64

    @pytest.mark.parametrize("args", [["store", "ls"], ["store", "rm", "0" * 64]], ids=["ls", "rm"])
    def test_store_commands_on_a_missing_store_create_nothing(self, runner, tmp_path, args):
        store = tmp_path / "missing" / "store"
        result = invoke(runner, "--store", store, *args)
        assert result.exit_code == 0
        assert result.stdout == ("" if args[1] == "ls" else f"no entry for {args[2]}\n")
        assert list(tmp_path.iterdir()) == []

    def test_store_that_cannot_be_created_exits_64_before_any_output(self, runner, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        store = tmp_path / "file" / "store"
        lineage, interp = bundle_paths("cityscapes")
        result = runner.invoke(cli, ["--store", str(store), "assess", str(lineage), str(interp)])
        assert (result.exit_code, result.stdout) == (64, "")
        assert result.stderr == f"error: cannot create store {store}: Not a directory\n"

    def test_store_that_is_a_regular_file_exits_64(self, runner, tmp_path):
        store = tmp_path / "store"
        store.write_text("", encoding="utf-8")
        lineage, interp = bundle_paths("cityscapes")
        for args in (["assess", lineage, interp], ["store", "rm", "0" * 64], ["store", "ls"]):
            result = runner.invoke(cli, ["--store", str(store)] + [str(a) for a in args])
            assert result.exit_code == 64, (args, repr(result.exception))
            assert result.stderr == f"error: store {store} is not a directory\n"

    def test_cached_second_run_prints_notice(self, runner, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        invoke(runner, "--store", store, "assess", lineage, interp)
        second = runner.invoke(
            cli, ["--store", str(store), "assess", str(lineage), str(interp)]
        )
        assert "(cached analysis)" in second.output

    def test_unreadable_blob_exits_64_and_rm_prunes_it(self, runner, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        invoke(runner, "--store", store, "assess", lineage, interp)
        (blob,) = store.glob("*.json")
        blob.write_text("{not json", encoding="utf-8")
        for args in (["assess", lineage, interp], ["store", "ls"]):
            result = runner.invoke(cli, ["--store", str(store)] + [str(a) for a in args])
            assert result.exit_code == 64, (args, result.output)
            assert result.stderr.startswith(f"error: store entry '{blob.stem}' is corrupt")
        removed = invoke(runner, "--store", store, "store", "rm", blob.stem)
        assert removed.exit_code == 0
        assert not blob.exists()

    def test_blob_without_verified_license_exits_64(self, runner, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        invoke(runner, "--store", store, "assess", lineage, interp)
        (blob,) = store.glob("*.json")
        doc = json.loads(blob.read_text(encoding="utf-8"))
        del doc["verified_license"]
        blob.write_text(canonical_json(doc), encoding="utf-8")
        result = runner.invoke(cli, ["--store", str(store), "assess", str(lineage), str(interp)])
        assert result.exit_code == 64, result.output
        assert result.stderr.startswith(f"error: store entry '{blob.stem}' is corrupt")

    def test_rm_of_a_path_like_key_touches_nothing(self, runner, tmp_path):
        victim = tmp_path / "victim.json"
        victim.write_text("{}", encoding="utf-8")
        result = invoke(runner, "--store", tmp_path / "store", "store", "rm", "../victim")
        assert result.exit_code == 0
        assert result.output == "no entry for ../victim\n"
        assert victim.read_text(encoding="utf-8") == "{}"

    def test_audit_timestamps_stamp_a_cached_analysis(self, runner, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        args = ["--store", store, "--format", "json", "assess", "--no-gate", lineage, interp]

        def generated_at(result):
            return json.loads(result.stdout)["verified_license"]["audit"]["generated_at"]

        first = invoke(runner, *args)
        assert generated_at(first) is None
        second = invoke(runner, *args, "--audit-timestamps")
        assert "(cached analysis)" in second.stderr
        assert generated_at(second) is not None
        third = invoke(runner, *args)
        assert "(cached analysis)" in third.stderr
        assert generated_at(third) is None
        for blob in store.glob("*.json"):
            doc = json.loads(blob.read_text(encoding="utf-8"))
            assert doc["verified_license"]["audit"]["generated_at"] is None
