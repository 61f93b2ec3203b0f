"""Command-line interface: exit-code contract, report content, determinism."""

from __future__ import annotations

import errno
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dla import (
    Bundle, EnginePolicy, analysis_key, assess_all, default_scenarios, load_catalog,
    lookup_or_verify,
)
from dla.assessment import render_markdown
import dla.cli as dla_cli
from dla.errors import InputError, LineageError, SchemaViolation, UnknownFieldWarning
from dla.jsonio import read_json
from dla.lineage import (
    CaptureInput,
    LineageGraph,
    build_lineage,
    compute_license_range,
    decode_root,
    select_capture,
)
from dla.model import CaptureStatus, SubjectKind, canonical_json, replace
from dla.resources import scenarios_path, templates_dir

from helpers import (
    BUNDLE_NAMES,
    FIXTURES_DIR,
    bundle_paths,
    child_env,
    copy_bundle,
    edit_file,
    load_bundle,
    record_for,
    run_cli,
    run_dla,
    website_chain,
    write_synthetic_bundle,
)


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def wide_seed_7(wide_seed_7_bundle):
    """The bench's ``oracle`` module and its 5 000-node ``wide`` bundle, seed 7,
    which the session writes once (``conftest.py``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        oracle = importlib.import_module("oracle")
    return oracle, wide_seed_7_bundle


class TestValidate:
    def test_all_fixture_bundles_validate_cleanly(self):
        paths = []
        for name in BUNDLE_NAMES:
            lineage, interp_dir = bundle_paths(name)
            paths.append(lineage)
            paths.extend(sorted(interp_dir.glob("*.json")))
            paths.extend(sorted((lineage.parent / "captures").glob("*.json")))
        result = run_cli("validate", *paths)
        assert result.exit_code == 0, result.output
        assert "problem" not in result.output

    def test_truncated_json_exits_64_naming_the_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"records": [')
        result = run_cli("validate", bad)
        assert result.exit_code == 64
        assert "broken.json" in result.output

    def test_missing_file_exits_64(self, tmp_path):
        result = run_cli("validate", tmp_path / "nope.json")
        assert result.exit_code == 64

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_later_file_exits_64_before_any_line(self, tmp_path, kind):
        lineage, _ = bundle_paths("cifar-10")
        bad = tmp_path / "bad.json"
        if kind == "directory":
            bad.mkdir()
        result = run_cli("validate", lineage, bad)
        assert result.exit_code == 64
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {bad}: cannot read file")

    def test_vector_missing_fixed_right_exits_1(self, tmp_path):
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
        result = run_cli("validate", path)
        assert result.exit_code == 1
        assert "ModelReverseEngineer" in result.output

    def test_unrecognized_document_shape_is_a_problem(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"name": "x"}))
        result = run_cli("validate", path)
        assert result.exit_code == 1
        assert result.stdout == f"{path}: 1 problem(s)\n  - unrecognized document shape\n"

    def test_provenance_violation_reported(self, tmp_path):
        record = record_for("x").to_dict()
        record["origin_year"] = None  # dataset without an origin year
        path = tmp_path / "prov.json"
        path.write_text(json.dumps(record))
        result = run_cli("validate", path)
        assert result.exit_code == 1
        assert "origin_year" in result.output

    def test_lenient_mode_downgrades_unknown_fields(self, tmp_path):
        record = record_for("x").to_dict()
        record["surprise"] = 1
        path = tmp_path / "prov.json"
        path.write_text(json.dumps(record))
        strict = run_cli("validate", str(path))
        assert strict.exit_code == 1
        assert "unknown fields" in strict.output
        with pytest.warns(UserWarning, match="surprise"):
            lenient = run_cli("--lenient", "validate", str(path))
        assert lenient.exit_code == 0

    def test_the_shipped_templates_and_scenarios_validate(self):
        paths = [scenarios_path(), *sorted(templates_dir().glob("*.json"))]
        result = run_cli("validate", *paths)
        assert (result.exit_code, result.stdout) == (0, "".join(f"{path}: ok\n" for path in paths))

    @pytest.mark.parametrize("kind", ["template", "scenarios"])
    def test_a_bad_template_or_scenario_list_is_named_as_its_loader_names_it(self, tmp_path, kind):
        """A template whose fixed right is unspecified, as ``load_catalog``
        reports it; a scenario list with a null right, as ``--scenarios`` does."""
        shipped = templates_dir() / "cc-by-4.0.json" if kind == "template" else scenarios_path()
        path = tmp_path / shipped.name
        path.write_bytes(shipped.read_bytes())
        if kind == "template":
            edit_file(path, ("vector", "model_rights", "Benchmark", "grant"), "unspecified")
            with pytest.raises(SchemaViolation) as raised:
                load_catalog(tmp_path)
            expected = str(raised.value)
        else:
            edit_file(path, (0, "required_rights", 0), None)
            assessed = run_cli("assess", "--scenarios", path, *bundle_paths("cifar-10"))
            assert (assessed.exit_code, assessed.stdout) == (1, "")
            expected = assessed.stderr.removeprefix("error: ").removesuffix("\n")
        result = run_cli("validate", path)
        assert (result.exit_code, result.stdout) == (1, f"{path}: 1 problem(s)\n  - {expected}\n")

    @pytest.mark.parametrize("body", ["template", "vector", "unavailable"])
    def test_an_interpretation_without_subject_id_names_the_field(self, tmp_path, body):
        _, interpretations, _ = copy_bundle("ffhq", tmp_path)
        path = interpretations / "ffhq.json"
        edit_file(path, ("subject_id",))
        if body != "template":
            edit_file(path, ("template",), key=body)
        result = run_cli("validate", path)
        assert result.exit_code == 1
        assert result.stdout == (
            f"{path}: 1 problem(s)\n  - {path}: missing required fields: ['subject_id']\n")


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


def json_texts() -> st.SearchStrategy[str]:
    """JSON arrays and objects of strings with random escapes, \\u ones among
    them, lone surrogates too; some escapes are invalid."""
    escapes = st.one_of(
        st.sampled_from(["\\n", '\\"', "\\\\", "\\/", "\\t", "\\u", "\\x"]),
        st.integers(0, 0xFFFF).map(lambda c: f"\\u{c:04x}"),
        st.integers(0xD800, 0xDFFF).map(lambda c: f"\\u{c:04X}"),
    )
    plain = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='"\\'), max_size=3)
    strings = st.lists(st.one_of(escapes, plain), max_size=6).map(lambda parts: '"' + "".join(parts) + '"')
    return st.one_of(
        st.lists(strings, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
        st.lists(st.tuples(strings, strings), max_size=3).map(
            lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"),
    )


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
        self, tmp_path, monkeypatch, kind, fault
    ):
        monkeypatch.chdir(copy_bundle("cifar-10", tmp_path).lineage.parent)
        target, args = INPUT_KINDS[kind]
        break_file(Path(target), fault)
        result = run_cli(*args)
        assert result.exit_code == 64, result.stderr
        assert result.stderr.startswith(f"error: {target}: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000 + "]" * 200_000,
            '{"records": ' + "[" * 200_000 + "]" * 200_000 + ', "edges": [], "root_id": "x"}',
        ],
        ids=["brackets", "records"],
    )
    @pytest.mark.parametrize("command", ["lineage", "validate"])
    def test_json_nested_past_the_parser_exits_64(self, tmp_path, command, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        result = run_cli(command, str(path))
        assert result.exit_code == 64, result.stderr
        message = "invalid JSON: nested deeper than the parser allows"
        assert result.stderr == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("token", ["9" * 5000, '"\\ud800"', '"\\n\\ud800"', '"\\\\\\ud800"'],
                             ids=["long-integer", "lone-surrogate", "lone-surrogate-after-newline",
                                  "lone-surrogate-after-backslash"])
    @pytest.mark.parametrize(
        "target, string",
        [("lineage.json", '"CIFAR-10"'), ("interpretations/cifar-10.json", '"Cite paper"')],
        ids=["lineage", "interpretation"],
    )
    def test_json_that_dla_cannot_hold_or_write_exits_64_naming_it(
        self, tmp_path, monkeypatch, target, string, token
    ):
        """An integer past Python's digit limit for int(), or a string with an
        unpaired surrogate, which no UTF-8 output can hold, in the place of a
        string that the report or the store entry prints."""
        monkeypatch.chdir(copy_bundle("cifar-10", tmp_path).lineage.parent)
        path = Path(target)
        text = path.read_text(encoding="utf-8")
        assert string in text
        path.write_text(text.replace(string, token), encoding="utf-8")
        result = run_cli("--store", "store", "--format", "json", "verify",
                         "lineage.json", "interpretations")
        assert (result.exit_code, result.stdout) == (64, ""), result.stderr
        assert result.stderr.startswith(f"error: {target}: invalid JSON: ")
        assert "Traceback" not in result.stderr
        assert "set_int_max_str_digits" not in result.stderr  # a call a CLI user cannot make
        if token.isdigit():
            limit = sys.get_int_max_str_digits()
            assert result.stderr.endswith(f"invalid JSON: an integer longer than {limit} digits\n")
        assert not Path("store").exists()

    @pytest.mark.parametrize("token, text", [
        ('"\\ud83d\\ude00"', "\U0001F600"),
        ('"a\\nb \\"c\\" d\\\\e"', 'a\nb "c" d\\e'),
    ], ids=["paired-surrogates", "no-u-escape"])
    def test_json_escapes_that_dla_can_write_parse(self, tmp_path, monkeypatch, token, text):
        """A surrogate pair, or escapes none of which is a \\u, in the place of
        a string that the report prints: the report prints the string."""
        monkeypatch.chdir(copy_bundle("cifar-10", tmp_path).lineage.parent)
        path = Path("interpretations/cifar-10.json")
        path.write_text(path.read_text(encoding="utf-8").replace('"Cite paper"', token), encoding="utf-8")
        result = run_cli("--format", "json", "verify", "lineage.json", "interpretations")
        assert (result.exit_code, result.stderr) == (0, "")
        assert "Cite paper" not in result.stdout
        assert json.dumps(text, ensure_ascii=False) in result.stdout

    @settings(max_examples=300, deadline=None)
    @given(json_texts())
    def test_the_surrogate_guard_decides_as_a_search_for_every_u_escape(self, text):
        """``read_json`` returns the document, or raises for the same cause, as
        when every text that holds a \\u escape was written out again."""

        def outcome(read):
            try:
                return "document", read()
            except InputError as exc:
                return "raised", type(exc.__cause__)
            except ValueError as exc:
                return "raised", type(exc)

        def read_every_u_escape():
            doc = json.loads(text)
            if "\\u" in text:
                json.dumps(doc, ensure_ascii=False).encode("utf-8")
            return doc

        raw = text.encode("utf-8")
        assert outcome(lambda: read_json("doc.json", raw)) == outcome(read_every_u_escape)

    @pytest.mark.parametrize("call", ["listdir", "open"])
    @pytest.mark.parametrize("kind", ["interpretations", "captures", "templates"])
    def test_unlistable_input_directory_exits_64_naming_it(
        self, tmp_path, monkeypatch, kind, call
    ):
        monkeypatch.chdir(copy_bundle("cifar-10", tmp_path).lineage.parent)
        target = str(templates_dir()) if kind == "templates" else kind
        real = getattr(os, call)

        def refuse(path, *args, **kwargs):
            if os.fspath(path) == target and "dir_fd" not in kwargs:
                raise PermissionError(13, "Permission denied", path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, call, refuse)
        command = (["range", "lineage.json", "--captures", "captures"] if kind == "captures"
                   else ["assess", "lineage.json", "interpretations"])
        result = run_cli(*command)
        assert (result.exit_code, result.stdout) == (64, ""), result.stderr
        assert result.stderr == f"error: {target}: cannot list directory: Permission denied\n"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root reads a directory whatever its mode")
    def test_input_directory_without_permissions_exits_64(self, tmp_path, monkeypatch):
        monkeypatch.chdir(copy_bundle("cifar-10", tmp_path).lineage.parent)
        Path("interpretations").chmod(0)
        try:
            result = run_cli("assess", "lineage.json", "interpretations")
        finally:
            Path("interpretations").chmod(0o755)
        assert (result.exit_code, result.stdout) == (64, ""), result.stderr
        message = "error: interpretations: cannot list directory: Permission denied\n"
        assert result.stderr == message


# A capture list's faults: its text, the exit code and the error it ends in.
BAD_CAPTURE_LISTS = {
    "truncated": ("[", 64, "invalid JSON"),
    "not-an-array": ("{}", 1, "expected array of captures, got dict"),
}


class TestRange:
    def test_cifar_ranges(self):
        lineage, _ = bundle_paths("cifar-10")
        result = run_cli("range", lineage)
        assert result.exit_code == 0
        assert "cifar-10: 2008-2009" in result.output
        assert "80-million-tiny-images: 2005-2006" in result.output
        for source in ("google", "flickr", "ask", "altavista", "picsearch", "webshots", "cydral"):
            assert f"{source}: 2005-2006" in result.output

    def test_single_node_2015(self, tmp_path):
        record = record_for("solo").to_dict()
        record["origin_year"] = 2015
        lineage = tmp_path / "lineage.json"
        lineage.write_text(
            json.dumps({"records": [record], "edges": [], "root_id": "solo"})
        )
        result = run_cli("range", lineage)
        assert result.exit_code == 0
        assert "solo: 2014-2015" in result.output

    def test_seed_7_wide_range_matches_the_oracle_and_its_recorded_hash(self, wide_seed_7):
        """``range --captures`` on the bench's 5 000-node ``wide`` bundle, seed 7,
        run by a fresh ``python -m dla``: exit 0, the lines of
        ``bench/oracle.py``, and stdout as first recorded."""
        oracle, bundle = wide_seed_7
        args = ["range", bundle.lineage, "--captures", bundle.captures]
        run = run_dla(*args)
        assert (run.returncode, run.stderr) == (0, b"")
        expected = oracle.expected_for(bundle, templates_dir())
        assert oracle.check_range(bundle, expected, run.stdout.decode()) is None
        assert hashlib.sha256(run.stdout).hexdigest() == (
            "9c4eb86d0a7db9e8c54b8c356ed8bbf594911b18968327b43048cd4a53ffd9f3"
        )

    def test_cyclic_lineage_exits_2(self, tmp_path):
        records = [record_for("a").to_dict(), record_for("b").to_dict()]
        lineage = tmp_path / "lineage.json"
        lineage.write_text(
            json.dumps({"records": records, "edges": [["a", "b"], ["b", "a"]], "root_id": "a"})
        )
        result = run_cli("range", lineage)
        assert result.exit_code == 2
        assert "cycle" in result.output

    def test_capture_statuses_shown(self):
        lineage, _ = bundle_paths("cifar-10")
        captures = lineage.parent / "captures"
        result = run_cli("range", lineage, "--captures", captures)
        assert result.exit_code == 0
        assert "google: 2005-2006 capture: 2005 (in_range)" in result.output
        assert "ask: 2005-2006 capture: 2007 (out_of_range_fallback)" in result.output
        assert "cydral: 2005-2006 capture: (unavailable)" in result.output

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_captures_that_is_not_a_directory_exits_64(self, tmp_path, kind):
        lineage, _ = bundle_paths("cifar-10")
        captures = tmp_path / "captures"
        if kind == "file":
            captures.write_text("[]")
        result = run_cli("range", lineage, "--captures", captures)
        assert result.exit_code == 64
        assert result.stdout == ""
        assert result.stderr == f"error: {captures}: not a directory\n"

    def test_node_id_naming_a_path_outside_the_captures_reads_nothing(self, tmp_path):
        lineage, _, captures = copy_bundle("cifar-10", tmp_path)
        lineage.write_text(lineage.read_text().replace('"flickr"', '"../outside"'))
        shutil.move(captures / "flickr.json", captures.parent / "outside.json")
        result = run_cli("range", lineage, "--captures", captures)
        assert result.exit_code == 0
        assert "../outside: 2005-2006 capture: (unavailable)" in result.stdout.splitlines()

    @pytest.mark.parametrize("where", ["absolute", "cwd"])
    def test_capture_list_of_no_node_exits_1_naming_the_first_in_name_order(
        self, tmp_path, monkeypatch, where
    ):
        """As a stray interpretation file does; no line is printed."""
        lineage, _, captures = copy_bundle("cifar-10", tmp_path)
        for name in ("zz-nonode.json", "nonode.json"):
            (captures / name).write_text("[]")
        if where == "cwd":
            monkeypatch.chdir(captures)
        result = run_cli("range", lineage, "--captures", "." if where == "cwd" else captures)
        assert (result.exit_code, result.stdout) == (1, "")
        named = "nonode.json" if where == "cwd" else captures / "nonode.json"
        assert result.stderr == f"error: {named}: 'nonode' names no lineage node\n"

    def test_unreadable_capture_list_of_no_node_exits_64(self, tmp_path):
        lineage, _, captures = copy_bundle("cifar-10", tmp_path)
        (captures / "stray.json").symlink_to("absent.json")
        result = run_cli("range", lineage, "--captures", captures)
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
        self, tmp_path, monkeypatch, where, fault
    ):
        """The file is named as ``str(captures / name)`` names it, for an
        absolute, a relative and a dotted captures directory, and for ``.``
        run inside it."""
        text, code, error = BAD_CAPTURE_LISTS[fault]
        lineage, _, copied = copy_bundle("cifar-10", tmp_path)
        (copied / "google.json").write_text(text)
        captures = {
            "absolute": copied,
            "relative": Path("captures"),
            "dotted": Path("./captures/"),
            "cwd": Path("."),
        }[where]
        monkeypatch.chdir(copied if where == "cwd" else copied.parent)
        result = run_cli("range", lineage, "--captures", captures)
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {captures / 'google.json'}: {error}")

    def test_deep_website_chain_inherits_the_root_range(self, tmp_path):
        lineage = tmp_path / "lineage.json"
        ids = write_chain_lineage(lineage, "root", 5000)
        result = run_cli("range", lineage)
        assert result.exit_code == 0
        assert result.stdout.splitlines() == [f"{node_id}: 2009-2010" for node_id in ids]

    def test_per_node_errors_inline(self, tmp_path):
        record = record_for("solo").to_dict()
        record["origin_year"] = None
        lineage = tmp_path / "lineage.json"
        lineage.write_text(json.dumps({"records": [record], "edges": [], "root_id": "solo"}))
        result = run_cli("range", lineage)
        assert result.exit_code == 0
        assert "solo: error:" in result.output

    def test_captures_report_matches_the_library_line_by_line(self, tmp_path):
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
            chosen, status = select_capture(offered, node_range)
            statuses.add(status)
            year = "" if chosen is None else f"{chosen.year} "
            lines.append(f"{node_id}: {node_range.start_year}-{node_range.end_year}"
                         f" capture: {year}({status.value})")
        assert outcomes == {"range", "MissingOriginYear", "AmbiguousRange", "NoDatasetAncestor"}
        assert statuses == set(CaptureStatus)
        assert len(captures) < len(graph.nodes)  # some nodes have no capture file
        result = run_cli("range", lineage, "--captures", captures_dir)
        assert result.exit_code == 0
        assert result.stdout == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name", [*BUNDLE_NAMES, "wide"])
    def test_captures_report_matches_the_bench_oracle(self, tmp_path, monkeypatch, name):
        """``bench/oracle.py`` derives the report from the bundle files alone,
        without ``dla``; an ``<id>: error:`` line of it is a prefix."""
        monkeypatch.syspath_prepend(str(BENCH))
        oracle, workloads = (importlib.import_module(m) for m in ("oracle", "workloads"))
        if name == "wide":
            (bundle,) = workloads.make_bundles("wide", 7, tmp_path, FIXTURES_DIR, nodes=300)
        else:
            bundle = workloads.Bundle(name, FIXTURES_DIR / name)
        result = run_cli("range", bundle.lineage, "--captures", bundle.captures)
        expected = list(oracle.expected_range(bundle))
        lines = result.stdout.splitlines()
        assert (result.exit_code, len(lines)) == (0, len(expected))
        assert [
            want if want.endswith(": error:") and got.startswith(want + " ") else got
            for got, want in zip(lines, expected)
        ] == expected
        if name == "wide":
            assert all(f"({status.value})" in result.stdout for status in CaptureStatus)


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
    def test_non_string_edge_endpoint_exits_1(self, tmp_path, endpoint):
        path = copy_bundle("imagenet", tmp_path).lineage
        edit_file(path, ("edges", 0), [endpoint, "google-images"])
        result = run_cli("lineage", str(path))
        assert result.exit_code == 1, result.stderr
        got = type(endpoint).__name__
        assert result.stderr == f"error: {path}.edges[0][0]: expected string, got {got}\n"

    def test_repeated_record_exits_1_naming_the_file_and_the_later_record(self, tmp_path):
        lineage, _ = bundle_paths("cifar-10")
        doc = json.loads(lineage.read_text(encoding="utf-8"))
        doc["records"].insert(2, doc["records"][0])
        path = tmp_path / "lineage.json"
        path.write_text(json.dumps(doc))
        result = run_cli("lineage", str(path))
        assert (result.exit_code, result.stdout) == (1, "")
        subject = doc["records"][0]["subject_id"]
        assert result.stderr == f"error: {path}.records[2]: duplicate subject_id {subject!r}\n"

    def test_root_naming_no_record_exits_2_naming_the_root(self, tmp_path):
        path = copy_bundle("cifar-10", tmp_path).lineage
        edit_file(path, ("root_id",), "ghost")
        result = run_cli("lineage", str(path))
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: root_id references unknown subject: 'ghost'\n"

    @pytest.mark.parametrize("nested", [False, True], ids=["top-level", "record"])
    def test_lenient_unknown_field_warns_in_one_line(self, tmp_path, nested):
        """Run as a process: a warning raised in a test is recorded, not shown."""
        lineage, _ = bundle_paths("cifar-10")
        path = copy_bundle("cifar-10", tmp_path).lineage
        edit_file(path, ("records", 0, "zz_unknown") if nested else ("zz_unknown",), 1)

        def run(target: Path) -> subprocess.CompletedProcess:
            return run_dla("--lenient", "lineage", target, python=("-W", "default"), text=True,
                           check=True)

        where = f"{path}.records[0]" if nested else str(path)
        result = run(path)
        assert result.stderr == f"warning: {where}: ignoring unknown fields ['zz_unknown']\n"
        assert result.stdout == run(lineage).stdout

    def test_markdown_listing(self):
        lineage, _ = bundle_paths("cifar-10")
        result = run_cli("lineage", lineage)
        assert result.exit_code == 0
        assert "root: cifar-10" in result.output
        assert "cifar-10 -> 80-million-tiny-images" in result.output

    def test_json_round_trips_canonically(self):
        lineage, _ = bundle_paths("cifar-10")
        result = run_cli("--format", "json", "lineage", lineage)
        assert result.exit_code == 0
        assert result.output == canonical_json(json.loads(result.output))

    def test_seed_7_wide_json_lineage_keeps_its_recorded_hash(self, wide_seed_7):
        """The bench's 5 000-node ``wide`` bundle, seed 7, listed as JSON by a
        fresh ``python -m dla``: each record is written well past ``_HOT``
        encodes, and stdout is as first recorded, when a compiled encoder
        wrote it."""
        _, bundle = wide_seed_7
        run = run_dla("--format", "json", "lineage", bundle.lineage)
        assert (run.returncode, run.stderr) == (0, b"")
        assert hashlib.sha256(run.stdout).hexdigest() == (
            "5bab515101d04b3b865b405619700f28deed2a928605d964647704385c7e53fa"
        )


    def test_deep_chain_lists_every_node(self, tmp_path):
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
        result = run_cli("lineage", lineage)
        assert result.exit_code == 0
        assert f"{ids[-2]} -> {ids[-1]}" in result.output

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_markdown_lists_every_fixture_node_and_edge(self, name):
        lineage, _ = bundle_paths(name)
        result = run_cli("lineage", lineage)
        assert result.exit_code == 0
        assert result.stdout == lineage_markdown(load_bundle(name)[0])

    def test_markdown_lists_a_generated_graph(self, tmp_path):
        graph, _ = mixed_lineage(random.Random(42), 300)
        result = run_cli("lineage", write_lineage(tmp_path / "lineage.json", graph))
        assert result.exit_code == 0
        assert result.stdout == lineage_markdown(graph)


class TestWarningFormat:
    """A package warning is one `warning:` line, during a command only."""

    def test_other_warnings_format_as_python_formats_them(self, monkeypatch):
        python_format = warnings.formatwarning
        where = ("f.py", 3, "    x = 1")
        formatted = []
        load_graph = dla_cli._load_graph

        def warn_then_load(path: Path, strict: bool) -> LineageGraph:
            formatted.append(warnings.formatwarning("m", UserWarning, *where))
            formatted.append(warnings.formatwarning("m", UnknownFieldWarning, *where))
            return load_graph(path, strict)

        monkeypatch.setattr(dla_cli, "_load_graph", warn_then_load)
        assert run_cli("lineage", bundle_paths("cifar-10")[0]).exit_code == 0
        assert formatted == [python_format("m", UserWarning, *where), "warning: m\n"]

    @pytest.mark.parametrize("exit_code", [0, 64], ids=["ok", "error"])
    def test_python_format_is_restored_after_the_command(self, tmp_path, exit_code):
        python_format = warnings.formatwarning
        lineage = bundle_paths("cifar-10")[0] if exit_code == 0 else tmp_path / "missing.json"
        assert run_cli("lineage", str(lineage)).exit_code == exit_code
        assert warnings.formatwarning is python_format


class TestAssess:
    def test_cifar_denied_exit_3(self):
        lineage, interp = bundle_paths("cifar-10")
        result = run_cli("assess", lineage, interp)
        assert result.exit_code == 3
        assert "| CIFAR-10 | No | No | No |" in result.output

    def test_ffhq_row(self):
        lineage, interp = bundle_paths("ffhq")
        result = run_cli("assess", lineage, interp)
        assert result.exit_code == 3
        assert "| FFHQ | Yes(C+D) | No | No |" in result.output

    def test_synthetic_permissive_exits_0(self, tmp_path):
        lineage, interp = write_synthetic_bundle(tmp_path)
        result = run_cli("assess", lineage, interp)
        assert result.exit_code == 0
        assert "| synthetic | Yes | Yes | Yes |" in result.output

    def test_seed_7_wide_assess_matches_the_oracle_and_its_recorded_hash(self, wide_seed_7):
        """The bench's 5 000-node ``wide`` bundle, seed 7, assessed by a fresh
        ``python -m dla``: exit 3, the answer of ``bench/oracle.py``, and
        stdout as first recorded once the audit's engine version and inputs
        digest, which any engine version bump moves, are blanked."""
        oracle, bundle = wide_seed_7
        args = ["--format", "json", "assess", bundle.lineage, bundle.interpretations]
        run = run_dla(*args)
        assert (run.returncode, run.stderr) == (3, b"")
        expected = oracle.expected_for(bundle, templates_dir())
        assert oracle.check_assess(bundle, expected, run.stdout.decode()) is None
        stdout, audit = run.stdout, json.loads(run.stdout)["verified_license"]["audit"]
        for field in ("engine_version", "inputs_digest"):
            value = f'"{field}": "{audit[field]}"'.encode()
            assert stdout.count(value) == 1
            stdout = stdout.replace(value, f'"{field}": ""'.encode())
        assert hashlib.sha256(stdout).hexdigest() == (
            "cc7752bafd2c8464e7aee78f10e844ccfe1be216dc789c80e91f4f4179b0a402"
        )

    def test_deep_website_chain_denied_by_its_last_source_exits_3(self, tmp_path):
        _, interp = write_synthetic_bundle(tmp_path)
        ids = write_chain_lineage(tmp_path / "lineage.json", "synthetic", 5000)
        files = {
            f"{node_id}.json": b'{"subject_id": "%s", "template": "%s"}' % (
                node_id.encode(), b"CC-BY-NC-4.0" if node_id == ids[-1] else b"CC-BY-4.0")
            for node_id in ids[1:]
        }
        for name, body in files.items():  # one open and one write per file
            fd = os.open(interp / name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                os.write(fd, body)
            finally:
                os.close(fd)
        result = run_cli("--format", "json", "assess", tmp_path / "lineage.json", interp)
        assert result.exit_code == 3
        restrictors = json.loads(result.stdout)["verified_license"]["restrictors"]
        assert {tuple(sources) for sources in restrictors.values() if sources} == {(ids[-1],)}

    def test_no_gate_downgrades_exit(self):
        lineage, interp = bundle_paths("cifar-10")
        result = run_cli("assess", lineage, interp, "--no-gate")
        assert result.exit_code == 0

    def test_json_output_byte_identical_across_runs(self):
        lineage, interp = bundle_paths("vggface2")
        first = run_cli("--format", "json", "assess", lineage, interp)
        second = run_cli("--format", "json", "assess", lineage, interp)
        assert first.exit_code == second.exit_code == 3
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["assessment"]["rows"][0]["obligations"] == ["A", "E", "D"]
        assert doc["verified_license"]["audit"]["generated_at"] is None

    def test_unknown_denies_flag_changes_result(self):
        lineage, interp = bundle_paths("ffhq")
        default = run_cli("assess", lineage, interp)
        strict = run_cli("--unknown-denies", "assess", lineage, interp)
        assert "| FFHQ | Yes(C+D) | No | No |" in default.output
        assert "| FFHQ | No | No | No |" in strict.output

    def test_custom_scenarios_file(self, tmp_path):
        lineage, interp = bundle_paths("cifar-10")
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text('[{"id": "TRAIN", "required_rights": ["Research"]}]')
        result = run_cli("assess", lineage, interp, "--scenarios", scenarios)
        assert result.exit_code == 0
        assert "| CIFAR-10 | Yes(cite-cifar10) |" in result.output

    def test_scenarios_file_holding_an_object_exits_1(self, tmp_path):
        lineage, interp = bundle_paths("cifar-10")
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text('{"id": "TRAIN", "required_rights": ["Research"]}')
        result = run_cli("assess", str(lineage), str(interp), "--scenarios", str(scenarios))
        assert (result.exit_code, result.stdout) == (1, ""), result.stderr
        assert result.stderr == f"error: {scenarios}: expected an array of scenarios\n"

    @pytest.mark.parametrize("before, after", [([], []), (["--lenient"], []), ([], ["--no-gate"])])
    def test_empty_scenarios_file_exits_1(self, tmp_path, before, after):
        """A table of no scenario checks nothing, so a gate built on it would pass."""
        lineage, interp = bundle_paths("cifar-10")
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text("[]")
        result = run_cli(*before, "assess", lineage, interp, "--scenarios", scenarios, *after)
        assert (result.exit_code, result.stdout) == (1, ""), result.stderr
        assert result.stderr == f"error: {scenarios}: expected a nonempty array of scenarios\n"

    def test_lenient_mode_warns_about_unknown_scenario_fields(self, tmp_path):
        lineage, interp = bundle_paths("cifar-10")
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text('[{"id": "DD", "required_rights": ["Distribute"], "note": "x"}]')
        with pytest.warns(UserWarning, match="note"):
            result = run_cli("--lenient", "assess", lineage, interp, "--scenarios", scenarios)
        assert result.exit_code == 3
        assert "| CIFAR-10 | No |" in result.stdout

    def test_missing_interpretations_dir_exits_64(self, tmp_path):
        lineage, _ = bundle_paths("cifar-10")
        result = run_cli("assess", lineage, tmp_path / "nope")
        assert result.exit_code == 64

    def test_uninterpreted_node_exits_1(self, tmp_path):
        lineage, interp = bundle_paths("cifar-10")
        partial = tmp_path / "interpretations"
        partial.mkdir()
        source = interp / "cifar-10.json"
        (partial / "cifar-10.json").write_text(source.read_text())
        result = run_cli("assess", lineage, partial)
        assert result.exit_code == 1

    def test_interpretation_of_no_lineage_node_exits_1_naming_the_file(self, tmp_path):
        lineage, extra, _ = copy_bundle("cityscapes", tmp_path)
        orphan = extra / "renamed-source.json"
        orphan.write_text(json.dumps({"subject_id": "renamed-source", "unavailable": True}))
        result = run_cli("assess", str(lineage), str(extra))
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {orphan}: subject_id 'renamed-source' names no lineage node\n"
        )

    def test_template_nulling_a_required_metadata_field_exits_1(self, tmp_path):
        lineage, copy, _ = copy_bundle("ffhq", tmp_path)
        target = copy / "ffhq.json"
        assert "template" in json.loads(target.read_text())
        edit_file(target, ("metadata", "licensor"), None)
        result = run_cli("assess", str(lineage), str(copy))
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: {target}.metadata.licensor: a required field cannot be null\n"
        )


class TestVerifyCmd:
    def test_json_document(self):
        lineage, interp = bundle_paths("cifar-10")
        result = run_cli("--format", "json", "verify", lineage, interp)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert set(doc["changed"]) == {
            "Tagging", "Distribute", "Rerepresent", "CommercializeOutput", "CommercializeModel",
        }
        assert doc["residual_risk_flags"] == ["80-million-tiny-images", "cydral"]

    def test_markdown_table(self):
        lineage, interp = bundle_paths("cifar-10")
        result = run_cli("verify", lineage, interp)
        assert result.exit_code == 0
        assert "| Tagging | denied (changed) |" in result.output


class TestUsage:
    """A command line that cannot be parsed exits 64 (``EX_USAGE``), not
    argparse's 2, which is the lineage code: an ``error:`` line naming what
    is wrong and the usage line go to stderr, and nothing to stdout. Only the
    fragment naming the bad token is asserted, since argparse's wording
    differs between Python versions."""

    @pytest.mark.parametrize(
        "args, fragment, usage",
        [(["--bogus", "store", "ls"], "--bogus", "Usage: dla ["),
         (["bogus"], "bogus", "Usage: dla ["),
         (["--form", "json", "lineage", "{lineage}"], "json", "Usage: dla ["),
         (["--form=json", "lineage", "{lineage}"], "--form=json", "Usage: dla ["),
         (["lineage", "{lineage}", "-h"], "-h", "Usage: dla ["),
         (["--format", "xml", "lineage", "{lineage}"], "xml", "Usage: dla ["),
         (["assess", "{lineage}", "{interpretations}", "--format", "json"], "--format",
          "Usage: dla ["),
         (["assess"], "LINEAGE_PATH", "Usage: dla assess ["),
         (["validate"], "PATH", "Usage: dla validate ["),
         (["store", "rm"], "KEY", "Usage: dla store rm ["),
         (["--bogus"], "COMMAND", "Usage: dla ["),
         ([], "COMMAND", "Usage: dla ["),
         (["store"], "COMMAND", "Usage: dla store [")],
        ids=["unknown-option", "unknown-command", "abbreviated-option",
             "abbreviated-option-joined", "short-help", "unknown-format",
             "group-option-after-command", "missing-argument",
             "validate-without-path", "store-rm-without-key", "bare-unknown-option", "no-command",
             "no-store-command"],
    )
    def test_usage_error_exits_64(self, args, fragment, usage):
        lineage, interpretations = bundle_paths("cifar-10")
        args = [arg.format(lineage=lineage, interpretations=interpretations) for arg in args]
        result = run_cli(*args)
        assert (result.exit_code, result.stdout) == (64, "")
        first, *rest = result.stderr.splitlines()
        assert first.startswith("error: ") and fragment in first
        assert rest[0].startswith(usage)

    @pytest.mark.parametrize(
        "args",
        [["--help"], ["validate", "--help"], ["lineage", "--help"], ["range", "--help"],
         ["verify", "--help"], ["assess", "--help"], ["store", "--help"],
         ["store", "ls", "--help"], ["store", "rm", "--help"]],
        ids=["help", "validate", "lineage", "range", "verify", "assess", "store",
             "store-ls", "store-rm"],
    )
    def test_help_exits_0(self, args):
        result = run_cli(*args)
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith(" ".join(["Usage: dla", *args[:-1]]) + " [--help]")

    def test_help_stops_the_parse_where_it_stands(self):
        result = run_cli("assess", "--help", "--bogus")
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith("Usage: dla assess ")

    @pytest.mark.parametrize("args", [["--version"], ["--version", "assess"]],
                             ids=["version", "version-before-command"])
    def test_version_prints_one_line(self, args):
        result = run_cli(*args)
        assert (result.exit_code, result.stdout, result.stderr) == (
            0, f"dla, version {dla_cli.__version__}\n", "")


class TestReportBytes:
    """A report is written byte for byte as rendered: a name holding an ANSI
    escape reaches stdout unchanged, through a pipe and in process alike."""

    def test_ansi_escape_in_a_dataset_name_is_kept(self, tmp_path):
        lineage, interpretations, _ = copy_bundle("cifar-10", tmp_path)
        lineage.write_text(lineage.read_text(encoding="utf-8").replace(
            '"CIFAR-10"', '"CIFAR\\u001b[31m-10"', 1), encoding="utf-8")
        bundle = Bundle.read(lineage, interpretations)
        verified, _ = lookup_or_verify(None, bundle, EnginePolicy(unknown_denies=False))
        table = assess_all(verified, default_scenarios(), dataset_name=bundle.root.dataset_name)
        rendered = render_markdown(table, verified).encode("utf-8")
        assert b"CIFAR\x1b[31m-10" in rendered

        args = ["assess", str(lineage), str(interpretations)]
        piped = run_dla(*args)
        in_process = run_cli(*args)
        assert (piped.returncode, piped.stdout, piped.stderr) == (3, rendered, b"")
        assert (in_process.exit_code, in_process.stdout_bytes, in_process.stderr) == (3, rendered, "")


    def test_reader_that_has_gone_exits_1_without_a_traceback(self):
        """``dla ... | head -c 1`` may close the pipe before the report is
        written: the run exits 1, as it always has, with nothing on stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = run_dla("lineage", bundle_paths("cifar-10")[0], stdout=write_end)
        finally:
            os.close(write_end)
        assert (run.returncode, run.stderr) == (1, b"")


class TestStoreCli:
    def test_assess_with_store_then_ls_and_rm(self, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        first = run_cli("--store", store, "assess", lineage, interp)
        assert first.exit_code == 3
        listing = run_cli("--store", store, "store", "ls")
        assert listing.exit_code == 0
        assert "Cityscapes" in listing.output
        key = listing.output.split()[0]
        removed = run_cli("--store", store, "store", "rm", key)
        assert removed.exit_code == 0
        assert f"removed {key}" in removed.output
        assert run_cli("--store", store, "store", "ls").output == ""

    def test_store_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DLA_STORE", str(tmp_path / "envstore"))
        lineage, interp = bundle_paths("cityscapes")
        result = run_cli("assess", lineage, interp)
        assert result.exit_code == 3
        blobs = list((tmp_path / "envstore").glob("*.json"))
        assert [blob.stem for blob in blobs] == [analysis_key(load_bundle("cityscapes")[0].root)]

    def test_store_commands_require_a_store(self):
        result = run_cli("store", "ls")
        assert result.exit_code == 64

    @pytest.mark.parametrize(
        "options, environment",
        [(["--store", ""], None), ([], ""), (["--store", ""], "envstore")],
        ids=["option", "environment", "option-over-environment"],
    )
    def test_empty_store_value_means_no_store(self, tmp_path, monkeypatch, options, environment):
        """An empty ``--store`` or ``DLA_STORE`` is no store, not the working
        directory; an empty option also turns off the environment's store."""
        monkeypatch.chdir(tmp_path)
        env = {"DLA_STORE": environment}
        lineage, interp = bundle_paths("imagenet")
        first, second = (run_cli(*options, "assess", lineage, interp, env=env) for _ in range(2))
        assert (first.exit_code, second.exit_code) == (3, 3)
        assert "(cached analysis)" not in second.stderr
        assert list(tmp_path.iterdir()) == []
        listing = run_cli(*options, "store", "ls", env=env)
        assert listing.exit_code == 64
        assert "no store configured" in listing.stderr

    @pytest.mark.parametrize("args", [["store", "ls"], ["store", "rm", "0" * 64]], ids=["ls", "rm"])
    def test_store_commands_on_a_missing_store_create_nothing(self, tmp_path, args):
        store = tmp_path / "missing" / "store"
        result = run_cli("--store", store, *args)
        assert result.exit_code == 0
        assert result.stdout == ("" if args[1] == "ls" else f"no entry for {args[2]}\n")
        assert list(tmp_path.iterdir()) == []

    def test_store_that_cannot_be_created_exits_64_before_any_output(self, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        store = tmp_path / "file" / "store"
        lineage, interp = bundle_paths("cityscapes")
        result = run_cli("--store", str(store), "assess", str(lineage), str(interp))
        assert (result.exit_code, result.stdout) == (64, "")
        assert result.stderr == f"error: cannot create store {store}: Not a directory\n"

    @pytest.mark.parametrize("call", ["chmod", "replace"])
    def test_store_entry_that_cannot_be_written_exits_64_leaving_nothing(
        self, tmp_path, monkeypatch, call
    ):
        def fail(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, call, fail)
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        result = run_cli("--store", str(store), "assess", str(lineage), str(interp))
        assert (result.exit_code, result.stdout) == (64, ""), result.stderr
        assert result.stderr == f"error: cannot write to store {store}: No space left on device\n"
        assert list(store.iterdir()) == []

    def test_store_entry_past_the_file_size_limit_exits_64(self, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cifar-10")
        run = run_dla("--store", store, "assess", lineage, interp, text=True,
                      env=child_env(PYTHONDONTWRITEBYTECODE="1"),
                      preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048)))
        assert (run.returncode, run.stdout) == (64, "")
        assert run.stderr == f"error: cannot write to store {store}: File too large\n"
        assert list(store.iterdir()) == []

    def test_store_that_is_a_regular_file_exits_64(self, tmp_path):
        store = tmp_path / "store"
        store.write_text("", encoding="utf-8")
        lineage, interp = bundle_paths("cityscapes")
        for args in (["assess", lineage, interp], ["store", "rm", "0" * 64], ["store", "ls"]):
            result = run_cli("--store", store, *args)
            assert result.exit_code == 64, (args, result.stderr)
            assert result.stderr == f"error: store {store} is not a directory\n"

    @pytest.mark.parametrize(
        "fault",
        [
            lambda doc: doc["records"],
            lambda doc: {**doc, "root_id": [doc["root_id"]]},
            lambda doc: {**doc, "records": {"0": doc["records"][0]}},
            lambda doc: {**doc, "records": [
                {**r, "subject_kind": "planet"} if r["subject_id"] == doc["root_id"] else r
                for r in doc["records"]
            ]},
        ],
        ids=["not-an-object", "root-id-not-a-string", "records-not-an-array", "bad-root-record"],
    )
    def test_lineage_whose_root_cannot_be_decoded_alone_ends_as_without_a_store(
        self, tmp_path, fault
    ):
        lineage, interp = bundle_paths("cifar-10")
        doc = fault(json.loads(lineage.read_text(encoding="utf-8")))
        assert decode_root(doc) is None
        broken = tmp_path / "lineage.json"
        broken.write_text(json.dumps(doc), encoding="utf-8")
        store = tmp_path / "store"
        runs = [run_cli(*options, "assess", str(broken), str(interp))
                for options in ([], ["--store", str(store)])]
        without, with_store = [(r.exit_code, r.stdout, r.stderr) for r in runs]
        assert with_store == without
        assert without[:2] in {(1, ""), (2, "")}
        assert list(store.glob("*.json")) == []

    def test_cached_second_run_prints_notice(self, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        run_cli("--store", store, "assess", lineage, interp)
        second = run_cli("--store", str(store), "assess", str(lineage), str(interp))
        assert "(cached analysis)" in second.output

    def test_unreadable_blob_exits_64_and_rm_prunes_it(self, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        run_cli("--store", store, "assess", lineage, interp)
        (blob,) = store.glob("*.json")
        blob.write_text("{not json", encoding="utf-8")
        for args in (["assess", lineage, interp], ["store", "ls"]):
            result = run_cli("--store", store, *args)
            assert result.exit_code == 64, (args, result.output)
            assert result.stderr.startswith(f"error: store entry '{blob.stem}' is corrupt")
        removed = run_cli("--store", store, "store", "rm", blob.stem)
        assert removed.exit_code == 0
        assert not blob.exists()

    def test_blob_without_verified_license_exits_64(self, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        run_cli("--store", store, "assess", lineage, interp)
        (blob,) = store.glob("*.json")
        edit_file(blob, ("verified_license",))
        result = run_cli("--store", str(store), "assess", str(lineage), str(interp))
        assert result.exit_code == 64, result.output
        assert result.stderr.startswith(f"error: store entry '{blob.stem}' is corrupt")

    def test_rm_of_a_path_like_key_touches_nothing(self, tmp_path):
        victim = tmp_path / "victim.json"
        victim.write_text("{}", encoding="utf-8")
        result = run_cli("--store", tmp_path / "store", "store", "rm", "../victim")
        assert result.exit_code == 0
        assert result.output == "no entry for ../victim\n"
        assert victim.read_text(encoding="utf-8") == "{}"

    def test_rm_of_an_entry_that_is_a_directory_exits_64(self, tmp_path):
        key = "a" * 64
        (tmp_path / "store" / f"{key}.json").mkdir(parents=True)
        result = run_cli("--store", str(tmp_path / "store"), "store", "rm", key)
        assert (result.exit_code, result.stdout) == (64, ""), result.stderr
        assert result.stderr == f"error: cannot remove store entry {key}: Is a directory\n"

    def test_rm_that_is_not_permitted_exits_64(self, tmp_path, monkeypatch):
        def fail(self, missing_ok=False):
            raise PermissionError(errno.EACCES, "Permission denied")

        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        run_cli("--store", store, "assess", lineage, interp)
        (blob,) = store.glob("*.json")
        monkeypatch.setattr(Path, "unlink", fail)
        result = run_cli("--store", str(store), "store", "rm", blob.stem)
        assert (result.exit_code, result.stdout) == (64, ""), result.stderr
        assert result.stderr == f"error: cannot remove store entry {blob.stem}: Permission denied\n"
        assert blob.exists()

    def test_audit_timestamps_stamp_a_cached_analysis(self, tmp_path):
        store = tmp_path / "store"
        lineage, interp = bundle_paths("cityscapes")
        args = ["--store", store, "--format", "json", "assess", "--no-gate", lineage, interp]

        def generated_at(result):
            return json.loads(result.stdout)["verified_license"]["audit"]["generated_at"]

        first = run_cli(*args)
        assert generated_at(first) is None
        second = run_cli(*args, "--audit-timestamps")
        assert "(cached analysis)" in second.stderr
        assert generated_at(second) is not None
        third = run_cli(*args)
        assert "(cached analysis)" in third.stderr
        assert generated_at(third) is None
        for blob in store.glob("*.json"):
            doc = json.loads(blob.read_text(encoding="utf-8"))
            assert doc["verified_license"]["audit"]["generated_at"] is None


class TestRunner:
    """``helpers.run_cli``, which runs ``dla`` in process for these tests: an
    exception that is not the run's exit propagates, the state it swaps is
    put back on every exit, and ``output`` keeps the order of the writes."""

    @staticmethod
    def fail(*args, **kwargs):
        raise RuntimeError("not an exit")

    def test_unexpected_exception_propagates(self, monkeypatch):
        monkeypatch.setattr(dla_cli, "cmd_lineage", self.fail)
        with pytest.raises(RuntimeError, match="not an exit"):
            run_cli("lineage", bundle_paths("cifar-10")[0])

    @pytest.mark.parametrize("outcome", ["report", "error", "exception"])
    def test_streams_warning_format_and_environment_are_put_back(
        self, tmp_path, monkeypatch, outcome
    ):
        monkeypatch.setenv("DLA_STORE", str(tmp_path / "outer"))
        lineage, interp = bundle_paths("cityscapes")
        before = sys.stdout, sys.stderr, warnings.formatwarning, dict(os.environ)
        if outcome == "report":
            inner = tmp_path / "inner"
            result = run_cli("assess", "--no-gate", lineage, interp, env={"DLA_STORE": str(inner)})
            assert result.exit_code == 0 and len(list(inner.glob("*.json"))) == 1
        elif outcome == "error":
            result = run_cli("store", "ls", env={"DLA_STORE": None})
            assert (result.exit_code, result.stderr) == (
                64, "error: no store configured; pass --store or set DLA_STORE\n")
        else:
            monkeypatch.setattr(dla_cli, "cmd_lineage", self.fail)
            with pytest.raises(RuntimeError):
                run_cli("lineage", lineage, env={"DLA_STORE": None})
        assert (sys.stdout, sys.stderr, warnings.formatwarning, dict(os.environ)) == before
        assert not (tmp_path / "outer").exists()

    def test_output_holds_the_hit_notice_before_the_report(self, tmp_path):
        lineage, interp = bundle_paths("cityscapes")
        args = ("--store", tmp_path / "store", "assess", lineage, interp)
        miss, hit = run_cli(*args), run_cli(*args)
        assert hit.output == "(cached analysis)\n" + miss.stdout
        assert hit.stdout == miss.stdout and "(cached analysis)" not in hit.stdout
