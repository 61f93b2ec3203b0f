"""Every line dla prints is a line dla wrote: the plain-text reports
(``lineage``, ``range``, ``validate``, ``store ls`` and ``store rm``), the
markdown reports of ``assess`` and ``verify``, and the ``error:`` and
``warning:`` lines on stderr all go through ``jsonio.text_lines``. A CR or LF
in input text becomes a space there, so no id, name, mapping key or
command-line token can split its line or forge another; other control and
separator characters (U+2028, VT) are kept as given. No other source line
holds a CR."""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dla import AnalysisStore, lookup_or_verify
from dla.model import SubjectKind, canonical_json
from dla.resources import templates_dir

from helpers import (
    BUNDLE_NAMES, FIXTURES_DIR, SRC, at, bundle_paths, copy_bundle, edit_file, locations, read,
    read_bundle, record_for, run_cli, run_dla,
)

# What every line dla writes to stderr starts with.
_PREFIXES = ("error:", "warning:", "(cached analysis)")
# Ids and names made of a few letters and the two line-break characters.
_TEXT = st.text(alphabet="ab \n\r", min_size=1, max_size=6).map(lambda text: "n" + text)


def _lines(stdout: str) -> list[str]:
    """The report's lines; it ends in a line break and holds no CR."""
    assert stdout.endswith("\n") and "\r" not in stdout
    return stdout.split("\n")[:-1]


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(_TEXT, min_size=1, max_size=5, unique=True))
def test_lineage_and_range_print_one_line_per_node(ids):
    root, websites = ids[0], ids[1:]
    records = [record_for(root)] + [record_for(i, SubjectKind.WEBSITE) for i in websites]
    edges = [[root, website] for website in websites]
    with tempfile.TemporaryDirectory() as work:
        lineage, captures = Path(work) / "lineage.json", Path(work) / "captures"
        lineage.write_text(canonical_json(
            {"records": [r.to_dict() for r in records], "edges": edges, "root_id": root}))
        captures.mkdir()
        for node_id in ids:
            (captures / f"{node_id}.json").write_text(
                json.dumps([{"year": 2009, "url": "https://example.org", "content": "terms"}]))

        shown = run_cli("lineage", lineage)
        assert shown.exit_code == 0
        assert len(_lines(shown.stdout)) == 1 + len(ids) + len(edges)

        ranged = run_cli("range", lineage, "--captures", captures)
        assert ranged.exit_code == 0
        lines = _lines(ranged.stdout)
        assert len(lines) == len(ids)
        assert all(line.endswith(" 2009-2010 capture: 2009 (in_range)") for line in lines)


@pytest.fixture(scope="module")
def verified():
    return lookup_or_verify(None, read_bundle("cifar-10"))[0]


@settings(max_examples=30, deadline=None)
@given(names=st.lists(_TEXT, min_size=1, max_size=4))
def test_store_ls_prints_one_line_per_entry(verified, names):
    with tempfile.TemporaryDirectory() as work:
        store = AnalysisStore(Path(work))
        keys = [hashlib.sha256(f"{i}".encode()).hexdigest() for i in range(len(names))]
        for key, name in zip(keys, names):
            store.put(key, verified, name)
        listed = run_cli("--store", work, "store", "ls")
        assert listed.exit_code == 0
        lines = _lines(listed.stdout)
        assert [line[:64] for line in lines] == sorted(keys)
        by_key = dict(zip(keys, names))
        assert lines == [f"{key}  {by_key[key]}".replace("\r", " ").replace("\n", " ")
                         for key in sorted(keys)]


def test_range_of_a_renamed_source_forges_no_line(tmp_path):
    """A node id holding a line break and the text of another node's line."""
    forged = "altavista: 2005-2006 capture: 2005 (in_range)"
    lineage, _ = bundle_paths("cifar-10")
    renamed = tmp_path / "lineage.json"
    renamed.write_text(lineage.read_text().replace(
        '"80-million-tiny-images"', json.dumps(f"80-million-tiny-images\n{forged}")))
    result = run_cli("range", renamed)
    assert result.exit_code == 0
    assert "80-million-tiny-images altavista: 2005-2006 capture: 2005 (in_range): " in result.stdout
    assert not any(line.startswith(forged) for line in _lines(result.stdout))


def test_validate_problem_path_forges_no_line(tmp_path):
    """A custom-right key holding a line break and the text of an ``ok`` line."""
    vector = json.loads((templates_dir() / "cc-by-4.0.json").read_text())["vector"]
    vector["custom_rights"] = {"x\n/tmp/forged.json: ok": {"grant": "bogus"}}
    path = tmp_path / "vector.json"
    path.write_text(json.dumps(vector))
    result = run_cli("validate", path)
    assert result.exit_code == 1
    lines = _lines(result.stdout)
    assert lines[0] == f"{path}: 1 problem(s)"
    assert len(lines) == 2 and lines[1].startswith(f"  - {path}.custom_rights.x /tmp/forged.json: ok.grant: ")


def _custom_rights_bundle(work: Path, rights: dict) -> tuple[Path, Path]:
    """A copy of cifar-10 whose root vector has ``rights`` as its custom rights."""
    lineage, interpretations, _ = copy_bundle("cifar-10", work)
    edit_file(interpretations / "cifar-10.json", ("vector", "custom_rights"), rights)
    return lineage, interpretations


# A child, where a package warning reaches stderr.
_run_process = functools.partial(run_dla, python=("-W", "default"), text=True)


def test_error_path_forges_no_stderr_line(tmp_path):
    """A custom-right key holding a line break and the text of an ``error:`` line."""
    lineage, interpretations = _custom_rights_bundle(
        tmp_path, {"x\nerror: forged line": {"grant": "bogus"}})
    result = run_cli("verify", lineage, interpretations)
    assert (result.exit_code, result.stdout) == (1, "")
    assert _lines(result.stderr) == [
        f"error: {interpretations / 'cifar-10.json'}.vector.custom_rights.x error: forged line"
        ".grant: invalid value 'bogus'; expected one of: granted, denied, unspecified"]


def test_warning_path_forges_no_stderr_line(tmp_path):
    """The same key under ``--lenient``, on a right with an unknown field."""
    lineage, interpretations = _custom_rights_bundle(
        tmp_path, {"x\nerror: forged line": {"grant": "granted", "zz_unknown": 1}})
    result = _run_process("--lenient", "verify", lineage, interpretations)
    assert result.returncode == 0 and result.stdout.startswith("# Verified license: CIFAR-10\n")
    assert _lines(result.stderr) == [
        f"warning: {interpretations / 'cifar-10.json'}.vector.custom_rights.x error: forged line"
        ": ignoring unknown fields ['zz_unknown']"]


def test_usage_error_token_forges_no_stderr_line():
    """A command-line token holding a line break: one ``error:`` line, then
    the usage lines as argparse formats them."""
    result = run_cli("lineage", "x", "--bo\nerror: forged")
    assert (result.exit_code, result.stdout) == (64, "")
    first, *usage = _lines(result.stderr)
    assert first == "error: unrecognized arguments: --bo error: forged"
    assert usage[0].startswith("Usage: dla [") and all(line.startswith(" ") for line in usage[1:])


def test_command_line_path_forges_no_stderr_line(tmp_path):
    lineage, _ = bundle_paths("cifar-10")
    result = run_cli("verify", lineage, tmp_path / "interp\nerror: forged")
    assert (result.exit_code, result.stdout) == (64, "")
    assert _lines(result.stderr) == [
        f"error: {tmp_path}/interp error: forged: not a directory"]


@settings(max_examples=15, deadline=None)
@given(keys=st.lists(_TEXT, min_size=1, max_size=3, unique=True))
def test_every_stderr_line_of_verify_is_one_dla_wrote(keys):
    """Custom-right keys of any line breaks: ``verify`` prints one ``error:``
    line, and ``--lenient verify`` one ``warning:`` line per key."""
    with tempfile.TemporaryDirectory() as work:
        bogus = {key: {"grant": "bogus"} for key in keys}
        result = run_cli("verify", *_custom_rights_bundle(Path(work) / "bogus", bogus))
        assert result.exit_code == 1
        lines = _lines(result.stderr)
        assert len(lines) == 1 and all(line.startswith(_PREFIXES) for line in lines)

        unknown = {key: {"grant": "granted", "zz_unknown": 1} for key in keys}
        unknown_bundle = _custom_rights_bundle(Path(work) / "unknown", unknown)
        result = _run_process("--lenient", "verify", *unknown_bundle)
        assert result.returncode == 0
        lines = _lines(result.stderr)
        assert len(lines) == len(keys) and all(line.startswith(_PREFIXES) for line in lines)


def test_other_separators_are_kept_as_given(tmp_path):
    """Only CR and LF end a line: a node id holding U+2028 and VT reaches
    ``range`` stdout and an ``error:`` line byte for byte."""
    node = "80-million\u2028tiny\x0bimages"
    lineage, _ = bundle_paths("cifar-10")
    text = lineage.read_text(encoding="utf-8")
    doc = json.loads(text.replace('"80-million-tiny-images"', json.dumps(node)))
    renamed = tmp_path / "lineage.json"
    renamed.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("range", renamed)
    assert result.exit_code == 0
    assert result.stdout == run_cli("range", lineage).stdout.replace("80-million-tiny-images", node)

    doc["edges"].append([node, "cifar-10"])
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("range", cyclic)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"error: cycle detected: cifar-10 -> {node} -> cifar-10\n"


# The reports that a line break in a fixture's text must not lengthen.
_REPORTS = {
    "lineage": lambda bundle: ["lineage", bundle.lineage],
    "range": lambda bundle: ["range", bundle.lineage, "--captures", bundle.captures],
    "verify": lambda bundle: ["verify", bundle.lineage, bundle.interpretations],
    "assess": lambda bundle: ["assess", bundle.lineage, bundle.interpretations],
}


def _texts(name: str) -> list[tuple[str, tuple, bool]]:
    """Every string value and mapping key in the files of one fixture bundle:
    the file, the path there, and whether it is the key."""
    found = []
    for path in sorted((FIXTURES_DIR / name).rglob("*.json")):
        doc, file = read(path), str(path.relative_to(FIXTURES_DIR / name))
        for where in locations(doc):
            found += [(file, where, True)] if where and isinstance(where[-1], str) else []
            found += [(file, where, False)] if isinstance(at(doc, where), str) else []
    return found


_TEXTS = {name: _texts(name) for name in BUNDLE_NAMES}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_line_break_in_any_fixture_text_forges_no_line(data):
    """A CR or LF put into one string value or mapping key of one fixture
    file: each report prints as many stdout lines, with the same exit code,
    as with a ``_`` in its place, or exits with empty stdout and one
    ``error:`` line; every stderr line is one that dla wrote. The edit itself
    may change the answer (a new obligation id adds a legend line), so the
    ``_`` run, not the unedited bundle, is the measure."""
    name = data.draw(st.sampled_from(BUNDLE_NAMES))
    file, where, is_key = data.draw(st.sampled_from(_TEXTS[name]))
    line_break = data.draw(st.sampled_from(["\n", "\r", "\r\n"]))
    text = where[-1] if is_key else at(read(FIXTURES_DIR / name / file), where)
    cut = data.draw(st.integers(0, len(text)))
    runs = {}
    with tempfile.TemporaryDirectory() as work:
        for i, inserted in enumerate(("_", line_break)):
            bundle = copy_bundle(name, Path(work, str(i)))
            edited, path = text[:cut] + inserted + text[cut:], bundle.lineage.parent / file
            if is_key:
                edit_file(path, where, key=edited)
            else:
                edit_file(path, where, edited)
            runs[inserted] = {report: run_cli(*args(bundle)) for report, args in _REPORTS.items()}
    for report, result in runs[line_break].items():
        plain = runs["_"][report]
        stderr = _lines(result.stderr) if result.stderr else []
        assert all(line.startswith(_PREFIXES) for line in stderr), report
        assert result.exit_code == plain.exit_code, report
        if result.stdout:
            assert len(_lines(result.stdout)) == len(_lines(plain.stdout)), report
        else:
            assert len(stderr) == 1 and stderr[0].startswith("error:"), report


def test_the_line_rule_is_written_once():
    """No string constant in ``src/dla`` holds a CR except in ``jsonio.text_lines``:
    a second place that decides what ends a line fails here."""
    found = []
    for path in sorted((SRC / "dla").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rule = [function for function in tree.body if path.name == "jsonio.py"
                and isinstance(function, ast.FunctionDef) and function.name == "text_lines"]
        allowed = {id(node) for function in rule for node in ast.walk(function)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "\r" in node.value and id(node) not in allowed]
    assert found == []
