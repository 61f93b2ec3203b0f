"""The plain-text reports (``lineage``, ``range``, ``validate``, ``store ls``
and ``store rm``) write one line per item: a CR or LF in input text becomes
a space, so no id or name can split its line or forge another item's."""

from __future__ import annotations

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

from helpers import bundle_paths, read_bundle, record_for, run_cli

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
