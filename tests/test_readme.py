"""The README's "Library use" example runs as written, on a copy of a fixture
bundle, with its store under a temporary home directory."""

from __future__ import annotations

from pathlib import Path

from helpers import copy_bundle

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs_then_hits_its_store(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(copy_bundle("cifar-10", tmp_path).lineage.parent)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    code = compile(library_example(), str(README), "exec")
    first: dict = {}
    exec(code, first)
    printed = capsys.readouterr().out
    second: dict = {}
    exec(code, second)
    assert (first["cache_hit"], second["cache_hit"]) == (False, True)
    assert len(list((tmp_path / "home" / ".cache" / "dla-store").glob("*.json"))) == 1
    assert capsys.readouterr().out == printed
    assert printed.splitlines()[0] == "DD False ()"
