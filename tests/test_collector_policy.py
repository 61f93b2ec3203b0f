"""Only ``cli.main``, the ``dla`` process entry, touches the garbage collector.

``main`` turns the collector off and freezes every object before the process
exits. A library caller, or code that runs ``dla.cli._run``, keeps its own
collector; a ``gc`` call anywhere else in ``src/dla`` would change it for them.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dla"


def gc_references(tree: ast.AST) -> list[ast.AST]:
    return [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "gc")
        or (isinstance(node, ast.Name) and node.id == "gc")
    ]


def test_only_the_process_entry_references_gc():
    outside = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside: set[int] = set()
        if path.name == "cli.py":
            (main,) = [node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "main"]
            inside = {id(node) for node in ast.walk(main)}
        outside += [f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(node)}"
                    for node in gc_references(tree) if id(node) not in inside]
    assert outside == []
