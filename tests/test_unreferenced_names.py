"""Every module-level function and class in ``src/dla`` has a caller, and
every name a module imports is used.

A name that no code in ``src/dla`` or ``bench/`` refers to, and that ``dla``
does not export, is API that nothing calls, or that only tests call; delete
it, or move it into the tests that use it. Decorated definitions are left
out, because their decorator registers them (``click`` commands,
dataclasses).
"""

from __future__ import annotations

import ast
from pathlib import Path

import dla

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dla").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_level_definition_is_referenced():
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in SOURCES + BENCH
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unreferenced = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.decorator_list
        and node.name not in referenced
        and node.name not in dla.__all__
    ]
    assert unreferenced == []


def test_every_import_is_used():
    """A name a module imports is used in that module; ``__init__`` re-exports
    the names in ``__all__``, and ``__future__`` imports are directives."""
    unused = []
    for path in SOURCES:
        tree = parse(path)
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(dla.__all__)
        unused += [f"{path.stem}: {name}" for name in sorted(imported - used)]
    assert unused == []
