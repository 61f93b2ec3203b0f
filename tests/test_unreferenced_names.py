"""Every module-level function, class and assigned name in ``src/dla`` is
read somewhere, and every name a module imports is used.

A name that no code in ``src/dla`` or ``bench/`` refers to, and that ``dla``
does not export, is API that nothing calls, or that only tests call; delete
it, or move it into the tests that use it. Decorated definitions are left
out, because a decorator may register what it decorates (a
``functools.singledispatch`` case); ``src/dla`` has none at module level.
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


def defined_names(module: ast.Module) -> list[str]:
    """The names a module's own statements define: each undecorated function
    and class, and each target of an assignment, but dunders."""
    names = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name) and not name.id.startswith("__")
            ]
    return names


def test_every_module_level_definition_is_referenced():
    """Only a read counts, so an assignment does not refer to its own target."""
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in SOURCES + BENCH
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unreferenced = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in defined_names(parse(path))
        if name not in referenced and name not in dla.__all__
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
