"""Only ``cli._run`` writes a report to stdout or ends the process.

Every command returns its report and exit code, and ``_run`` writes the
report once and exits, so an error exit leaves stdout empty. A command that
writes ``sys.stdout``, calls ``sys.exit``, ``print`` or ``os.write`` itself
would bring back writes made before the run is known to succeed.
"""

from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "dla" / "cli.py"


def calls_named(tree: ast.AST, owner: str, *names: str) -> list[ast.Call]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
        and isinstance(node.func.value, ast.Name) and node.func.value.id == owner
    ]


def test_only_the_run_function_writes_stdout_and_exits():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI))
    (run,) = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_run"]
    inside = {id(node) for node in ast.walk(run)}
    # stdout is named only in the run function, which writes to it once.
    stdout = [node for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in {"stdout", "__stdout__"}]
    writes = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.stdout.write"]
    exits = calls_named(tree, "sys", "exit")
    assert [node.lineno for node in stdout + exits if id(node) not in inside] == []
    assert (len(writes), len(exits)) == (1, 1)


def test_no_other_way_to_stdout_or_exit():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI))
    other = [
        f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"print", "exit", "quit"})
        or (isinstance(node, ast.Call) and ast.unparse(node.func) in {"os.write", "os._exit"})
        or (isinstance(node, ast.Name) and node.id == "SystemExit")
        or (isinstance(node, ast.ImportFrom) and node.module in {"os", "sys"}
            and any(alias.name in {"stdout", "__stdout__", "exit", "write", "_exit"}
                    for alias in node.names))
    ]
    assert other == []
