"""Only ``_Commands.invoke`` writes a report to stdout or ends the process.

Every command returns its report and exit code, and the group writes the
report once and exits, so an error exit leaves stdout empty. A command that
calls ``click.echo`` for stdout, ``sys.exit``, ``print`` or ``sys.stdout``
itself would bring back writes made before the run is known to succeed.
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


def to_stderr(call: ast.Call) -> bool:
    return any(
        keyword.arg == "err" and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in call.keywords
    )


def test_only_the_group_writes_stdout_and_exits():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI))
    (group,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_Commands"]
    (invoke,) = [node for node in group.body
                 if isinstance(node, ast.FunctionDef) and node.name == "invoke"]
    inside = {id(node) for node in ast.walk(invoke)}
    stdout_writes = [call for call in calls_named(tree, "click", "echo", "secho") if not to_stderr(call)]
    exits = calls_named(tree, "sys", "exit")
    assert [call.lineno for call in stdout_writes if id(call) not in inside] == []
    assert [call.lineno for call in exits if id(call) not in inside] == []
    assert (len(stdout_writes), len(exits)) == (1, 1)


def test_no_other_way_to_stdout_or_exit():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI))
    other = [
        f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"print", "exit", "quit"})
        or (isinstance(node, ast.Attribute) and node.attr in {"stdout", "get_text_stream",
                                                               "get_binary_stream"})
        or (isinstance(node, ast.ImportFrom) and node.module in {"click", "sys"}
            and any(alias.name in {"echo", "secho", "exit"} for alias in node.names))
    ]
    assert other == []
