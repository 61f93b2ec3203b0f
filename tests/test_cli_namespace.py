"""Every command reads the parsed command line as ``args.<dest>``: each
destination the parsers define is read somewhere in ``cli.py``, and each
name read there is one a parser defines."""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

import dla.cli as dla_cli


def _dests(parser: argparse.ArgumentParser) -> set[str]:
    """The destinations of ``parser`` and of every parser below it that can
    land in a namespace; ``--help``, ``--version`` and the ``run`` default
    never do, or are not read as ``args``."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _dests(sub)
        elif action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            found.add(action.dest)
    return found


def _args_reads() -> set[str]:
    tree = ast.parse(Path(dla_cli.__file__).read_text(encoding="utf-8"))
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args" and isinstance(node.ctx, ast.Load)
    }


def test_every_dest_is_read_and_every_read_is_a_dest():
    dests, reads = _dests(dla_cli._parser()), _args_reads()
    assert "run" not in dests
    assert dests == reads, {"never read": dests - reads, "never defined": reads - dests}
