"""Every name the package exports, and every attribute the traced benchmark
(``bench/tracing.py``) patches, must exist: deleting one fails here and not
only in the benchmark's own self-test."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import dla

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_spans() -> list[tuple]:
    """The ``SPANS`` table of the traced benchmark, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPANS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no SPANS")


def test_every_exported_name_resolves():
    assert [name for name in dla.__all__ if not hasattr(dla, name)] == []


@pytest.mark.parametrize("span", traced_spans(), ids=lambda span: f"{span[1]}.{span[2]}")
def test_traced_attribute_exists(span):
    _, module_name, attr, where = span
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    for name in where or ():
        assert getattr(importlib.import_module(name), attr) is owner
