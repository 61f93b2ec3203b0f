"""Paths to data shipped with the package: license templates and the default
usage scenarios."""

from __future__ import annotations

from pathlib import Path

_DATA_DIR = Path(__file__).resolve().parent / "data"


def templates_dir() -> Path:
    return _DATA_DIR / "templates"


def scenarios_path() -> Path:
    return _DATA_DIR / "scenarios.json"

