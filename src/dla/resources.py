"""Paths to data shipped with the package: license templates, the default
usage scenarios, and the worked example bundles."""

from __future__ import annotations

from pathlib import Path

_DATA_DIR = Path(__file__).resolve().parent / "data"


def templates_dir() -> Path:
    return _DATA_DIR / "templates"


def scenarios_path() -> Path:
    return _DATA_DIR / "scenarios.json"


def fixtures_dir() -> Path:
    return _DATA_DIR / "fixtures"


def fixture_bundle(name: str) -> Path:
    """Directory of one example bundle (lineage.json, interpretations/, captures/)."""
    path = fixtures_dir() / name
    if not path.is_dir():
        known = sorted(p.name for p in fixtures_dir().iterdir() if p.is_dir())
        raise FileNotFoundError(f"no bundle named {name!r}; shipped bundles: {known}")
    return path
