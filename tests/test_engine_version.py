"""``ENGINE_VERSION`` moves with the answers.

``tests/data/engine_version.json`` lists each engine version, oldest first,
with the sha256 of every ``tests/data/golden_*.json`` recorded under it. A
change that alters a golden must bump ``ENGINE_VERSION`` and append an entry,
so that the analyses an earlier engine stored read as stale.

The package version, ``dla.__version__``, is written in two places; they agree.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import dla
from dla.engine import ENGINE_VERSION

DATA = Path(__file__).parent / "data"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
HISTORY = json.loads((DATA / "engine_version.json").read_text(encoding="utf-8"))["versions"]


def test_goldens_were_recorded_under_the_running_engine_version():
    goldens = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(DATA.glob("golden_*.json"))}
    assert HISTORY[-1] == {"engine_version": ENGINE_VERSION, "goldens": goldens}


def test_every_entry_names_a_new_engine_version():
    versions = [entry["engine_version"] for entry in HISTORY]
    assert len(set(versions)) == len(versions)



def test_package_version_is_pyprojects():
    # A regex, not tomllib, which Python 3.10 lacks: the first version line
    # after the [project] header.
    project = PYPROJECT.read_text(encoding="utf-8").split("\n[project]\n", 1)[1]
    match = re.search(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert match is not None and match.group(1) == dla.__version__
