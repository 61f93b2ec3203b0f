"""``ENGINE_VERSION`` moves with the answers.

``tests/data/engine_version.json`` lists each engine version, oldest first,
with the sha256 of every ``tests/data/golden_*.json`` recorded under it. A
change that alters a golden must bump ``ENGINE_VERSION`` and append an entry,
so that the analyses an earlier engine stored read as stale.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from dla.engine import ENGINE_VERSION

DATA = Path(__file__).parent / "data"
HISTORY = json.loads((DATA / "engine_version.json").read_text(encoding="utf-8"))["versions"]


def test_goldens_were_recorded_under_the_running_engine_version():
    goldens = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(DATA.glob("golden_*.json"))}
    assert HISTORY[-1] == {"engine_version": ENGINE_VERSION, "goldens": goldens}


def test_every_entry_names_a_new_engine_version():
    versions = [entry["engine_version"] for entry in HISTORY]
    assert len(set(versions)) == len(versions)

