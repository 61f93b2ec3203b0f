"""Every test runs without the ``DLA_*`` variables of the shell that started
the suite, so a ``DLA_STORE`` there neither changes an outcome nor receives a
blob. A test that wants one sets it itself. Also the fixtures that several
modules share."""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from types import ModuleType

import pytest

from dla.model import _codec
from helpers import document_types

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.fixture(autouse=True)
def _no_dla_environment(monkeypatch: pytest.MonkeyPatch) -> None:
    for name in [name for name in os.environ if name.startswith("DLA_")]:
        monkeypatch.delenv(name)


@pytest.fixture(scope="session")
def bench_workloads() -> ModuleType:
    """The bench's bundle writer, ``bench/workloads.py``, which reads only the
    standard library and imports no ``dla``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        return importlib.import_module("workloads")


@pytest.fixture(scope="session")
def wide_seed_7_bundle(bench_workloads: ModuleType, tmp_path_factory: pytest.TempPathFactory):
    """The bench's 5 000-node ``wide`` bundle, seed 7, written once per session."""
    root = tmp_path_factory.mktemp("wide")
    (bundle,) = bench_workloads.make_bundles("wide", 7, root, ROOT / "src/dla/data/fixtures", nodes=5000)
    return bundle


@pytest.fixture
def use_tier(monkeypatch):
    """Puts one tier's ``_decode``, interpreted or compiled, on every
    document class; each class gets its decoder back after the test."""
    tiers: dict[str, dict[type, object]] = {"interpreted": {}, "compiled": {}}
    for cls in document_types():
        monkeypatch.setattr(cls, "_decode", cls.__dict__["_decode"])
        interpreted, compiled = _codec(cls, hot=0)  # never compiles itself
        tiers["interpreted"][cls] = interpreted["_decode"]
        tiers["compiled"][cls] = compiled()

    def use(tier: str) -> None:
        for cls, function in tiers[tier].items():
            cls._decode = function
            assert function.__code__.co_filename.startswith("<codec ") == (tier == "compiled")

    return use
