"""Every test runs without the ``DLA_*`` variables of the shell that started
the suite, so a ``DLA_STORE`` there neither changes an outcome nor receives a
blob. A test that wants one sets it itself."""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from types import ModuleType

import pytest

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
