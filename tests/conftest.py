"""Every test runs without the ``DLA_*`` variables of the shell that started
the suite, so a ``DLA_STORE`` there neither changes an outcome nor receives a
blob. A test that wants one sets it itself."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def _no_dla_environment(monkeypatch: pytest.MonkeyPatch) -> None:
    for name in [name for name in os.environ if name.startswith("DLA_")]:
        monkeypatch.delenv(name)
