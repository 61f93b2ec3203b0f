"""A lineage that is not JSON is the first error named, though a store
hit decodes no lineage and :meth:`dla.Bundle.read` leaves the decoding to
whoever asks for the document."""

from __future__ import annotations

import pytest

from helpers import copy_bundle, run_cli


@pytest.mark.parametrize("interpretations", ["missing", "unreadable", "valid"])
@pytest.mark.parametrize("store", [None, "store", "a-file"])
def test_a_lineage_that_is_not_json_is_named_first(tmp_path, interpretations, store):
    """Before a missing or unreadable interpretation, and before a store path
    that is no directory, as when the lineage was decoded as it was read."""
    lineage, valid, _ = copy_bundle("cifar-10", tmp_path)
    lineage.write_text("{not json", encoding="utf-8")
    if interpretations == "unreadable":
        (valid / "zz.json").mkdir()
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    options = [] if store is None else ["--store", tmp_path / store]
    directory = tmp_path / "missing" if interpretations == "missing" else valid
    result = run_cli(*options, "assess", lineage, directory)
    assert (result.exit_code, result.stdout) == (64, "")
    assert result.stderr.startswith(f"error: {lineage}: invalid JSON: ")
