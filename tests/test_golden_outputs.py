"""Frozen CLI output: the sha256 of stdout and the exit code of five commands
on every shipped bundle, recorded once in ``tests/data/golden_outputs.json``.

A reordered document field, a changed number format or a changed exit code
fails here even where the round-trip tests still pass. The hashes are a
contract; they are never regenerated to make a change pass. The JSON
``verify`` and ``assess`` rows were re-recorded twice: when the inputs digest
became a Merkle root over the authored bytes, and when ``ENGINE_VERSION``
moved from 0.1.0 to 0.2.0. ``tests/golden_digest_diff.py`` shows that the
second moved their stdout only in ``engine_version`` and ``inputs_digest``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from dla.cli import cli

from helpers import BUNDLE_NAMES, bundle_paths

GOLDEN_OUTPUTS_PATH = Path(__file__).parent / "data" / "golden_outputs.json"

# Command name -> argument list, given the bundle's lineage and interpretation
# and capture paths.
COMMANDS = {
    "json lineage": lambda lin, interp, caps: ["--format", "json", "lineage", lin],
    "json verify": lambda lin, interp, caps: ["--format", "json", "verify", lin, interp],
    "json assess": lambda lin, interp, caps: [
        "--format", "json", "assess", "--no-gate", lin, interp
    ],
    "markdown assess": lambda lin, interp, caps: ["assess", "--no-gate", lin, interp],
    "range captures": lambda lin, interp, caps: ["range", lin, "--captures", caps],
}


def run_command(bundle: str, command: str) -> dict[str, object]:
    """The sha256 of stdout and the exit code of one command on one bundle."""
    lineage, interp = bundle_paths(bundle)
    args = COMMANDS[command](lineage, interp, lineage.parent / "captures")
    result = CliRunner().invoke(cli, [str(a) for a in args], catch_exceptions=False)
    return {
        "sha256": hashlib.sha256(result.stdout_bytes).hexdigest(),
        "exit_code": result.exit_code,
    }


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("bundle", BUNDLE_NAMES)
def test_output_matches_golden(bundle, command):
    golden = json.loads(GOLDEN_OUTPUTS_PATH.read_text(encoding="utf-8"))
    assert run_command(bundle, command) == golden[bundle][command]


def test_golden_covers_every_bundle_and_command():
    golden = json.loads(GOLDEN_OUTPUTS_PATH.read_text(encoding="utf-8"))
    assert sorted(k for k in golden if k != "note") == sorted(BUNDLE_NAMES)
    for bundle in BUNDLE_NAMES:
        assert sorted(golden[bundle]) == sorted(COMMANDS)
