"""Frozen CLI output: the sha256 of stdout and the exit code of six commands
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

import gc
import hashlib
import json
from pathlib import Path

import pytest

from helpers import BUNDLE_NAMES, bundle_paths, run_cli, run_dla, run_python

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
    "markdown verify": lambda lin, interp, caps: ["verify", lin, interp],
    "range captures": lambda lin, interp, caps: ["range", lin, "--captures", caps],
}


def run_command(bundle: str, command: str) -> dict[str, object]:
    """The sha256 of stdout and the exit code of one command on one bundle."""
    lineage, interp = bundle_paths(bundle)
    args = COMMANDS[command](lineage, interp, lineage.parent / "captures")
    result = run_cli(*args)
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


def test_entry_point_output_matches_golden():
    """The goldens above run in process through ``run_cli``; ``python -m dla``
    runs ``main``, which turns the cyclic garbage collector off in its own
    process, and must print the same bytes and exit with the same codes."""
    golden = json.loads(GOLDEN_OUTPUTS_PATH.read_text(encoding="utf-8"))["cifar-10"]
    lineage, interp = bundle_paths("cifar-10")
    for command, args in COMMANDS.items():
        run = run_dla(*args(lineage, interp, lineage.parent / "captures"))
        outcome = {"sha256": hashlib.sha256(run.stdout).hexdigest(), "exit_code": run.returncode}
        assert outcome == golden[command], command
    assert gc.isenabled()  # the tests' own process keeps its collector


@pytest.mark.parametrize("command, exit_code", [
    (lambda lin, interp: ["--version"], 0),
    (lambda lin, interp: ["assess", lin, interp], 3),
    (lambda lin, interp: ["--format", "yaml", "lineage", lin], 64),
], ids=["version", "assess-denied", "usage-error"])
def test_entry_point_turns_the_collector_off(command, exit_code):
    """``main`` runs with the collector off and, on every exit, freezes the
    objects left, so Python's collection at shutdown has none to scan."""
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0,"
             " file=sys.stderr))\n"
             "from dla.cli import main\n"
             "main()\n")
    argv = [str(a) for a in command(*bundle_paths("cifar-10"))]
    run = run_python("-c", probe, *argv, text=True)
    # Before the probe's line, stderr holds nothing, or on a usage error
    # exactly the error and usage lines, as `run_cli` records them in process.
    usage = run_cli(*argv).stderr if exit_code == 64 else ""
    assert (run.returncode, run.stderr) == (exit_code, usage + "False True\n")


def test_cli_called_in_process_leaves_the_collector_as_it_was():
    lineage, interp = bundle_paths("cifar-10")
    for args in (["--version"], ["assess", str(lineage), str(interp)]):
        run_cli(*args)
        assert gc.isenabled() and gc.get_freeze_count() == 0, args
