"""Show that an engine version bump moved the JSON ``verify`` and ``assess``
stdout of every shipped bundle only in the audit trailer's ``engine_version``
and ``inputs_digest`` (the digest covers the engine version).

For each of the 14 JSON rows this script runs the command twice: as it is,
and with ``ENGINE_VERSION`` set back to the earlier version. The second run
must hash to the earlier golden row, and the first must equal the second once
its engine version and inputs digest, each found exactly once, are put back.
Every other row must be the same in both files. With ``--write`` it then
records the 14 rows of the current code in ``tests/data/golden_outputs.json``
and leaves the rest alone.

    git show <commit>:tests/data/golden_outputs.json > old_golden.json
    PYTHONPATH=src python tests/golden_digest_diff.py old_golden.json 0.1.0 [--write]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

from click.testing import CliRunner

import dla.engine
from dla.cli import cli
from test_golden_outputs import COMMANDS, GOLDEN_OUTPUTS_PATH

from helpers import BUNDLE_NAMES, bundle_paths

DIGEST_ROWS = ("json assess", "json verify")


def run(args: list[str]) -> tuple[bytes, int, dict]:
    """stdout, exit code and audit trailer of one command."""
    result = CliRunner().invoke(cli, args, catch_exceptions=False)
    doc = json.loads(result.stdout)
    return result.stdout_bytes, result.exit_code, doc.get("verified_license", doc)["audit"]


def put_back(stdout: bytes, audit: dict, earlier: dict) -> bytes | None:
    """``stdout`` with the audit's engine version and inputs digest replaced by
    the earlier ones; None unless each occurs exactly once."""
    for field in ("engine_version", "inputs_digest"):
        now, was = (f'"{field}": "{a[field]}"'.encode() for a in (audit, earlier))
        if stdout.count(now) != 1:
            return None
        stdout = stdout.replace(now, was)
    return stdout


def main(old_path: Path, old_version: str, write: bool) -> int:
    old = json.loads(old_path.read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN_OUTPUTS_PATH.read_text(encoding="utf-8"))
    problems = []
    for bundle in BUNDLE_NAMES:
        lineage, interp = bundle_paths(bundle)
        for command in sorted(COMMANDS):
            if command not in DIGEST_ROWS:
                if golden[bundle][command] != old[bundle][command]:
                    problems.append(f"{bundle} {command}: row changed")
                continue
            args = [str(a) for a in COMMANDS[command](lineage, interp, lineage.parent / "captures")]
            stdout, code, audit = run(args)
            with mock.patch.object(dla.engine, "ENGINE_VERSION", old_version):
                earlier_stdout, earlier_code, earlier = run(args)
            earlier_row = {
                "sha256": hashlib.sha256(earlier_stdout).hexdigest(), "exit_code": earlier_code
            }
            if earlier_row != old[bundle][command]:
                problems.append(f"{bundle} {command}: the earlier version's row differs")
            elif put_back(stdout, audit, earlier) != earlier_stdout or code != earlier_code:
                problems.append(f"{bundle} {command}: more than the two audit fields changed")
            else:
                print(f"{bundle:<26} {command:<12} only engine_version and inputs_digest moved")
            golden[bundle][command] = {
                "sha256": hashlib.sha256(stdout).hexdigest(), "exit_code": code
            }
    for problem in problems:
        print(problem)
    if write and not problems:
        GOLDEN_OUTPUTS_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]), sys.argv[2], "--write" in sys.argv[3:]))
