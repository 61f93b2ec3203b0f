"""Show that the JSON ``verify`` and ``assess`` stdout of every shipped bundle
differs from an earlier golden only in the audit trailer's ``inputs_digest``.

The inputs digest became a Merkle root over the authored bytes; before, it
was the sha256 of one compact JSON document holding the parsed graph, every
parsed vector and the policy. For each of the 14 JSON rows this script runs
the command, puts the digest of the old formula in place of the new one, and
checks that the result hashes to the old golden row. Every other row must be
the same in both files. With ``--write`` it then records the 14 rows of the
current code in ``tests/data/golden_outputs.json`` and leaves the rest alone.

    git show b6c0a3c:tests/data/golden_outputs.json > /tmp/old_golden.json
    PYTHONPATH=src python tests/golden_digest_diff.py /tmp/old_golden.json [--write]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from click.testing import CliRunner

from dla import EnginePolicy
from dla.cli import cli
from test_golden_outputs import COMMANDS, GOLDEN_OUTPUTS_PATH

from helpers import BUNDLE_NAMES, bundle_paths, load_bundle

DIGEST_ROWS = ("json assess", "json verify")


def old_digest(bundle: str) -> str:
    """The inputs digest as the earlier engine computed it."""
    graph, interpretations = load_bundle(bundle)
    doc = {
        "graph": graph.to_dict(),
        "interpretations": {
            subject_id: vector.to_dict() if vector is not None else None
            for subject_id, vector in sorted(interpretations.vectors.items())
        },
        "policy": EnginePolicy().to_dict(),
    }
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(old_path: Path, write: bool) -> int:
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
            args = COMMANDS[command](lineage, interp, lineage.parent / "captures")
            result = CliRunner().invoke(cli, [str(a) for a in args], catch_exceptions=False)
            doc = json.loads(result.stdout)
            audit = doc.get("verified_license", doc)["audit"]
            new_digest, was = audit["inputs_digest"], old_digest(bundle)
            assert result.stdout.count(new_digest) == 1
            restored = result.stdout_bytes.replace(new_digest.encode(), was.encode())
            same = {"sha256": sha256(restored), "exit_code": result.exit_code}
            verdict = "only inputs_digest differs" if same == old[bundle][command] else "DIFFERS"
            if verdict == "DIFFERS":
                problems.append(f"{bundle} {command}: more than inputs_digest changed")
            print(f"{bundle:<20} {command:<12} {was[:12]} -> {new_digest[:12]}  {verdict}")
            golden[bundle][command] = {
                "sha256": sha256(result.stdout_bytes),
                "exit_code": result.exit_code,
            }
    for problem in problems:
        print(problem)
    if write and not problems:
        GOLDEN_OUTPUTS_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]), "--write" in sys.argv[2:]))
