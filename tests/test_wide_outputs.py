"""Frozen CLI output on the bench's 5 000-node ``wide`` bundle, seed 7: the
sha256 of stdout and the exit code of six commands, recorded before the
``verify``, edge-decoding and rights-map paths were rewritten for speed.

The bundle is where ``dla`` does most of its work: 4 061 interpreted sources
and 22 451 right entries, of which 185 are distinct. The shipped bundles'
goldens (``test_golden_outputs.py``) have at most 9 nodes, so a change that
only shows over thousands of sources fails here, not there. The bundle's own
hash is checked first, so a change to the bench's writer cannot pass for a
change to ``dla``.
"""

from __future__ import annotations

import hashlib

import pytest

from helpers import run_cli

BUNDLE_SHA256 = "56cb6edcafaf1c46ad35e6e74415cada0c082f65e5adfd919e9de15962031eca"

# Command name -> (argument list given the bundle, stdout sha256, exit code).
GOLDEN = {
    "json assess": (
        lambda b: ["--format", "json", "assess", b.lineage, b.interpretations],
        "b53a3d239b08747f8c257ff540c9bc9ff46d0b469987e7127b5e12358e43fecb", 3,
    ),
    "markdown assess": (
        lambda b: ["assess", b.lineage, b.interpretations],
        "d85427a3f6adbbdbfdba7321a25592d2fd90d375e7ec20956b7f5bf850d3eee7", 3,
    ),
    "markdown verify": (
        lambda b: ["verify", b.lineage, b.interpretations],
        "025d51d92725fb04d8207bd0ba5cf90067d9fda867579c863a683900ff44e099", 0,
    ),
    "json verify": (
        lambda b: ["--format", "json", "verify", b.lineage, b.interpretations],
        "25d22a3203db8e122381146006ed427c77c12ef190ffad45b7b7a7ae9fd2bbc8", 0,
    ),
    "range captures": (
        lambda b: ["range", b.lineage, "--captures", b.captures],
        "9c4eb86d0a7db9e8c54b8c356ed8bbf594911b18968327b43048cd4a53ffd9f3", 0,
    ),
    "json lineage": (
        lambda b: ["--format", "json", "lineage", b.lineage],
        "5bab515101d04b3b865b405619700f28deed2a928605d964647704385c7e53fa", 0,
    ),
}


def test_bundle_is_the_one_recorded(bench_workloads, wide_seed_7_bundle):
    assert bench_workloads.bundle_sha256(wide_seed_7_bundle) == BUNDLE_SHA256


@pytest.mark.parametrize("command", GOLDEN)
def test_output_matches_golden(wide_seed_7_bundle, command):
    args, sha256, exit_code = GOLDEN[command]
    result = run_cli(*args(wide_seed_7_bundle))
    assert (hashlib.sha256(result.stdout_bytes).hexdigest(), result.exit_code) == (
        sha256, exit_code), result.stderr
