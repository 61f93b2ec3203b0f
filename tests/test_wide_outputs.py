"""Frozen CLI output on the bench's 5 000-node ``wide`` bundle, seed 7: the
sha256 of stdout and the exit code of six commands, recorded before the
``verify``, edge-decoding and rights-map paths were rewritten for speed.

The bundle is where ``dla`` does most of its work: 4 061 interpreted sources
and 22 451 right entries, of which 185 are distinct. The shipped bundles'
goldens (``test_golden_outputs.py``) have at most 9 nodes, so a change that
only shows over thousands of sources fails here, not there. The bundle's own
hash is checked first, so a change to the bench's writer cannot pass for a
change to ``dla``.

The blob that ``--store`` writes is pinned too, on this bundle and on each
shipped one, as recorded before a blob's license member was written from the
license's once-rendered text; a store hit on this bundle prints the
``json assess`` golden.
"""

from __future__ import annotations

import hashlib

import pytest

from helpers import BUNDLE_NAMES, bundle_paths, run_cli

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

# Bundle name -> sha256 of the blob a ``--format json assess --store`` run writes.
BLOB_SHA256 = {
    "cifar-10": "113d6ea07b4c99de9504d882c00f63db071bcac4708a73ddb88778d67c1c0edd",
    "cityscapes": "3bb26c859e8abe16280a4d102ec4c690c3c5d99418a7548027ab686a01f2927f",
    "ffhq": "e0ef1f58e16307e11c8e4b2daad79b2ab456c82c61546742b3fd4027d2460c0b",
    "imagenet": "09ad7e7963167facc77b3252d28e394be8730941cef76d5544177f628f680cd5",
    "ms-coco": "e22a0a0ca119a26b1a5f0e3e6e036b5d681cc63e9eac6a5df4b9673efd87839f",
    "ms-coco-annotations": "aaa59bfa7e4695ba16d808cc23d145e73d3f6d4f40c2d9ef779c494e5e37ca53",
    "vggface2": "5a52ee5198dc2721de1dcb4291a0f43a839eefa5a17260ee2641b1ccd3f47aa6",
}
WIDE_KEY = "793e9492380af61a0e2c53cf5f83e647fad6285bf0b731dec8c5b6222a524593"
WIDE_BLOB_SHA256 = "90f46a9a9338da6341c922231b47c622906c6a2c963b574cef0951ad47a95364"


def stored_blob(store, lineage, interpretations) -> tuple[str, str]:
    """The key and sha256 of the one blob a ``--format json assess`` miss writes."""
    result = run_cli("--store", store, "--format", "json", "assess", lineage, interpretations)
    assert "(cached analysis)" not in result.stderr
    (blob,) = store.glob("*.json")
    return blob.stem, hashlib.sha256(blob.read_bytes()).hexdigest()


def test_bundle_is_the_one_recorded(bench_workloads, wide_seed_7_bundle):
    assert bench_workloads.bundle_sha256(wide_seed_7_bundle) == BUNDLE_SHA256


@pytest.mark.parametrize("command", GOLDEN)
def test_output_matches_golden(wide_seed_7_bundle, command):
    args, sha256, exit_code = GOLDEN[command]
    result = run_cli(*args(wide_seed_7_bundle))
    assert (hashlib.sha256(result.stdout_bytes).hexdigest(), result.exit_code) == (
        sha256, exit_code), result.stderr


def test_stored_blob_matches_golden_and_a_hit_prints_the_golden(tmp_path, wide_seed_7_bundle):
    b, store = wide_seed_7_bundle, tmp_path / "store"
    assert stored_blob(store, b.lineage, b.interpretations) == (WIDE_KEY, WIDE_BLOB_SHA256)
    hit = run_cli("--store", store, "--format", "json", "assess", b.lineage, b.interpretations)
    assert hit.stderr == "(cached analysis)\n"
    assert (hashlib.sha256(hit.stdout_bytes).hexdigest(), hit.exit_code) == GOLDEN["json assess"][1:]


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_fixture_blob_matches_golden(tmp_path, name):
    assert stored_blob(tmp_path / "store", *bundle_paths(name))[1] == BLOB_SHA256[name]
