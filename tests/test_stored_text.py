"""The verified license's one canonical text, and the store's two checks of it.

``jsonio.canonical_json`` writes a top-level member from that member's own
canonical text as ``json.dumps(indent=2)`` writes its value. A store hit
checks the payload digest over the blob's own bytes when the blob has the
layout ``put`` writes, and renders the decoded license to check it otherwise;
whatever a blob's bytes are, a ``--store`` run prints what a run without a
store prints, or exits 64 naming the entry corrupt.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dla.model import UsageScenario, VerifiedLicense, canonical_json

from helpers import bundle_paths, copy_bundle, run_cli

# Non-ASCII, U+2028 (which ensure_ascii=False writes raw), and the characters
# JSON escapes, a line break among them.
TEXT = st.text(st.sampled_from('ab é€𝄞\u2028\n\r\t"\\/{}[],:'), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


@given(doc=st.dictionaries(TEXT, JSON_VALUES, min_size=1, max_size=5), data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_member_written_from_its_text_is_what_json_dumps_writes(doc, data):
    named = data.draw(st.sets(st.sampled_from(sorted(doc))))
    texts = {key: canonical_json(doc[key]) for key in named}
    placeholders = {key: None if key in texts else value for key, value in doc.items()}
    assert canonical_json(placeholders, texts) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


CORRUPT = re.compile(r"error: store entry '[0-9a-f]{64}' is corrupt: [^\n]*\n")


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A cifar-10 copy with one stored analysis: the ``--store`` command line,
    the blob, its bytes, and the stdout and exit code of the run without a store."""
    root = tmp_path_factory.mktemp("stored")
    args = ["--format", "json", "assess", *copy_bundle("cifar-10", root)[:2]]
    plain = run_cli(*args)
    assert run_cli("--store", root / "store", *args).exit_code == plain.exit_code == 3
    (blob,) = (root / "store").glob("*.json")
    return ["--store", root / "store", *args], blob, blob.read_bytes(), (plain.stdout, plain.exit_code)


def run_over(stored, edited: bytes):
    args, blob, _, _ = stored
    blob.write_bytes(edited)
    return run_cli(*args)


def second_member(raw: bytes, tampered: bool) -> bytes:
    """The blob with its license written again as a second member, changed or not."""
    member = json.dumps(json.loads(raw)["verified_license"], indent=2, ensure_ascii=False)
    if tampered:
        member = member.replace('"denied"', '"granted"')
    return raw[:-3] + b',\n  "verified_license": ' + member.replace("\n", "\n  ").encode() + b"\n}\n"


@st.composite
def edited_blobs(draw, raw: bytes) -> bytes:
    at, byte = draw(st.integers(0, len(raw) - 1)), bytes([draw(st.integers(0, 255))])
    doc = json.loads(raw)
    return draw(st.sampled_from([
        raw[:at] + byte + raw[at + 1:],
        raw[:at] + byte + raw[at:],
        raw[:at] + raw[at + 1:],
        json.dumps(doc, indent=4, ensure_ascii=False).encode(),
        json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode(),
        second_member(raw, tampered=False),
        second_member(raw, tampered=True),
    ]))


@given(data=st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_an_edited_blob_prints_the_answer_or_is_corrupt(stored, data):
    _, _, raw, answer = stored
    result = run_over(stored, data.draw(edited_blobs(raw)))
    if result.exit_code == 64:
        assert result.stdout == "" and CORRUPT.fullmatch(result.stderr), result.stderr
    else:
        assert (result.stdout, result.exit_code) == answer, result.stderr


def indent_4(doc: dict) -> bytes:
    return json.dumps(doc, indent=4, ensure_ascii=False).encode()


@pytest.mark.parametrize("layout", [lambda doc: canonical_json(doc).encode(), indent_4],
                         ids=["as-put-writes-it", "indent-4"])
def test_a_changed_license_string_under_its_old_digest_is_corrupt(stored, layout):
    doc = json.loads(stored[2])
    flags = doc["verified_license"]["residual_risk_flags"]
    flags[0] = "x" + flags[0][1:]  # one character, payload_sha256 kept
    result = run_over(stored, layout(doc))
    assert (result.exit_code, result.stdout) == (64, "")
    assert CORRUPT.fullmatch(result.stderr) and "payload does not match its sha256" in result.stderr


def test_a_good_blob_written_with_indent_4_is_a_hit(stored):
    result = run_over(stored, indent_4(json.loads(stored[2])))
    assert (result.stdout, result.exit_code) == stored[3]
    assert result.stderr == "(cached analysis)\n"


def test_a_restrictor_that_is_no_string_is_named(stored):
    doc = json.loads(stored[2])
    doc["verified_license"]["restrictors"]["Tagging"].append(7)
    result = run_over(stored, canonical_json(doc).encode())
    assert (result.exit_code, result.stdout) == (64, "")
    assert result.stderr == (
        f"error: store entry {doc['key']!r} is corrupt: invalid blob: "
        "store_entry.verified_license.restrictors.Tagging[6]: expected string, got int\n")


def test_a_required_right_that_is_no_string_is_named(tmp_path):
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text('[{"id": "s", "required_rights": ["Distribute", null]}]', encoding="utf-8")
    result = run_cli("assess", "--scenarios", scenarios, *bundle_paths("cifar-10"))
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr.endswith("[0].required_rights[1]: expected string, got NoneType\n")


def test_a_library_callers_tuples_decode(stored):
    license_doc = json.loads(stored[2])["verified_license"]
    as_tuples = dict(license_doc, changed=tuple(license_doc["changed"]),
                     restrictors={k: tuple(v) for k, v in license_doc["restrictors"].items()})
    assert VerifiedLicense.from_dict(as_tuples) == VerifiedLicense.from_dict(license_doc)
    scenario = UsageScenario.from_dict({"id": "s", "required_rights": ("Distribute", "Access")})
    assert scenario.required_rights == ("Distribute", "Access")
