"""Acceptance suite. Each test prints one pass/fail line for its criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines directly.
"""

from __future__ import annotations

import json
import random
import time

from dla import (
    AnalysisStore,
    EnginePolicy,
    LicenseRange,
    build_lineage,
    compute_license_range,
    lookup_or_verify,
    verify,
)
from dla.model import (
    FIXED_RIGHTS,
    Grant,
    Obligation,
    ProvenanceRecord,
    RightEntry,
    RightsVector,
    UsageScenario,
    VerifiedLicense,
    canonical_json,
)

from helpers import (
    DIGEST,
    bundle_paths,
    load_bundle,
    oracle_verify,
    random_case,
    random_vector,
    read_bundle,
    record_for,
    run_cli,
    write_synthetic_bundle,
)


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


def cell(row: dict) -> str:
    if not row["permitted"]:
        return "No"
    if row["obligations"]:
        return "Yes(" + "+".join(row["obligations"]) + ")"
    return "Yes"


EXPECTED_TABLE = {
    "cifar-10": {"DD": "No", "RPEAI": "No", "CAI": "No"},
    "imagenet": {"DD": "No", "RPEAI": "No", "CAI": "No"},
    "cityscapes": {"DD": "No", "RPEAI": "No", "CAI": "No"},
    "ffhq": {"DD": "Yes(C+D)", "RPEAI": "No", "CAI": "No"},
    "vggface2": {"DD": "Yes(A+E+D)", "RPEAI": "No", "CAI": "No"},
    "ms-coco": {"DD": "No", "RPEAI": "No", "CAI": "No"},
    "ms-coco-annotations": {"DD": "Yes(B+E+D)", "RPEAI": "Yes(B)", "CAI": "Yes(B)"},
}


def test_criterion_1_assessment_table_reproduction():
    started = time.perf_counter()
    actual: dict[str, dict[str, str]] = {}
    for bundle, _ in EXPECTED_TABLE.items():
        lineage, interp = bundle_paths(bundle)
        result = run_cli("--format", "json", "assess", str(lineage), str(interp), "--no-gate")
        assert result.exit_code == 0, result.output
        rows = json.loads(result.stdout)["assessment"]["rows"]
        actual[bundle] = {row["scenario_id"]: cell(row) for row in rows}
    elapsed = time.perf_counter() - started
    ok = actual == EXPECTED_TABLE and elapsed < 1.0
    report("1 assessment-table reproduction", ok)
    assert actual == EXPECTED_TABLE, f"cells differ: {actual}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s (budget 1s)"


def test_criterion_2_changed_rights_reproduction():
    graph, interp = load_bundle("cifar-10")
    verified = verify(graph, interp.vectors, inputs_digest=DIGEST)
    expected_changed = {
        "Tagging", "Distribute", "Rerepresent", "CommercializeOutput", "CommercializeModel",
    }
    expected_preserved = {
        "Access", "Benchmark", "Research", "Publish", "InternalUse", "ModelReverseEngineer",
    }
    changed_ok = set(verified.changed) == expected_changed
    preserved_ok = all(verified.grant(r) is Grant.GRANTED for r in expected_preserved)
    residual_ok = {"80-million-tiny-images", "cydral"} <= set(verified.residual_risk_flags)
    ok = changed_ok and preserved_ok and residual_ok
    report("2 changed-rights reproduction", ok)
    assert changed_ok, f"changed = {sorted(verified.changed)}"
    assert preserved_ok
    assert residual_ok, f"residual = {list(verified.residual_risk_flags)}"


def test_criterion_3_license_ranges():
    graph, _ = load_bundle("cifar-10")
    expected = {"cifar-10": LicenseRange(2008, 2009), "80-million-tiny-images": LicenseRange(2005, 2006)}
    for source in ("google", "flickr", "ask", "altavista", "picsearch", "webshots", "cydral"):
        expected[source] = LicenseRange(2005, 2006)
    actual = {node: compute_license_range(node, graph) for node in graph.nodes}
    ok = actual == expected
    report("3 license ranges", ok)
    assert actual == expected


def test_criterion_4_oracle_equivalence():
    rng = random.Random(424242)
    started = time.perf_counter()
    cases = 0
    discrepancies = 0
    for _ in range(1000):
        graph, interpretations = random_case(rng, max_nodes=8)
        cases += 1
        verified = verify(graph, interpretations, inputs_digest=DIGEST)
        expected = oracle_verify(graph, interpretations)
        for right, granted in expected["grants"].items():
            if (verified.grant(right) is Grant.GRANTED) != granted:
                discrepancies += 1
            elif granted:
                actual_ids = [o.id for o in verified.rights[right].obligations]
                if actual_ids != expected["obligations"][right]:
                    discrepancies += 1
    elapsed = time.perf_counter() - started
    ok = cases >= 1000 and discrepancies == 0 and elapsed < 10.0
    report("4 oracle equivalence (1000 random DAGs)", ok)
    assert cases >= 1000
    assert discrepancies == 0
    assert elapsed < 10.0, f"took {elapsed:.3f}s (budget 10s)"


def test_criterion_5_property_suite(tmp_path):
    rng = random.Random(515151)

    # Monotonicity: adding a node never upgrades a grant.
    monotone = True
    for _ in range(50):
        graph, interpretations = random_case(rng, max_nodes=6)
        before = verify(graph, interpretations, inputs_digest=DIGEST)
        attach = rng.choice(sorted(graph.nodes))
        bigger = build_lineage(
            list(graph.nodes.values()) + [record_for("zz-new")],
            list(graph.edges) + [(attach, "zz-new")],
            graph.root_id,
        )
        enlarged = {**interpretations, "zz-new": rng.choice([None, random_vector(rng, "zz-new")])}
        after = verify(bigger, enlarged, inputs_digest=DIGEST)
        for right in before.rights:
            if before.grant(right) is not Grant.GRANTED:
                monotone &= after.grant(right) is not Grant.GRANTED

    # Unavailable-node neutrality.
    neutral = True
    checked = 0
    while checked < 30:
        graph, interpretations = random_case(rng)
        unavailable = [n for n, v in interpretations.items() if v is None]
        if not unavailable:
            continue
        checked += 1
        before = verify(graph, interpretations, inputs_digest=DIGEST)
        permissive = random_vector(rng, "swap")
        granted_all = RightsVector(
            metadata=permissive.metadata,
            standalone_rights={r: RightEntry(grant=Grant.GRANTED) for r in FIXED_RIGHTS[:4]},
            model_rights={r: RightEntry(grant=Grant.GRANTED) for r in FIXED_RIGHTS[4:]},
        )
        after = verify(graph, {**interpretations, unavailable[0]: granted_all},
                       inputs_digest=DIGEST)
        for right in before.rights:
            neutral &= before.grant(right) is after.grant(right)

    # Cache transparency: cached result is byte-identical to a fresh run.
    graph, interp = load_bundle("cifar-10")
    store = AnalysisStore(tmp_path / "store")
    fresh, _ = lookup_or_verify(store, read_bundle("cifar-10"))
    cached, hit = lookup_or_verify(store, read_bundle("cifar-10"))
    uncached = verify(graph, interp.vectors, template_digests=interp.template_digests,
                      inputs_digest=read_bundle("cifar-10").digest(EnginePolicy()))
    transparent = (
        hit
        and canonical_json(cached.to_dict()) == canonical_json(uncached.to_dict())
        and canonical_json(fresh.to_dict()) == canonical_json(uncached.to_dict())
    )

    # Serialization round-trip for every document type.
    graph_doc = graph.to_dict()
    verified = verify(graph, interp.vectors, inputs_digest=DIGEST)
    samples: list[tuple[type, object]] = [
        (ProvenanceRecord, graph.root),
        (RightsVector, interp.vectors["cifar-10"]),
        (VerifiedLicense, verified),
        (RightEntry, verified.rights["Access"]),
        (Obligation, verified.rights["Access"].obligations[0]),
        (LicenseRange, compute_license_range("cifar-10", graph)),
        (UsageScenario, UsageScenario(id="DD", required_rights=("Distribute",))),
    ]
    round_trip = all(
        cls.from_dict(json.loads(canonical_json(value.to_dict()))) == value
        for cls, value in samples
    )
    from dla.lineage import LineageGraph

    round_trip &= LineageGraph.from_dict(graph_doc) == graph

    # Determinism under input permutation.
    deterministic = True
    for _ in range(10):
        g, i = random_case(rng)
        records, edges, items = list(g.nodes.values()), list(g.edges), list(i.items())
        rng.shuffle(records)
        rng.shuffle(edges)
        rng.shuffle(items)
        rebuilt = build_lineage(records, edges, g.root_id)
        deterministic &= (verify(rebuilt, dict(items), inputs_digest=DIGEST)
                          == verify(g, i, inputs_digest=DIGEST))

    ok = monotone and neutral and transparent and round_trip and deterministic
    report("5 property suite", ok)
    assert monotone, "monotonicity violated"
    assert neutral, "unavailable-node neutrality violated"
    assert transparent, "cache transparency violated"
    assert round_trip, "serialization round-trip violated"
    assert deterministic, "input-order determinism violated"


def test_criterion_6_exit_code_contract(tmp_path):
    lineage, interp = bundle_paths("cifar-10")
    denied = run_cli("assess", str(lineage), str(interp))

    synth_dir = tmp_path / "synthetic"
    synth_dir.mkdir()
    s_lineage, s_interp = write_synthetic_bundle(synth_dir)
    permissive = run_cli("assess", str(s_lineage), str(s_interp))

    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(
        json.dumps(
            {
                "records": [record_for("a").to_dict(), record_for("b").to_dict()],
                "edges": [["a", "b"], ["b", "a"]],
                "root_id": "a",
            }
        )
    )
    cyclic_result = run_cli("range", str(cyclic))

    malformed = tmp_path / "vector.json"
    malformed.write_text(
        json.dumps(
            {
                "subject_id": "x",
                "vector": {
                    "metadata": {"licensor": "L", "license_name": "N", "dataset_name": "D"},
                    "standalone_rights": {"Access": {"grant": "granted"}},
                    "model_rights": {},
                },
            }
        )
    )
    malformed_result = run_cli("validate", str(malformed))

    codes = (
        denied.exit_code,
        permissive.exit_code,
        cyclic_result.exit_code,
        malformed_result.exit_code,
    )
    ok = codes == (3, 0, 2, 1)
    report("6 exit-code contract", ok)
    assert codes == (3, 0, 2, 1), f"got {codes}"
