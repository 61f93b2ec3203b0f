"""Restrictive-wins resolution: fixture expectations, randomized oracle
equivalence, and the engine's algebraic properties."""

from __future__ import annotations

import json
import random

import pytest

from dla import EnginePolicy, assess_all, default_scenarios, verify
from dla.errors import MissingRootInterpretation, UninterpretedNode
from dla.model import (
    FIXED_RIGHTS,
    AssessmentTable,
    Grant,
    LicenseMetadata,
    ProvenanceRecord,
    RightEntry,
    RightsVector,
    VerifiedLicense,
    canonical_json,
)
from dla.lineage import LineageGraph, build_lineage

from helpers import (
    BUNDLE_NAMES,
    DIGEST,
    bundle_paths,
    load_bundle,
    oracle_verify,
    random_case,
    random_vector,
    record_for,
)

CHANGED_RIGHTS = {"Tagging", "Distribute", "Rerepresent", "CommercializeOutput", "CommercializeModel"}
PRESERVED_RIGHTS = {"Access", "Benchmark", "Research", "Publish", "InternalUse", "ModelReverseEngineer"}


def total_vector(grant: Grant = Grant.GRANTED, name: str = "v") -> RightsVector:
    entry = RightEntry(grant=grant)
    return RightsVector(
        metadata=LicenseMetadata(licensor="L", license_name="N", dataset_name=name),
        standalone_rights={r: entry for r in FIXED_RIGHTS[:4]},
        model_rights={r: entry for r in FIXED_RIGHTS[4:]},
    )


class TestCifarFixture:
    def test_changed_rights_exactly(self):
        graph, interp = load_bundle("cifar-10")
        verified = verify(graph, interp.vectors, inputs_digest=DIGEST)
        assert set(verified.changed) == CHANGED_RIGHTS

    def test_preserved_rights_stay_granted(self):
        graph, interp = load_bundle("cifar-10")
        verified = verify(graph, interp.vectors, inputs_digest=DIGEST)
        for right in PRESERVED_RIGHTS:
            assert verified.grant(right) is Grant.GRANTED

    def test_residual_risk_flags(self):
        graph, interp = load_bundle("cifar-10")
        verified = verify(graph, interp.vectors, inputs_digest=DIGEST)
        assert {"80-million-tiny-images", "cydral"} <= set(verified.residual_risk_flags)

    def test_tagging_restricted_by_google_and_flickr(self):
        graph, interp = load_bundle("cifar-10")
        verified = verify(graph, interp.vectors, inputs_digest=DIGEST)
        assert {"google", "flickr"} <= set(verified.restrictors["Tagging"])

    def test_granted_rights_keep_citation_obligation(self):
        graph, interp = load_bundle("cifar-10")
        verified = verify(graph, interp.vectors, inputs_digest=DIGEST)
        for right in PRESERVED_RIGHTS:
            assert [o.id for o in verified.rights[right].obligations] == ["cite-cifar10"]


class TestSingleNode:
    def test_identity_with_root_vector(self):
        vector = total_vector()
        graph = build_lineage([record_for("solo")], [], "solo")
        verified = verify(graph, {"solo": vector}, inputs_digest=DIGEST)
        assert verified.changed == ()
        assert verified.residual_risk_flags == ()
        for right in FIXED_RIGHTS:
            assert verified.rights[right] == vector.entry(right)

    def test_identity_preserves_unspecified(self):
        vector = total_vector(grant=Grant.UNSPECIFIED)
        graph = build_lineage([record_for("solo")], [], "solo")
        verified = verify(graph, {"solo": vector}, inputs_digest=DIGEST)
        assert verified.changed == ()
        for right in FIXED_RIGHTS:
            assert verified.grant(right) is Grant.UNSPECIFIED


class TestErrors:
    def test_missing_root_interpretation(self):
        graph = build_lineage([record_for("solo")], [], "solo")
        with pytest.raises(MissingRootInterpretation):
            verify(graph, {}, inputs_digest=DIGEST)
        with pytest.raises(MissingRootInterpretation):
            verify(graph, {"solo": None}, inputs_digest=DIGEST)

    def test_uninterpreted_node(self):
        graph = build_lineage([record_for("r"), record_for("s")], [("r", "s")], "r")
        with pytest.raises(UninterpretedNode) as exc:
            verify(graph, {"r": total_vector()}, inputs_digest=DIGEST)
        assert exc.value.node_id == "s"


class TestOracleEquivalence:
    def test_randomized_cases_match_brute_force(self):
        rng = random.Random(20240817)
        for _ in range(300):
            graph, interpretations = random_case(rng)
            verified = verify(graph, interpretations, inputs_digest=DIGEST)
            expected = oracle_verify(graph, interpretations)
            for right, granted in expected["grants"].items():
                assert (verified.grant(right) is Grant.GRANTED) == granted, right
                if granted:
                    actual_ids = [o.id for o in verified.rights[right].obligations]
                    assert actual_ids == expected["obligations"][right], right
            assert list(verified.residual_risk_flags) == expected["residual"]

    def test_randomized_cases_match_brute_force_unknown_denies(self):
        rng = random.Random(77)
        policy = EnginePolicy(unknown_denies=True)
        for _ in range(150):
            graph, interpretations = random_case(rng)
            verified = verify(graph, interpretations, policy, inputs_digest=DIGEST)
            expected = oracle_verify(graph, interpretations, policy)
            for right, granted in expected["grants"].items():
                assert (verified.grant(right) is Grant.GRANTED) == granted, right


class TestProperties:
    def test_monotonicity_adding_a_node_never_upgrades(self):
        rng = random.Random(9)
        for _ in range(100):
            graph, interpretations = random_case(rng, max_nodes=6)
            before = verify(graph, interpretations, inputs_digest=DIGEST)
            extra = record_for("zz-extra")
            attach = rng.choice(sorted(graph.nodes))
            bigger = build_lineage(
                list(graph.nodes.values()) + [extra],
                list(graph.edges) + [(attach, "zz-extra")],
                graph.root_id,
            )
            enlarged = dict(interpretations)
            enlarged["zz-extra"] = rng.choice([None, random_vector(rng, "zz-extra")])
            after = verify(bigger, enlarged, inputs_digest=DIGEST)
            for right in before.rights:
                if before.grant(right) is not Grant.GRANTED:
                    assert after.grant(right) is not Grant.GRANTED

    def test_conjunction_soundness(self):
        rng = random.Random(10)
        for _ in range(100):
            graph, interpretations = random_case(rng)
            verified = verify(graph, interpretations, inputs_digest=DIGEST)
            for right in verified.rights:
                if verified.grant(right) is Grant.GRANTED:
                    for node_id, vector in interpretations.items():
                        if vector is not None:
                            assert vector.grant(right) is Grant.GRANTED

    def test_obligation_superset_of_root(self):
        rng = random.Random(11)
        for _ in range(100):
            graph, interpretations = random_case(rng)
            verified = verify(graph, interpretations, inputs_digest=DIGEST)
            root = interpretations[graph.root_id]
            for right in verified.rights:
                if verified.grant(right) is Grant.GRANTED:
                    root_ids = {o.id for o in root.entry(right).obligations}
                    verified_ids = {o.id for o in verified.rights[right].obligations}
                    assert root_ids <= verified_ids

    def test_unavailable_node_neutrality(self):
        rng = random.Random(12)
        checked = 0
        while checked < 60:
            graph, interpretations = random_case(rng)
            unavailable = [n for n, v in interpretations.items() if v is None]
            if not unavailable:
                continue
            checked += 1
            before = verify(graph, interpretations, inputs_digest=DIGEST)
            swapped = dict(interpretations)
            swapped[unavailable[0]] = total_vector(name=unavailable[0])
            after = verify(graph, swapped, inputs_digest=DIGEST)
            for right in before.rights:
                assert before.grant(right) is after.grant(right)

    def test_determinism_under_permutation(self):
        rng = random.Random(13)
        for _ in range(30):
            graph, interpretations = random_case(rng)
            records = list(graph.nodes.values())
            edges = list(graph.edges)
            items = list(interpretations.items())
            rng.shuffle(records)
            rng.shuffle(edges)
            rng.shuffle(items)
            permuted_graph = build_lineage(records, edges, graph.root_id)
            permuted = verify(permuted_graph, dict(items), inputs_digest=DIGEST)
            original = verify(graph, interpretations, inputs_digest=DIGEST)
            assert permuted == original
            assert canonical_json(permuted.to_dict()) == canonical_json(original.to_dict())


class TestUnknownDeniesPolicy:
    def test_unavailable_sources_deny_when_flagged(self):
        graph = build_lineage([record_for("r"), record_for("s")], [("r", "s")], "r")
        interpretations = {"r": total_vector(), "s": None}
        default = verify(graph, interpretations, inputs_digest=DIGEST)
        strict = verify(graph, interpretations, EnginePolicy(unknown_denies=True),
                        inputs_digest=DIGEST)
        assert all(default.grant(r) is Grant.GRANTED for r in FIXED_RIGHTS)
        assert all(strict.grant(r) is Grant.DENIED for r in FIXED_RIGHTS)
        assert set(strict.changed) == set(FIXED_RIGHTS)
        for right in FIXED_RIGHTS:
            assert strict.restrictors[right] == ("s",)
        # Unavailability is surfaced either way.
        assert default.residual_risk_flags == ("s",)
        assert strict.residual_risk_flags == ("s",)

    def test_restrictors_list_unavailable_and_denying_sources_in_id_order(self):
        # "b" denies; "a" and "c" are unavailable, so they deny only when flagged.
        graph = build_lineage([record_for(n) for n in "rabc"], [("r", n) for n in "abc"], "r")
        interpretations = {"r": total_vector(), "a": None, "b": total_vector(Grant.DENIED),
                           "c": None}
        strict = verify(graph, interpretations, EnginePolicy(unknown_denies=True),
                        inputs_digest=DIGEST)
        default = verify(graph, interpretations, inputs_digest=DIGEST)
        for right in FIXED_RIGHTS:
            assert strict.restrictors[right] == ("a", "b", "c")
            assert default.restrictors[right] == ("b",)


class TestDiffRights:
    """``VerifiedLicense.changed`` names exactly the rights whose grant differs
    from the root's own vector."""

    @staticmethod
    def grant_diff(own: RightsVector, verified) -> set[str]:
        names = FIXED_RIGHTS + tuple(own.custom_rights)
        return {name for name in names if own.grant(name) is not verified.grant(name)}

    def test_cifar_diff_names_the_five_flipped_rights(self):
        graph, interp = load_bundle("cifar-10")
        verified = verify(graph, interp.vectors, inputs_digest=DIGEST)
        assert set(verified.changed) == CHANGED_RIGHTS
        assert self.grant_diff(interp.vectors["cifar-10"], verified) == CHANGED_RIGHTS

    def test_identical_vectors_diff_empty(self):
        vector = total_vector()
        graph = build_lineage([record_for("solo")], [], "solo")
        verified = verify(graph, {"solo": vector}, inputs_digest=DIGEST)
        assert verified.changed == ()
        assert self.grant_diff(vector, verified) == set()

    def test_grant_only_semantics_ignores_restrictors_and_obligations(self):
        # Root denies a right itself; a source also denies it. Grants agree,
        # so nothing changed no matter who restricted what.
        root = total_vector(grant=Grant.DENIED, name="r")
        source = total_vector(grant=Grant.DENIED, name="s")
        graph = build_lineage([record_for("r"), record_for("s")], [("r", "s")], "r")
        verified = verify(graph, {"r": root, "s": source}, inputs_digest=DIGEST)
        assert verified.changed == ()
        assert self.grant_diff(root, verified) == set()


class TestCustomRights:
    def test_custom_right_present_in_some_vectors_only(self):
        root = total_vector(name="r")
        source = RightsVector(
            metadata=LicenseMetadata(licensor="L", license_name="N", dataset_name="s"),
            standalone_rights=total_vector().standalone_rights,
            model_rights=total_vector().model_rights,
            custom_rights={"AdversarialModelTraining": RightEntry(grant=Grant.GRANTED)},
        )
        graph = build_lineage([record_for("r"), record_for("s")], [("r", "s")], "r")
        verified = verify(graph, {"r": root, "s": source}, inputs_digest=DIGEST)
        # The root never granted it, so it stays unspecified (not granted).
        assert verified.grant("AdversarialModelTraining") is Grant.UNSPECIFIED
        assert "AdversarialModelTraining" in verified.rights
        assert "AdversarialModelTraining" not in verified.changed

    def test_source_without_an_entry_for_a_granted_custom_right_denies_it(self):
        # The catalog registered no custom right, so nothing filled in the
        # source's missing entry: a right it never mentions is not granted.
        granted = RightEntry(grant=Grant.GRANTED)
        root = RightsVector(
            metadata=LicenseMetadata(licensor="L", license_name="N", dataset_name="r"),
            standalone_rights=total_vector().standalone_rights,
            model_rights=total_vector().model_rights,
            custom_rights={"AdversarialModelTraining": granted},
        )
        graph = build_lineage([record_for("r"), record_for("s")], [("r", "s")], "r")
        verified = verify(graph, {"r": root, "s": total_vector(name="s")}, inputs_digest=DIGEST)
        assert verified.grant("AdversarialModelTraining") is Grant.DENIED
        assert verified.restrictors["AdversarialModelTraining"] == ("s",)
        assert verified.changed == ("AdversarialModelTraining",)

    @pytest.mark.parametrize("first, later", [(Grant.GRANTED, Grant.DENIED),
                                              (Grant.DENIED, Grant.GRANTED)])
    def test_a_name_in_two_groups_reads_from_the_first_group(self, first, later):
        """`RightsVector.entry` reads standalone, then model, then custom
        rights; verify reads a source's right the same way."""
        root = total_vector(name="r")
        granted = RightEntry(grant=Grant.GRANTED)
        source = RightsVector(
            metadata=LicenseMetadata(licensor="L", license_name="N", dataset_name="s"),
            standalone_rights={"Access": RightEntry(grant=first), "Tagging": granted},
            model_rights={"Access": RightEntry(grant=later), "Tagging": granted,
                          **total_vector().model_rights},
            custom_rights={"Access": RightEntry(grant=later)},
        )
        assert source.grant("Access") is first
        graph = build_lineage([record_for("r"), record_for("s")], [("r", "s")], "r")
        verified = verify(graph, {"r": root, "s": source}, inputs_digest=DIGEST)
        assert verified.grant("Access") is first
        assert verified.restrictors["Access"] == (() if first is Grant.GRANTED else ("s",))

    def test_audit_trailer_contents(self):
        graph, interp = load_bundle("ffhq")
        verified = verify(
            graph, interp.vectors, template_digests=interp.template_digests, inputs_digest=DIGEST
        )
        assert verified.audit is not None
        assert verified.audit.policy == {"unknown_denies": False}
        assert "CC-BY-NC-SA-4.0" in verified.audit.template_digests
        assert verified.audit.generated_at is None
        assert len(verified.audit.inputs_digest) == 64


def round_trip(cls, value):
    return cls.from_dict(json.loads(canonical_json(value.to_dict())))


@pytest.mark.parametrize("unknown_denies", [False, True])
@pytest.mark.parametrize("bundle", BUNDLE_NAMES)
def test_every_analysis_equals_its_canonical_json_round_trip(bundle, unknown_denies):
    # Built from the lineage file's own lists, so the graph must hold tuples.
    lineage_path, _ = bundle_paths(bundle)
    doc = json.loads(lineage_path.read_text(encoding="utf-8"))
    records = [ProvenanceRecord.from_dict(r) for r in doc["records"]]
    graph = build_lineage(records, doc["edges"], doc["root_id"])
    _, interp = load_bundle(bundle)
    verified = verify(
        graph,
        interp.vectors,
        EnginePolicy(unknown_denies=unknown_denies),
        template_digests=interp.template_digests,
        inputs_digest=DIGEST,
    )
    table = assess_all(verified, default_scenarios(), graph.root.dataset_name)
    assert round_trip(LineageGraph, graph) == graph
    assert round_trip(VerifiedLicense, verified) == verified
    assert round_trip(AssessmentTable, table) == table
