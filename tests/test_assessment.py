"""Scenario assessment: decisions, obligations, table rendering."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from dla import UsageScenario, assess, assess_all, default_scenarios, verify
from dla.assessment import load_scenarios, render_cell, render_markdown
from dla.errors import DuplicateScenario, UnknownRight
from dla.model import Grant, RightEntry

from helpers import DIGEST, load_bundle, random_case


def verified_for(bundle: str):
    graph, interp = load_bundle(bundle)
    verified = verify(graph, interp.vectors, template_digests=interp.template_digests,
                      inputs_digest=DIGEST)
    return verified, graph


class TestAssess:
    def test_cifar_rpeai_not_permitted(self):
        verified, _ = verified_for("cifar-10")
        rpeai = UsageScenario(id="RPEAI", required_rights=("CommercializeModel",))
        row = assess(verified, rpeai)
        assert not row.permitted
        assert [b.right for b in row.blocking_rights] == ["CommercializeModel"]
        assert row.blocking_rights[0].restrictors  # restrictors are attributed

    def test_ffhq_dd_permitted_with_link_and_takedown(self):
        verified, _ = verified_for("ffhq")
        dd = UsageScenario(id="DD", required_rights=("Distribute",))
        row = assess(verified, dd)
        assert row.permitted
        assert list(row.obligations) == ["C", "D"]
        assert row.blocking_rights == ()

    def test_unknown_right_rejected(self):
        verified, _ = verified_for("cifar-10")
        scenario = UsageScenario(id="X", required_rights=("Teleport",))
        with pytest.raises(UnknownRight):
            assess(verified, scenario)

    def test_multi_right_scenario_unions_obligations(self):
        verified, _ = verified_for("ms-coco-annotations")
        both = UsageScenario(id="BOTH", required_rights=("Distribute", "CommercializeModel"))
        row = assess(verified, both)
        assert row.permitted
        assert list(row.obligations) == ["B", "E", "D"]


class TestAssessAll:
    def test_vggface2_row(self):
        verified, graph = verified_for("vggface2")
        table = assess_all(verified, default_scenarios(), dataset_name=graph.root.dataset_name)
        cells = {row.scenario_id: render_cell(row) for row in table.rows}
        assert cells == {"DD": "Yes(A+E+D)", "RPEAI": "No", "CAI": "No"}

    def test_ms_coco_annotations_variant_row(self):
        verified, graph = verified_for("ms-coco-annotations")
        table = assess_all(verified, default_scenarios(), dataset_name=graph.root.dataset_name)
        cells = {row.scenario_id: render_cell(row) for row in table.rows}
        assert cells == {"DD": "Yes(B+E+D)", "RPEAI": "Yes(B)", "CAI": "Yes(B)"}

    def test_rows_follow_input_order(self):
        verified, _ = verified_for("cifar-10")
        scenarios = list(reversed(default_scenarios()))
        table = assess_all(verified, scenarios)
        assert [row.scenario_id for row in table.rows] == ["CAI", "RPEAI", "DD"]

    def test_duplicate_scenario_rejected(self):
        verified, _ = verified_for("cifar-10")
        dd = UsageScenario(id="DD", required_rights=("Distribute",))
        with pytest.raises(DuplicateScenario):
            assess_all(verified, [dd, dd])

    def test_permitted_rows_have_no_blockers_and_vice_versa(self):
        for bundle in ("cifar-10", "ffhq", "vggface2", "ms-coco-annotations"):
            verified, _ = verified_for(bundle)
            for row in assess_all(verified, default_scenarios()).rows:
                if row.permitted:
                    assert row.blocking_rights == ()
                else:
                    assert row.blocking_rights != ()

    def test_obligations_subset_of_verified(self):
        rng = random.Random(31)
        scenarios = default_scenarios()
        for _ in range(50):
            graph, interpretations = random_case(rng)
            verified = verify(graph, interpretations, inputs_digest=DIGEST)
            table = assess_all(verified, scenarios)
            all_ids = {
                o.id for entry in verified.rights.values() for o in entry.obligations
            }
            for row in table.rows:
                assert set(row.obligations) <= all_ids

    def test_antitone_in_restrictions(self):
        # Denying one more right never flips a decision from No to Yes.
        rng = random.Random(32)
        scenarios = default_scenarios()
        checked = 0
        while checked < 50:
            graph, interpretations = random_case(rng)
            verified = verify(graph, interpretations, inputs_digest=DIGEST)
            granted = [r for r in verified.rights if verified.grant(r) is Grant.GRANTED]
            if not granted:
                continue
            checked += 1
            victim = rng.choice(granted)
            restricted_rights = dict(verified.rights)
            restricted_rights[victim] = RightEntry(grant=Grant.DENIED)
            restricted = replace(verified, rights=restricted_rights)
            before = {row.scenario_id: row.permitted for row in assess_all(verified, scenarios).rows}
            after = {
                row.scenario_id: row.permitted for row in assess_all(restricted, scenarios).rows
            }
            for scenario_id, after_permitted in after.items():
                if not before[scenario_id]:
                    assert not after_permitted

    def test_advisory_lists_non_required_granted_obligations(self):
        verified, _ = verified_for("cifar-10")
        table = assess_all(verified, default_scenarios())
        # The citation duty rides on granted rights no default scenario needs.
        assert "cite-cifar10" in table.advisory_obligations
        assert "cite-cifar10" in table.obligation_legend


class TestDefaultScenarios:
    def test_three_shipped_scenarios(self):
        scenarios = default_scenarios()
        assert len(scenarios) == 3
        by_id = {s.id: s.required_rights for s in scenarios}
        assert by_id["DD"] == ("Distribute",)
        assert by_id["RPEAI"] == ("CommercializeModel",)
        assert by_id["CAI"] == ("CommercializeOutput",)

    def test_custom_scenarios_file(self, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text('[{"id": "TRAIN", "required_rights": ["Research"]}]')
        scenarios = load_scenarios(path)
        assert scenarios == [UsageScenario(id="TRAIN", required_rights=("Research",))]


class TestMarkdown:
    def test_table_shape_and_legend(self):
        verified, graph = verified_for("ffhq")
        table = assess_all(verified, default_scenarios(), dataset_name=graph.root.dataset_name)
        text = render_markdown(table, verified)
        assert "| Dataset | DD | RPEAI | CAI |" in text
        assert "| FFHQ | Yes(C+D) | No | No |" in text
        assert "- C - Provide a link to license CC-BY-NC-SA 4.0" in text
        assert "- D - Remove infringing content as soon as possible" in text
        assert "Residual risk" in text and "flickr" in text

    def test_changed_rights_and_restrictors_shown(self):
        verified, graph = verified_for("cifar-10")
        table = assess_all(verified, default_scenarios(), dataset_name=graph.root.dataset_name)
        text = render_markdown(table, verified)
        assert "Rights changed by source licenses:" in text
        assert "- Tagging: denied by" in text and "google" in text
        assert "| CIFAR-10 | No | No | No |" in text

    def test_rendering_is_deterministic(self):
        verified, graph = verified_for("cifar-10")
        table = assess_all(verified, default_scenarios(), dataset_name=graph.root.dataset_name)
        assert render_markdown(table, verified) == render_markdown(table, verified)
