"""Scenario assessment: decisions, obligations, table rendering."""

from __future__ import annotations

import json
import random
import re
import shutil

import pytest

from dla import UsageScenario, assess, assess_all, default_scenarios, verify
from dla.assessment import load_scenarios, render_cell, render_markdown, render_rights_markdown
from dla.errors import DuplicateScenario, UnknownRight
from dla.model import Grant, Obligation, ObligationKind, RightEntry, VerifiedLicense, replace

from helpers import DIGEST, FIXTURES_DIR, load_bundle, random_case, run_cli


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

    def test_legend_keeps_the_earliest_wording_of_a_repeated_id(self):
        early = Obligation(id="cite", text="Cite the paper.", kind=ObligationKind.CITE)
        late = Obligation(id="cite", text="Cite the website.", kind=ObligationKind.CITE)
        verified = VerifiedLicense(
            root_id="d",
            rights={"Access": RightEntry(Grant.GRANTED, (early,)),
                    "Tagging": RightEntry(Grant.GRANTED, (late,))},
            restrictors={"Access": (), "Tagging": ()},
            changed=(),
            residual_risk_flags=(),
        )
        table = assess_all(verified, [UsageScenario(id="S", required_rights=("Tagging",))])
        assert table.rows[0].obligations == ("cite",)
        assert table.obligation_legend == {"cite": early}


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


def table_rows(text: str) -> list[list[str]]:
    """The cells of each markdown table row, split at the pipes not escaped."""
    return [re.split(r"(?<!\\)\|", line)[1:-1] for line in text.splitlines() if line.startswith("|")]


class TestMarkdownText:
    """A pipe or a line break in a name stays inside its table cell or heading."""

    def test_a_dataset_name_with_a_pipe_keeps_its_row(self, tmp_path):
        bundle = shutil.copytree(FIXTURES_DIR / "cifar-10", tmp_path / "cifar-10")
        lineage = json.loads((bundle / "lineage.json").read_text(encoding="utf-8"))
        lineage["records"][0]["dataset_name"] = "CIFAR | 10"
        (bundle / "lineage.json").write_text(json.dumps(lineage), encoding="utf-8")
        result = run_cli("assess", bundle / "lineage.json", bundle / "interpretations")
        assert result.exit_code == 3
        lines = result.stdout.splitlines()
        assert lines[0] == "# License compliance assessment: CIFAR \\| 10"
        assert "| CIFAR \\| 10 | No | No | No |" in lines
        assert [len(row) for row in table_rows(result.stdout)] == [4, 4, 4]

    def test_scenario_and_obligation_ids_stay_in_their_cells(self):
        verified, _ = verified_for("ffhq")
        entry = RightEntry(Grant.GRANTED, (Obligation("o|1", "owed", ObligationKind.CITE),))
        verified = replace(verified, rights={**verified.rights, "Distribute": entry})
        scenarios = [UsageScenario(id="D|D", required_rights=("Distribute",)),
                     UsageScenario(id="two\nlines", required_rights=("Research",))]
        text = render_markdown(assess_all(verified, scenarios, "FF|HQ\r\nv2"), verified)
        assert text.splitlines()[0] == "# License compliance assessment: FF\\|HQ  v2"
        assert table_rows(text) == [
            [" Dataset ", " D\\|D ", " two lines "], [" --- "] * 3,
            [" FF\\|HQ  v2 ", " Yes(o\\|1) ", " Yes(C) "],
        ]

    def test_verified_rights_with_pipes_keep_four_columns(self):
        verified, _ = verified_for("cifar-10")
        entry = RightEntry(Grant.DENIED, (Obligation("ob|1", "owed", ObligationKind.CITE),))
        verified = replace(verified, rights={**verified.rights, "Custom|right\n": entry},
                           restrictors={**verified.restrictors, "Custom|right\n": ("src|a", "b")})
        text = render_rights_markdown(verified, "name|\nhere")
        assert text.splitlines()[0] == "# Verified license: name\\| here"
        assert {len(row) for row in table_rows(text)} == {4}
        assert "| Custom\\|right  | denied | ob\\|1 | src\\|a, b |" in text.splitlines()


def odd(name: str) -> str:
    """``name`` with a pipe, a carriage return, a line feed and a heading mark in it."""
    return f"{name}|\r\n# {name}"


def odd_md(name: str) -> str:
    """``odd(name)`` as a markdown report writes it."""
    return f"{name}\\|  # {name}"


# The odd names the two tests below give the cifar-10 analysis.
ODD_IDS = {"google": odd("google"), "80-million-tiny-images": odd("tiny")}
ODD_SCENARIOS = [UsageScenario(id=odd("DD"), required_rights=("Distribute",)),
                 UsageScenario(id=odd("R"), required_rights=("Research",)),
                 UsageScenario(id=odd("C"), required_rights=(odd("Custom"),))]
# The sources that deny every right cifar-10's sources change, as the reports write them.
ODD_SOURCES = f"altavista, ask, flickr, {odd_md('google')}, picsearch, webshots"


def report_blocks(text: str) -> list[list[str]]:
    """The output lines of a markdown report, in the blocks its blank lines part."""
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        if line:
            blocks[-1].append(line)
        else:
            blocks.append([])
    return blocks


def assert_one_line_each(assessment: dict, verified: dict, text: str) -> None:
    """In ``render_markdown``'s ``text``, each legend item, blocked-scenario
    line, rights-changed line, residual-risk line and note line is one output
    line, and no line but the first starts with ``#``."""
    lines = text.splitlines()
    assert [line for line in lines if line.startswith("#")] == lines[:1]
    heading, table, *blocks = report_blocks(text)
    assert (len(heading), len(table)) == (1, 3)
    rows = assessment["rows"]
    assert {len(row) for row in table_rows(text)} == {1 + len(rows)}
    blocked = [b for row in rows if not row["permitted"] for b in row["blocking_rights"]]
    expected = [("Obligations:", len(assessment["obligation_legend"])),
                ("Blocked scenarios:", len(blocked)),
                ("Rights changed by source licenses:", len(verified["changed"])),
                ("Residual risk (license content unavailable, not checked): ", 0),
                ("Note: granted rights outside the requested scenarios carry obligations ", 0)]
    titles = [title for title, _ in expected]
    assert [(block[0][:len(t)], len(block) - 1) for block, t in zip(blocks, titles)] == expected
    assert len(blocks) == len(expected)
    assert all(line.startswith("- ") for block in blocks for line in block[1:])
    assert f"- {odd_md('cite')} - {odd_md('owed')}" in lines
    assert f"- {odd_md('C')}: {odd_md('Custom')} denied by {ODD_SOURCES}" in lines


def assert_rights_one_line_each(verified: dict, text: str) -> None:
    """In ``render_rights_markdown``'s ``text``, each right is one table row of
    four cells, the residual-risk line is one output line, and no line but the
    first starts with ``#``."""
    lines = text.splitlines()
    assert [line for line in lines if line.startswith("#")] == lines[:1]
    heading, table, residual = report_blocks(text)
    assert (len(heading), len(table)) == (1, 2 + len(verified["rights"]))
    assert {len(row) for row in table_rows(text)} == {4}
    assert residual == [
        f"Residual risk (license content unavailable, not checked): cydral, {odd_md('tiny')}"
    ]
    assert f"| {odd_md('Custom')} | denied (changed) | - | {ODD_SOURCES} |" in lines


class TestMarkdownLines:
    """Input text with a pipe or a line break stays inside its own cell, item or
    line in every part of both reports, so none starts a markdown heading."""

    def test_odd_names_keep_their_lines_in_process(self):
        verified, graph = verified_for("cifar-10")
        owed = (Obligation(odd("cite"), odd("owed"), ObligationKind.CITE),)
        rights = {name: replace(entry, obligations=owed) for name, entry in verified.rights.items()}
        restrictors = {name: tuple(ODD_IDS.get(s, s) for s in sources)
                       for name, sources in verified.restrictors.items()}
        flags = verified.residual_risk_flags
        verified = replace(
            verified,
            rights={**rights, odd("Custom"): RightEntry(Grant.DENIED)},
            restrictors={**restrictors, odd("Custom"): restrictors["Distribute"]},
            changed=(*verified.changed, odd("Custom")),
            residual_risk_flags=tuple(sorted(ODD_IDS.get(n, n) for n in flags)),
        )
        table = assess_all(verified, ODD_SCENARIOS, graph.root.dataset_name)
        assert_one_line_each(table.to_dict(), verified.to_dict(), render_markdown(table, verified))
        assert_rights_one_line_each(verified.to_dict(), render_rights_markdown(verified))

    def test_odd_names_keep_their_lines_through_the_cli(self, tmp_path):
        bundle = shutil.copytree(FIXTURES_DIR / "cifar-10", tmp_path / "cifar-10")
        lineage_path, interp = bundle / "lineage.json", bundle / "interpretations"
        lineage = json.loads(lineage_path.read_text(encoding="utf-8"))
        for record in lineage["records"]:
            record["subject_id"] = ODD_IDS.get(record["subject_id"], record["subject_id"])
        lineage["edges"] = [[ODD_IDS.get(n, n) for n in edge] for edge in lineage["edges"]]
        lineage_path.write_text(json.dumps(lineage), encoding="utf-8")
        owed = [{"id": odd("cite"), "text": odd("owed"), "kind": "cite"}]
        for path in interp.glob("*.json"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["subject_id"] = ODD_IDS.get(doc["subject_id"], doc["subject_id"])
            if doc["subject_id"] == "cifar-10":
                for group in ("standalone_rights", "model_rights"):
                    for entry in doc["vector"][group].values():
                        entry["obligations"] = owed
            if doc["subject_id"] in ("cifar-10", odd("google")):
                grant = "granted" if doc["subject_id"] == "cifar-10" else "denied"
                custom = {odd("Custom"): {"grant": grant, "obligations": []}}
                doc["vector"]["custom_rights"] = custom
            path.write_text(json.dumps(doc), encoding="utf-8")
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text(json.dumps([s.to_dict() for s in ODD_SCENARIOS]), encoding="utf-8")

        assess_args = ["assess", "--no-gate", "--scenarios", scenarios, lineage_path, interp]
        doc = json.loads(run_cli("--format", "json", *assess_args).stdout)
        result = run_cli(*assess_args)
        assert result.exit_code == 0
        assert_one_line_each(doc["assessment"], doc["verified_license"], result.stdout)
        verified = json.loads(run_cli("--format", "json", "verify", lineage_path, interp).stdout)
        result = run_cli("verify", lineage_path, interp)
        assert result.exit_code == 0
        assert_rights_one_line_each(verified, result.stdout)
