"""Usage-scenario assessment: map scenarios to required rights, decide
permitted/denied against a verified license, and render the result table.

The scenario-to-rights mapping is data. The shipped defaults are:
DD (distribute the dataset) needs Distribute, RPEAI (release a product with
an embedded model) needs CommercializeModel, and CAI (commercialize model
output) needs CommercializeOutput.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .errors import DuplicateScenario, ParseError, UnknownRight
from .model import (
    AssessmentRow,
    AssessmentTable,
    Grant,
    Obligation,
    UsageScenario,
    VerifiedLicense,
    _BlockingRight,
    merge_obligations,
    read_json,
)
from .resources import scenarios_path


def load_scenarios(path: Path, strict: bool = True) -> list[UsageScenario]:
    """Read a scenarios JSON document (an array of scenario objects); unknown
    fields are rejected, or warned about when ``strict`` is false."""
    data = read_json(path)
    if not isinstance(data, list):
        raise ParseError(str(path), "expected an array of scenarios")
    return [
        UsageScenario.from_dict(item, f"{path}[{i}]", strict) for i, item in enumerate(data)
    ]


def default_scenarios() -> list[UsageScenario]:
    """The three shipped commercial scenarios: DD, RPEAI, CAI."""
    return load_scenarios(scenarios_path())


def assess(verified: VerifiedLicense, scenario: UsageScenario) -> AssessmentRow:
    """Decide one scenario against a verified license.

    Permitted iff every required right is Granted. Obligations are the
    id-deduplicated union over the granted required rights, in scenario
    order; blocking rights carry their restrictors so a reviewer can see who
    denied what.
    """
    for right in scenario.required_rights:
        if right not in verified.rights:
            raise UnknownRight(right)
    granted = [r for r in scenario.required_rights if verified.grant(r) is Grant.GRANTED]
    blocked = [r for r in scenario.required_rights if verified.grant(r) is not Grant.GRANTED]
    obligations = merge_obligations([verified.rights[r].obligations for r in granted])
    return AssessmentRow(
        scenario_id=scenario.id,
        permitted=not blocked,
        obligations=tuple(o.id for o in obligations),
        blocking_rights=tuple(_BlockingRight(r, verified.restrictors.get(r, ())) for r in blocked),
    )


def assess_all(
    verified: VerifiedLicense,
    scenarios: Sequence[UsageScenario],
    dataset_name: str | None = None,
) -> AssessmentTable:
    """Assess every scenario, in input order, into one table.

    The obligation legend covers every id cited by any row plus the advisory
    list: obligations on granted rights that no scenario in the table asked
    about, included so reviewers see the full duty surface.
    """
    seen: set[str] = set()
    for scenario in scenarios:
        if scenario.id in seen:
            raise DuplicateScenario(scenario.id)
        seen.add(scenario.id)

    rows = tuple(assess(verified, scenario) for scenario in scenarios)

    required_anywhere = {r for s in scenarios for r in s.required_rights}
    advisory = merge_obligations(
        [
            entry.obligations
            for name, entry in verified.rights.items()
            if entry.grant is Grant.GRANTED and name not in required_anywhere
        ]
    )

    legend: dict[str, Obligation] = {}
    cited = {oid for row in rows for oid in row.obligations} | {o.id for o in advisory}
    for entry in verified.rights.values():
        for obligation in entry.obligations:
            if obligation.id in cited and obligation.id not in legend:
                legend[obligation.id] = obligation
    legend = {oid: legend[oid] for oid in sorted(legend)}

    return AssessmentTable(
        dataset_id=verified.root_id,
        dataset_name=dataset_name or verified.root_id,
        rows=rows,
        obligation_legend=legend,
        advisory_obligations=tuple(o.id for o in advisory),
    )


def render_cell(row: AssessmentRow) -> str:
    """A table cell in the report style: ``Yes(C+D)``, ``Yes``, or ``No``."""
    if not row.permitted:
        return "No"
    if row.obligations:
        return "Yes(" + "+".join(row.obligations) + ")"
    return "Yes"


def _residual_risk(verified: VerifiedLicense) -> list[str]:
    """The report lines naming the sources never checked, if there are any."""
    if not verified.residual_risk_flags:
        return []
    flags = ", ".join(verified.residual_risk_flags)
    return ["", f"Residual risk (license content unavailable, not checked): {flags}"]


def render_markdown(table: AssessmentTable, verified: VerifiedLicense) -> str:
    """Markdown report: one scenario-per-column table row, the obligation
    legend, the changed-rights diff with restrictor attribution, and the
    residual-risk flags."""
    lines: list[str] = []
    lines.append(f"# License compliance assessment: {table.dataset_name}")
    lines.append("")
    header = ["Dataset"] + [row.scenario_id for row in table.rows]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + " --- |" * len(header))
    cells = [table.dataset_name] + [render_cell(row) for row in table.rows]
    lines.append("| " + " | ".join(cells) + " |")

    if table.obligation_legend:
        lines.append("")
        lines.append("Obligations:")
        for oid, obligation in table.obligation_legend.items():
            lines.append(f"- {oid} - {obligation.text}")

    blocking = [(row.scenario_id, row.blocking_rights) for row in table.rows if not row.permitted]
    if blocking:
        lines.append("")
        lines.append("Blocked scenarios:")
        for scenario_id, rights in blocking:
            for b in rights:
                if b.restrictors:
                    lines.append(f"- {scenario_id}: {b.right} denied by {', '.join(b.restrictors)}")
                else:
                    lines.append(f"- {scenario_id}: {b.right} not granted by the dataset license")

    if verified.changed:
        lines.append("")
        lines.append("Rights changed by source licenses:")
        for right in verified.changed:
            restrictors = verified.restrictors.get(right, ())
            who = ", ".join(restrictors) if restrictors else "(policy)"
            lines.append(f"- {right}: denied by {who}")
    lines += _residual_risk(verified)

    if table.advisory_obligations:
        lines.append("")
        lines.append(
            "Note: granted rights outside the requested scenarios carry obligations "
            + "+".join(table.advisory_obligations)
            + " (see legend)."
        )
    lines.append("")
    return "\n".join(lines)


def render_rights_markdown(verified: VerifiedLicense, dataset_name: str | None = None) -> str:
    """Markdown view of a verified license: per-right grant, obligations, and
    the sources that forced a denial."""
    name = dataset_name or verified.root_id
    lines = [f"# Verified license: {name}", ""]
    lines.append("| Right | Grant | Obligations | Restricted by |")
    lines.append("| --- | --- | --- | --- |")
    for right, entry in verified.rights.items():
        grant = entry.grant.value
        if right in verified.changed:
            grant += " (changed)"
        obligations = "+".join(o.id for o in entry.obligations) or "-"
        restrictors = ", ".join(verified.restrictors.get(right, ())) or "-"
        lines.append(f"| {right} | {grant} | {obligations} | {restrictors} |")
    lines += _residual_risk(verified)
    lines.append("")
    return "\n".join(lines)
