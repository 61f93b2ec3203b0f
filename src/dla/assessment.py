"""Usage-scenario assessment: map scenarios to required rights, decide
permitted/denied against a verified license, and render the result table.

The scenario-to-rights mapping is data. The shipped defaults are:
DD (distribute the dataset) needs Distribute, RPEAI (release a product with
an embedded model) needs CommercializeModel, and CAI (commercialize model
output) needs CommercializeOutput.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from .errors import DuplicateScenario, ParseError, UnknownRight
from .jsonio import read_json
from .model import (
    AssessmentRow,
    AssessmentTable,
    Grant,
    UsageScenario,
    VerifiedLicense,
    _BlockingRight,
    merge_obligations,
)
from .resources import scenarios_path


def load_scenarios(path: Path, strict: bool = True) -> list[UsageScenario]:
    """Read a scenarios JSON document (a nonempty array of scenario objects,
    since a table of no scenario checks nothing); unknown fields are
    rejected, or warned about when ``strict`` is false."""
    data = read_json(path)
    if not isinstance(data, list):
        raise ParseError(str(path), "expected an array of scenarios")
    if not data:
        raise ParseError(str(path), "expected a nonempty array of scenarios")
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

    cited = {oid for row in rows for oid in row.obligations} | {o.id for o in advisory}
    first = merge_obligations(entry.obligations for entry in verified.rights.values())
    legend = {o.id: o for o in sorted(first, key=lambda o: o.id) if o.id in cited}

    return AssessmentTable(
        dataset_id=verified.root_id,
        dataset_name=dataset_name or verified.root_id,
        rows=rows,
        obligation_legend=legend,
        advisory_obligations=tuple(o.id for o in advisory),
    )


# A pipe would end a markdown table cell, and a line break the row, item or line.
_MARKDOWN_TEXT = str.maketrans({"|": "\\|", "\n": " ", "\r": " "})


def _markdown_text(text: str) -> str:
    """``text`` for one markdown line: ``|`` written ``\\|``, a line break a space."""
    return text.translate(_MARKDOWN_TEXT)


def _row(cells: Iterable[str]) -> str:
    """One markdown table row of ``cells``, each escaped."""
    return "| " + " | ".join(map(_markdown_text, cells)) + " |"


def _block(title: str, items: Iterable[str] = ()) -> list[str]:
    """A blank line, the line ``title``, then a ``- `` list item for each of
    ``items``; each line escaped."""
    return ["", _markdown_text(title), *("- " + _markdown_text(item) for item in items)]


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
    return _block(f"Residual risk (license content unavailable, not checked): {flags}")


def render_markdown(table: AssessmentTable, verified: VerifiedLicense) -> str:
    """Markdown report: one scenario-per-column table row, the obligation
    legend, the changed-rights diff with restrictor attribution, and the
    residual-risk flags."""
    header = ["Dataset"] + [row.scenario_id for row in table.rows]
    cells = [table.dataset_name] + [render_cell(row) for row in table.rows]
    lines = [f"# License compliance assessment: {_markdown_text(table.dataset_name)}", ""]
    lines += [_row(header), _row(["---"] * len(header)), _row(cells)]
    if table.obligation_legend:
        legend = table.obligation_legend.items()
        lines += _block("Obligations:", (f"{oid} - {o.text}" for oid, o in legend))
    if any(not row.permitted for row in table.rows):
        lines += _block("Blocked scenarios:", (
            f"{row.scenario_id}: {b.right} denied by {', '.join(b.restrictors)}" if b.restrictors
            else f"{row.scenario_id}: {b.right} not granted by the dataset license"
            for row in table.rows if not row.permitted for b in row.blocking_rights
        ))
    if verified.changed:
        lines += _block("Rights changed by source licenses:", (
            f"{right}: denied by {', '.join(verified.restrictors.get(right, ())) or '(policy)'}"
            for right in verified.changed
        ))
    lines += _residual_risk(verified)
    if table.advisory_obligations:
        lines += _block("Note: granted rights outside the requested scenarios carry obligations "
                        + "+".join(table.advisory_obligations) + " (see legend).")
    return "\n".join(lines + [""])


def render_rights_markdown(verified: VerifiedLicense, dataset_name: str | None = None) -> str:
    """Markdown view of a verified license: per-right grant, obligations, and
    the sources that forced a denial."""
    name = dataset_name or verified.root_id
    lines = [f"# Verified license: {_markdown_text(name)}", ""]
    lines += [_row(["Right", "Grant", "Obligations", "Restricted by"]), _row(["---"] * 4)]
    for right, entry in verified.rights.items():
        grant = entry.grant.value
        if right in verified.changed:
            grant += " (changed)"
        obligations = "+".join(o.id for o in entry.obligations) or "-"
        restrictors = ", ".join(verified.restrictors.get(right, ())) or "-"
        lines.append(_row([right, grant, obligations, restrictors]))
    return "\n".join(lines + _residual_risk(verified) + [""])
