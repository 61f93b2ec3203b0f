"""Expected ``dla`` answers, computed from the bundle files alone.

Nothing here imports ``dla``: the oracle reads the authored documents and the
template data files and derives the answer by brute force, the way
``tests/helpers.py::oracle_verify`` does.

- ``assess``: per right, AND-fold the boolean grants of the root and every
  interpreted source (Unspecified counts as denied); union obligation ids
  root first, then by subject id.
- ``range``: walk upward level by level to the nearest dataset ancestors.
- The shipped fixtures are also held to the paper's DD/RPEAI/CAI table and
  its CIFAR-10 license ranges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from workloads import MODEL_RIGHTS, STANDALONE_RIGHTS, Bundle

FIXED_RIGHTS = STANDALONE_RIGHTS + MODEL_RIGHTS
# The paper's commercial scenarios and the right each one needs.
SCENARIOS = (("DD", "Distribute"), ("RPEAI", "CommercializeModel"), ("CAI", "CommercializeOutput"))

PAPER_TABLE = {
    "cifar-10": {"DD": "No", "RPEAI": "No", "CAI": "No"},
    "imagenet": {"DD": "No", "RPEAI": "No", "CAI": "No"},
    "cityscapes": {"DD": "No", "RPEAI": "No", "CAI": "No"},
    "ffhq": {"DD": "Yes(C+D)", "RPEAI": "No", "CAI": "No"},
    "vggface2": {"DD": "Yes(A+E+D)", "RPEAI": "No", "CAI": "No"},
    "ms-coco": {"DD": "No", "RPEAI": "No", "CAI": "No"},
    "ms-coco-annotations": {"DD": "Yes(B+E+D)", "RPEAI": "Yes(B)", "CAI": "Yes(B)"},
}
CIFAR10_RANGES = {"cifar-10": "2008-2009"} | {
    source: "2005-2006"
    for source in (
        "80-million-tiny-images", "google", "flickr", "ask",
        "altavista", "picsearch", "webshots", "cydral",
    )
}


def _load(path: Path) -> object:
    return json.loads(path.read_text(encoding="utf-8"))


def _granted(entry: dict | None) -> bool:
    return entry is not None and entry["grant"] in ("granted", True)


def _rights_of(vector: dict) -> dict[str, dict]:
    rights: dict[str, dict] = {}
    for group in ("standalone_rights", "model_rights", "custom_rights"):
        rights.update(vector.get(group) or {})
    return rights


def _templated(doc: dict, templates: dict[str, dict]) -> dict[str, dict]:
    rights = {}
    extras = doc.get("extra_obligations") or {}
    for name, entry in _rights_of(templates[doc["template"]]["vector"]).items():
        ids = [o["id"] for o in entry["obligations"]]
        ids += [o["id"] for o in extras.get(name, ()) if o["id"] not in ids]
        rights[name] = {"grant": entry["grant"], "obligations": [{"id": i} for i in ids]}
    return rights


def read_interpretations(bundle: Bundle, templates_dir: Path) -> dict[str, dict | None]:
    """Authored rights per subject; None marks unavailable license content."""
    templates = {}
    for path in sorted(templates_dir.glob("*.json")):
        doc = _load(path)
        templates[doc["license_id"]] = doc
    out: dict[str, dict | None] = {}
    for path in sorted(bundle.interpretations.glob("*.json")):
        doc = _load(path)
        if doc.get("unavailable"):
            out[doc["subject_id"]] = None
        elif doc.get("vector") is not None:
            out[doc["subject_id"]] = _rights_of(doc["vector"])
        else:
            out[doc["subject_id"]] = _templated(doc, templates)
    return out


@dataclass(frozen=True)
class Expected:
    """What a correct ``dla`` prints for one bundle."""

    assess: dict  # rows, per-right grants and obligations, changed, residual
    assess_exit: int
    range_lines: tuple[str, ...]


def expected_assess(root_id: str, interpretations: dict[str, dict | None]) -> dict:
    root = interpretations[root_id]
    assert root is not None, "the root must be interpreted"
    others = sorted(s for s in interpretations if s != root_id)
    interpreted = [s for s in others if interpretations[s] is not None]
    names = list(FIXED_RIGHTS)
    for s in [root_id] + interpreted:
        names += sorted(n for n in interpretations[s] if n not in names)

    grants, obligations, restrictors, changed = {}, {}, {}, []
    for right in names:
        denying = [s for s in interpreted if not _granted(interpretations[s].get(right))]
        root_grants = _granted(root.get(right))
        grants[right] = root_grants and not denying
        restrictors[right] = denying if root_grants else []
        if root_grants and denying:
            changed.append(right)
        ids: list[str] = []
        if grants[right]:
            for s in [root_id] + interpreted:
                entry = interpretations[s].get(right) or {"obligations": []}
                ids += [o["id"] for o in entry["obligations"] if o["id"] not in ids]
        obligations[right] = ids

    rows = []
    for scenario_id, right in SCENARIOS:
        rows.append({
            "scenario_id": scenario_id,
            "permitted": grants[right],
            "obligations": obligations[right],
            "blocking_rights": [] if grants[right] else [
                {"right": right, "restrictors": restrictors[right]}
            ],
        })
    return {
        "rows": rows,
        "grants": grants,
        "obligations": obligations,
        "changed": changed,
        "residual": [s for s in others if interpretations[s] is None],
    }


def _select_capture(captures: list[dict], start: int, end: int) -> str:
    in_range = [c for c in captures if start <= c["year"] <= end]
    pool = in_range or captures
    if not pool:
        return " capture: (unavailable)"
    chosen = min(pool, key=lambda c: (c["year"], c["url"]))
    status = "in_range" if in_range else "out_of_range_fallback"
    return f" capture: {chosen['year']} ({status})"


def expected_range(bundle: Bundle) -> tuple[str, ...]:
    """``dla range --captures`` lines, one per node in id order. A node whose
    range cannot be decided is given as ``"<id>: error:"``, a prefix."""
    lineage = _load(bundle.lineage)
    records = {r["subject_id"]: r for r in lineage["records"]}
    parents: dict[str, list[str]] = {node: [] for node in records}
    for parent, child in lineage["edges"]:
        parents[child].append(parent)

    def nearest(node: str) -> tuple[int, int] | None:
        level, seen = {node}, {node}
        while level:
            years = {records[n]["origin_year"] for n in level
                     if records[n]["subject_kind"] == "dataset"}
            if years:
                return (min(years) - 1, min(years)) if len(years) == 1 else None
            level = {p for n in level for p in parents[n] if p not in seen}
            seen |= level
        return None

    lines = []
    for node in sorted(records):
        found = nearest(node)
        if found is None:
            lines.append(f"{node}: error:")
            continue
        line = f"{node}: {found[0]}-{found[1]}"
        capture_path = bundle.captures / f"{node}.json"
        captures = _load(capture_path) if capture_path.exists() else []
        lines.append(line + _select_capture(captures, *found))
    return tuple(lines)


def expected_for(bundle: Bundle, templates_dir: Path) -> Expected:
    lineage = _load(bundle.lineage)
    assess = expected_assess(lineage["root_id"], read_interpretations(bundle, templates_dir))
    denied = any(not row["permitted"] for row in assess["rows"])
    return Expected(assess=assess, assess_exit=3 if denied else 0, range_lines=expected_range(bundle))


def _cell(row: dict) -> str:
    if not row["permitted"]:
        return "No"
    return "Yes(" + "+".join(row["obligations"]) + ")" if row["obligations"] else "Yes"


def check_assess(bundle: Bundle, expected: Expected, stdout: str) -> str | None:
    """None when ``dla --format json assess`` printed the right answer, else why not."""
    try:
        doc = json.loads(stdout)
        rows = doc["assessment"]["rows"]
        verified = doc["verified_license"]
        grants = {r: e["grant"] == "granted" for r, e in verified["rights"].items()}
        obligations = {
            r: [o["id"] for o in e["obligations"]] if grants[r] else []
            for r, e in verified["rights"].items()
        }
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable assess output: {exc!r}"
    want = expected.assess
    if rows != want["rows"]:
        return "assessment rows differ from the oracle"
    if grants != want["grants"] or obligations != want["obligations"]:
        return "verified grants or obligations differ from the oracle"
    if verified["changed"] != want["changed"]:
        return "changed rights differ from the oracle"
    if verified["residual_risk_flags"] != want["residual"]:
        return "residual risk flags differ from the oracle"
    if bundle.name in PAPER_TABLE:
        cells = {row["scenario_id"]: _cell(row) for row in rows}
        if cells != PAPER_TABLE[bundle.name]:
            return f"cells {cells} differ from the paper's table"
    return None


def check_range(bundle: Bundle, expected: Expected, stdout: str) -> str | None:
    """None when ``dla range --captures`` printed the right lines, else why not."""
    lines = stdout.splitlines()
    if len(lines) != len(expected.range_lines):
        return f"range printed {len(lines)} lines, expected {len(expected.range_lines)}"
    for got, want in zip(lines, expected.range_lines):
        if got != want and not (want.endswith(": error:") and got.startswith(want)):
            return f"range line {got!r}, expected {want!r}"
    if bundle.name == "cifar-10":
        ranges = {line.split(": ")[0]: line.split(": ")[1].split(" ")[0] for line in lines}
        if ranges != CIFAR10_RANGES:
            return "CIFAR-10 ranges differ from the paper"
    return None
