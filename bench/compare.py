"""Summaries of repeated runs and the side-by-side comparison of two results.

A metric's spread is the distance between the first and third quartiles of
its run values as a share of their median (``statistics.quantiles(n=4)``).
A change is judged against the metric's bound from ``BENCHMARK.json``; when
either side spreads wider than the bound, the row reads "unresolved" unless
every run of one side beats every run of the other. A side of one run has no
spread, so a bounded metric compared against it is always "unresolved".
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# End-to-end metrics the harness prints but BENCHMARK.json does not gate
# (see README.md), with the direction and bound --compare judges them by.
EXTRA_SPECS = {
    "assess_nostore_tail_s": {"better": "lower", "bound": 0.25},
    "fail_share": {"better": "lower", "bound": 0.0},
    "reference_s": {"better": "lower", "bound": None},
}


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and values of each metric over runs (None skipped)."""
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs if r[name]["value"] is not None]
        entry = {"value": statistics.median(values) if values else None,
                 "unit": runs[0][name]["unit"], "runs": values}
        if "samples" in runs[0][name]:
            entry["samples"] = sum(r[name]["samples"] for r in runs)
        if len(values) >= 2:
            entry["q1"], _, entry["q3"] = statistics.quantiles(values, n=4)
        out[name] = entry
    return out


def spread(entry: dict) -> float | None:
    if "q1" not in entry or not entry["value"]:
        return None
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def _per_workload(result: dict) -> dict[str, dict]:
    """{workload: summary} for an ``--workload all`` file or a single run."""
    if "workloads" in result:
        out = {}
        for workload, data in result["workloads"].items():
            out[workload] = dict(data["summary"])
            out[workload].update(summarize([data["traced"]["metrics"]]))
        return out
    return {result["workload"]: summarize([result["metrics"]])}


def _specs(spec_path: Path) -> dict[str, dict]:
    specs = dict(EXTRA_SPECS)
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        for m in spec["end_to_end"]:
            specs[m["name"]] = {"better": m["better"], "bound": m["bound"]}
        for m in spec["per_layer"]:
            specs.setdefault(m["name"], {"better": m["better"], "bound": None})
    return specs


def verdict(a: dict, b: dict, better: str, bound: float | None) -> str:
    if a["value"] is None or b["value"] is None:
        return "n/a"
    if bound is None:
        return "no bound"
    sign = 1 if better == "lower" else -1
    a_runs, b_runs = a.get("runs") or [a["value"]], b.get("runs") or [b["value"]]
    if a["value"] == 0:
        worse = sign * b["value"] > sign * a["value"]
        return "REGRESSION" if worse else "within bound"
    change = sign * (b["value"] - a["value"]) / abs(a["value"])
    spreads = (spread(a), spread(b))
    if bound > 0 and None in spreads:
        return "unresolved (one run)"
    if max(x or 0.0 for x in spreads) > bound:
        if max(sign * v for v in b_runs) < min(sign * v for v in a_runs):
            return "improved (every run)"
        if min(sign * v for v in b_runs) > max(sign * v for v in a_runs):
            return "REGRESSION (every run)"
        return "unresolved"
    if change > bound:
        return "REGRESSION"
    if change < -bound:
        return "improved"
    return "within bound"


def compare(before: dict, after: dict, spec_path: Path) -> list[str]:
    """One row per workload and metric: both medians, the ratio, the verdict."""
    specs = _specs(spec_path)
    left, right = _per_workload(before), _per_workload(after)
    lines = [f"{'workload':<10} {'metric':<26} {'before':>12} {'after':>12} "
             f"{'ratio':>8} {'bound':>6}  verdict"]
    for workload in [w for w in left if w in right]:
        for name, a in left[workload].items():
            b = right[workload].get(name)
            if b is None:
                continue
            spec = specs.get(name, {"better": "lower", "bound": None})
            ratio = (b["value"] / a["value"]) if a["value"] and b["value"] is not None else None
            bound = "-" if spec["bound"] is None else f"{spec['bound']:g}"
            lines.append(
                f"{workload:<10} {name:<26} {_num(a['value']):>12} {_num(b['value']):>12} "
                f"{_num(ratio):>8} {bound:>6}  {verdict(a, b, spec['better'], spec['bound'])}"
            )
    return lines


def _num(value: float | None) -> str:
    return "null" if value is None else f"{value:.4g}"
