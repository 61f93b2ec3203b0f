"""Self-test of the benchmark: ``python3 -m pytest -q bench/tests``.

It runs ``dla`` for real, at tiny sizes and short durations, so it takes a
minute or two; it is not part of the package's own test suite.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from compare import compare, summarize, verdict  # noqa: E402
from loop import REFERENCE_S, Checker, Op, Runner  # noqa: E402
from oracle import check_assess, check_range, expected_for  # noqa: E402
from workloads import WORKLOADS, bundle_sha256, make_bundles  # noqa: E402

FIXTURES = run.SRC / "dla/data/fixtures"
TEMPLATES = run.SRC / "dla/data/templates"


@pytest.fixture
def tmp_path():
    """A scratch directory inside the checkout, like the benchmark's own."""
    run.WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_bundles(tmp_path, workload):
    def shas(seed: int, where: str) -> list[str]:
        bundles = make_bundles(workload, seed, tmp_path / where, FIXTURES, nodes=60)
        return [b.name + ":" + bundle_sha256(b) for b in bundles]

    first = shas(3, "a")
    assert first == shas(3, "b")
    if workload != "fixtures":  # the fixtures' bytes are fixed; the seed orders them
        assert first != shas(4, "c")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_completes_with_every_metric(workload):
    result = run.single_run(workload, seed=5, seconds=0.1, trace=False, nodes=40)
    assert result["attempted"] >= 4
    assert result["failed"] == 0, result["failures"]
    assert result["bundles"] and result["env"]["seed"] == 5
    for name in run.declared(False) + ["assess_nostore_s", "assess_miss_s", "assess_hit_s",
                                       "range_s", "ops_per_s", "reference_s"]:
        assert result["metrics"][name]["value"] > 0, name


def test_timed_process_is_calibrated_by_the_references_either_side(tmp_path):
    runner = Runner(run.SRC, tmp_path)
    child = runner.timed(["--version"])
    before, after = runner.references
    assert child.calibrated_s == pytest.approx(child.wall_s * REFERENCE_S / ((before + after) / 2))
    second = runner.timed(["--version"])
    assert len(runner.references) == 3  # one reference after each process, shared by the next
    assert runner.peak_rss_kb == max(child.rss_kb, second.rss_kb)  # references not counted


def test_tiny_traced_run_reports_every_layer():
    result = run.single_run("wide", seed=5, seconds=0.1, trace=True, nodes=40)
    assert result["failed"] == 0, result["failures"]
    for name in run.declared(True):
        assert result["metrics"][name]["value"] is not None, name
    assert result["metrics"]["lineage.nodes"]["value"] == 40
    assert result["metrics"]["store.hit_ratio"]["value"] == 0.5


def _dla(tmp_path: Path, args: list[str]) -> str:
    child = Runner(run.SRC, tmp_path).dla(args)
    assert child.code in (0, 3), child.stderr
    return child.stdout


def test_oracle_flags_a_wrong_expected_answer(tmp_path):
    bundle = next(b for b in make_bundles("fixtures", 1, tmp_path / "b", FIXTURES)
                  if b.name == "ffhq")
    expected = expected_for(bundle, TEMPLATES)
    out = _dla(tmp_path, ["--format", "json", "assess", str(bundle.lineage),
                          str(bundle.interpretations)])
    assert check_assess(bundle, expected, out) is None

    wrong = expected.assess | {"rows": [dict(r) for r in expected.assess["rows"]]}
    wrong["rows"][0]["permitted"] = not wrong["rows"][0]["permitted"]
    assert check_assess(bundle, type(expected)(wrong, 3, expected.range_lines), out)
    wrong_obligations = dict(expected.assess, obligations=dict(
        expected.assess["obligations"], Distribute=["D", "C"]))
    assert check_assess(bundle, type(expected)(wrong_obligations, 3, expected.range_lines), out)

    ranges = _dla(tmp_path, ["range", str(bundle.lineage), "--captures", str(bundle.captures)])
    assert check_range(bundle, expected, ranges) is None
    shifted = tuple(line.replace("2018-2019", "2017-2018") for line in expected.range_lines)
    assert check_range(bundle, type(expected)(expected.assess, 3, shifted), ranges)


def test_oracle_flags_a_wrong_synthetic_answer(tmp_path):
    (bundle,) = make_bundles("wide", 2, tmp_path / "b", FIXTURES, nodes=80)
    expected = expected_for(bundle, TEMPLATES)
    out = _dla(tmp_path, ["--format", "json", "assess", str(bundle.lineage),
                          str(bundle.interpretations)])
    assert check_assess(bundle, expected, out) is None
    wrong = dict(expected.assess, residual=expected.assess["residual"][1:] + ["n99999"])
    assert check_assess(bundle, type(expected)(wrong, 3, expected.range_lines), out)
    tampered = out.replace('"permitted": true', '"permitted": false', 1)
    assert check_assess(bundle, expected, tampered)


def test_failures_are_counted_not_raised(tmp_path):
    bundle = make_bundles("fixtures", 1, tmp_path / "b", FIXTURES)[0]
    op = Op("assess_nostore", bundle, expected_for(bundle, TEMPLATES), [])
    checker = Checker()
    crash = "Traceback (most recent call last):\n  ...\nRecursionError: maximum recursion depth"
    assert checker.judge(op, 1, "", crash).startswith("traceback: RecursionError")
    assert checker.judge(op, 64, "{}", "").startswith("exit 64")
    hit = Op("assess_hit", bundle, op.expected, [])
    assert checker.judge(hit, op.expected.assess_exit, "{}", "") == "store hit expected"


def test_deep_run_counts_its_failures():
    result = run.single_run("deep", seed=1, seconds=0.1, trace=False)
    metrics = result["metrics"]
    assert result["attempted"] >= 4
    assert sum(result["failures"].values()) == result["failed"]
    assert metrics["fail_share"]["value"] == result["failed"] / result["attempted"]
    if result["failed"] == result["attempted"]:
        assert metrics["assess_nostore_s"]["value"] is None


def test_compare_marks_regressions_and_unresolved_rows():
    def side(values):
        return summarize([{"assess_hit_s": {"value": v, "unit": "s"}} for v in values])[
            "assess_hit_s"]

    steady, slower = side([1.0, 1.01, 0.99, 1.0]), side([1.3, 1.31, 1.29, 1.3])
    noisy = side([0.6, 1.0, 1.5, 1.1])
    assert verdict(steady, side([1.02, 1.0, 1.01, 1.0]), "lower", 0.1) == "within bound"
    assert verdict(steady, slower, "lower", 0.1) == "REGRESSION"
    assert verdict(slower, steady, "lower", 0.1) == "improved"
    assert verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert verdict(side([1.0]), side([2.0]), "lower", 0.1) == "unresolved (one run)"
    assert verdict(side([0.0]), side([0.5]), "lower", 0.0) == "REGRESSION"

    result = {"workload": "wide", "metrics": {"assess_hit_s": {"value": 1.0, "unit": "s"}}}
    later = {"workload": "wide", "metrics": {"assess_hit_s": {"value": 2.0, "unit": "s"}}}
    rows = compare(result, later, run.SPEC_PATH)
    assert len(rows) == 2 and rows[1].split()[:2] == ["wide", "assess_hit_s"]
    assert rows[1].endswith("unresolved (one run)")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if run.SPEC_PATH.is_file():
        shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fixtures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
