"""Seeded end-to-end and per-layer benchmark of the ``dla`` CLI.

One run of one workload, as the last line of stdout one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 bench/run.py --workload wide --seed 7 --seconds 50 --trace 0

``--trace 0`` drives ``dla`` as child processes and reports the end-to-end
metrics; ``--trace 1`` runs the same ops in process with spans around each
layer and reports the per-layer metrics and the tracing overhead.

All three workloads, every metric by name with its unit, into one file::

    python3 bench/run.py --workload all --runs 5 --out .bench_out/BENCH_label.json

Two result files side by side::

    python3 bench/run.py --compare BENCH_before.json BENCH_after.json

Run from anywhere; the benchmark builds nothing and uses ``src/`` of the
checkout it sits in. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare import compare, spread, summarize  # noqa: E402
from loop import closed_loop, end_to_end, measure_setup, Runner, SETUP_SPAWNS  # noqa: E402
from oracle import expected_for  # noqa: E402
from workloads import WORKLOADS, bundle_sha256, make_bundles  # noqa: E402


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def environment(seed: int) -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top.strip()).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    revision = _git("rev-parse", "HEAD") if in_repo else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": revision.strip() if revision else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


@contextmanager
def work_dir():
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass


def single_run(workload: str, seed: int, seconds: float, trace: bool,
               nodes: int | None = None, spans_path: Path | None = None) -> dict:
    """Generate one workload's inputs from the seed, measure, check every answer."""
    env = environment(seed)
    with work_dir() as work:
        bundles = make_bundles(workload, seed, work / "bundles", SRC / "dla/data/fixtures", nodes)
        shas = {b.name: bundle_sha256(b) for b in bundles}
        templates = SRC / "dla/data/templates"
        expected = {b.name: expected_for(b, templates) for b in bundles}
        runner = Runner(SRC, work)
        if trace:
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            from tracing import measure_import, per_layer, traced_loop, write_spans

            import_s = measure_import(runner, SETUP_SPAWNS)
            run = traced_loop(bundles, expected, work / "stores", seconds)
            metrics = per_layer(run, import_s)
            if spans_path is not None:
                write_spans(run, spans_path)
            attempted, failed, failures = run.attempted, run.failed, run.reasons
        else:
            setup = measure_setup(runner)
            tally = closed_loop(runner, bundles, expected, work / "stores", seconds, setup)
            metrics = end_to_end(setup, tally, runner)
            attempted, failed, failures = tally.attempted, tally.failed, tally.reasons
    return {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "env": env,
        "bundles": shas,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }


def declared(trace: bool) -> list[str] | None:
    """Metric names the benchmark spec declares for this mode, if it exists."""
    if not SPEC_PATH.is_file():
        return None
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _fmt(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        extra = "".join(f"  {k}={_fmt(v)}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:<24} {_fmt(m['value']):>12} {m['unit']:<6}{extra}")


def run_all(args: argparse.Namespace) -> dict:
    """Every workload: ``--runs`` untraced runs on consecutive seeds, then one
    traced run on the first seed."""
    out: dict = {"env": environment(args.seed), "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [single_run(workload, args.seed + i, args.seconds, False)
                for i in range(args.runs)]
        spans = OUT_DIR / f"spans_{workload}_{args.seed}.jsonl"
        traced = single_run(workload, args.seed, args.seconds, True, spans_path=spans)
        summary = summarize([r["metrics"] for r in runs])
        out["workloads"][workload] = {"runs": runs, "summary": summary, "traced": traced}
        print_metrics(
            f"== {workload}: median of {len(runs)} runs (spread = quartile distance / median)",
            {k: {"value": v["value"], "unit": v["unit"], "spread": spread(v),
                 "samples": v.get("samples")} for k, v in summary.items()},
        )
        failures: dict[str, int] = {}
        for r in runs:
            for reason, count in r["failures"].items():
                failures[reason] = failures.get(reason, 0) + count
        print(f"  ops attempted={sum(r['attempted'] for r in runs)} "
              f"failed={sum(r['failed'] for r in runs)}")
        for reason, count in sorted(failures.items()):
            print(f"  failure x{count}: {reason}")
        print_metrics(f"== {workload}: per layer (traced run, seed {args.seed})",
                      traced["metrics"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5, help="runs per workload with --workload all")
    parser.add_argument("--out", type=Path, default=None, help="write the full result here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)

    if args.compare:
        before, after = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        for line in compare(before, after, SPEC_PATH):
            print(line)
        return 0
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not (SRC / "dla" / "__init__.py").is_file():
        print(f"error: no dla sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        _write(args.out or OUT_DIR / "BENCH_latest.json", run_all(args))
        return 0
    spans = OUT_DIR / f"spans_{args.workload}_{args.seed}.jsonl" if args.trace else None
    result = single_run(args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans)
    if args.out is not None:
        _write(args.out, result)
    print_metrics(f"== {args.workload} seed {args.seed}", result["metrics"])
    print(json.dumps({k: v for k, v in result.items() if k != "metrics"}, sort_keys=True))
    names = declared(bool(args.trace)) or list(result["metrics"])
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]} for n in names},
    }))
    return 0


def _write(path: Path, result: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
