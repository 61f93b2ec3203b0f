"""The closed loop: one client, one ``dla`` process at a time, every answer checked.

Each bundle cycles through four ops, and a run repeats the cycle until its
time is up:

- ``assess_nostore``: ``dla --format json assess`` with no store;
- ``assess_miss``: the same with ``--store`` on a fresh store, so the op
  includes the write;
- ``assess_hit``: the same store again; stdout must be byte-identical to
  the miss;
- ``range``: ``dla range --captures``.

An op fails on a wrong exit code, a wrong answer, a traceback on stderr, or
a timeout. Failures are counted, never raised.

Every timed process is followed by one run of ``reference.py``, a fixed
workload, and its wall time is scaled by ``REFERENCE_S`` over the mean of the
reference walls on either side of it: a "calibrated" second, in which the
host's own changes of speed cancel (README.md, "Calibrated seconds").
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from oracle import Expected, check_assess, check_range
from workloads import Bundle

OPS = ("assess_nostore", "assess_miss", "assess_hit", "range")
OP_TIMEOUT_S = 120.0
REFERENCE = Path(__file__).resolve().with_name("reference.py")
REFERENCE_S = 0.2  # nominal wall of one reference process: the unit of a calibrated second
SETUP_SPAWNS = 5  # before the loop; the loop adds one per bundle and cycle
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it


@dataclass
class Child:
    code: int
    wall_s: float
    stdout: str
    stderr: str
    timed_out: bool
    rss_kb: int
    calibrated_s: float | None = None  # set by Runner.timed


@dataclass
class Op:
    """One op of the cycle, ready to run as a process or in process."""

    kind: str
    bundle: Bundle
    expected: Expected
    args: list[str]


@dataclass
class Tally:
    """Samples and failures of a run, by op kind."""

    walls: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in OPS})
    raw: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in OPS})
    busy_s: float = 0.0  # calibrated wall of every op attempted, failed ones too
    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def record(self, op: Op, child: Child, failure: str | None) -> None:
        self.attempted += 1
        self.busy_s += child.calibrated_s
        if failure is None:
            self.walls[op.kind].append(child.calibrated_s)
            self.raw[op.kind].append(child.wall_s)
        else:
            self.failed += 1
            key = f"{op.kind}: {failure}"
            self.reasons[key] = self.reasons.get(key, 0) + 1


class Runner:
    """Spawns ``python -m dla`` from the checkout's ``src/`` and reaps it with
    ``os.wait4`` so the child's peak RSS is known."""

    def __init__(self, src: Path, scratch: Path) -> None:
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("DLA_")}
        self.env["PYTHONPATH"] = str(src)
        self.scratch = scratch
        self.peak_rss_kb = 0
        self.references: list[float] = []

    def dla(self, args: list[str], timeout: float = OP_TIMEOUT_S) -> Child:
        child = self.spawn(["-m", "dla", *args], timeout)
        self.peak_rss_kb = max(self.peak_rss_kb, child.rss_kb)
        return child

    def reference(self) -> float:
        """Wall time of one run of the fixed reference process."""
        child = self.spawn([str(REFERENCE)], timeout=60.0)
        if child.code != 0:
            raise RuntimeError(f"reference process failed with exit {child.code}: "
                               f"{child.stderr[-300:]}")
        self.references.append(child.wall_s)
        return child.wall_s

    def timed(self, args: list[str]) -> Child:
        """``dla`` with its calibrated wall time: a reference runs before the
        first timed process and after every one."""
        before = self.references[-1] if self.references else self.reference()
        child = self.dla(args)
        after = self.reference()
        child.calibrated_s = child.wall_s * REFERENCE_S / ((before + after) / 2)
        return child

    def spawn(self, args: list[str], timeout: float = OP_TIMEOUT_S) -> Child:
        """Run the interpreter with ``args``; stdout and stderr go to files so
        a large output cannot block the child while it is reaped."""
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env,
            )
            reaped = threading.Event()
            killed = threading.Event()

            def kill() -> None:
                if not reaped.is_set():
                    killed.set()
                    os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                reaped.set()
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            code=proc.returncode,
            wall_s=wall,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            timed_out=killed.is_set(),
            rss_kb=usage.ru_maxrss,
        )


def cycle(bundles: list[Bundle], expected: dict[str, Expected], stores: Path, n: int) -> list[Op]:
    """The four ops on each bundle, in order; the miss gets a fresh store."""
    ops = []
    for bundle in bundles:
        assess = ["--format", "json", "assess", str(bundle.lineage), str(bundle.interpretations)]
        store = str(stores / f"{bundle.name}-{n}")
        range_args = ["range", str(bundle.lineage)]
        if bundle.captures.is_dir():
            range_args += ["--captures", str(bundle.captures)]
        exp = expected[bundle.name]
        ops += [
            Op("assess_nostore", bundle, exp, assess),
            Op("assess_miss", bundle, exp, ["--store", store] + assess),
            Op("assess_hit", bundle, exp, ["--store", store] + assess),
            Op("range", bundle, exp, range_args),
        ]
    return ops


class Checker:
    """Judges op outputs. Outputs already proven correct are remembered, so a
    repeated answer costs a string comparison, not a re-parse."""

    def __init__(self) -> None:
        self.proven: set[tuple[str, str, str]] = set()
        self.last_miss: dict[str, str] = {}

    def judge(self, op: Op, code: int, stdout: str, stderr: str) -> str | None:
        if "Traceback (most recent call last)" in stderr:
            return "traceback: " + (stderr.strip().splitlines() or ["?"])[-1][:120]
        want_code = 0 if op.kind == "range" else op.expected.assess_exit
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        cached = "(cached analysis)" in stderr
        if cached != (op.kind == "assess_hit"):
            return "store hit expected" if op.kind == "assess_hit" else "unexpected store hit"
        if op.kind == "assess_miss":
            self.last_miss[op.bundle.name] = stdout
        if op.kind == "assess_hit" and self.last_miss.get(op.bundle.name, stdout) != stdout:
            return "hit stdout differs from the miss"
        family = "range" if op.kind == "range" else "assess"
        key = (op.bundle.name, family, stdout)
        if key in self.proven:
            return None
        check = check_range if family == "range" else check_assess
        failure = check(op.bundle, op.expected, stdout)
        if failure is None:
            self.proven.add(key)
        return failure


def ops_until(
    bundles: list[Bundle], expected: dict[str, Expected], stores: Path, deadline: float,
    max_cycles: int | None = None,
) -> Iterator[Op]:
    """Cycle after cycle of ops until the deadline or ``max_cycles``; the
    first cycle always runs whole, so every op kind has a sample."""
    n = 0
    while max_cycles is None or n < max_cycles:
        for op in cycle(bundles, expected, stores, n):
            if n and time.perf_counter() >= deadline:
                return
            yield op
        n += 1


def version(runner: Runner) -> Child:
    """One fresh ``dla --version`` process, timed and calibrated."""
    child = runner.timed(["--version"])
    if child.code != 0 or "version" not in child.stdout:
        raise RuntimeError(f"dla --version failed with exit {child.code}: {child.stderr[-300:]}")
    return child


def measure_setup(runner: Runner, spawns: int = SETUP_SPAWNS) -> list[Child]:
    """Start-up samples taken before the loop. One untimed spawn first writes
    the bytecode caches, as any installed copy already has them."""
    runner.dla(["--version"])
    return [version(runner) for _ in range(spawns)]


def closed_loop(
    runner: Runner, bundles: list[Bundle], expected: dict[str, Expected],
    stores: Path, seconds: float, setup: list[Child],
) -> Tally:
    """Run ops until ``seconds`` have passed. A start-up sample is added to
    ``setup`` before each bundle's ops, so start-up is sampled across the
    whole run."""
    tally, checker = Tally(), Checker()
    for op in ops_until(bundles, expected, stores, time.perf_counter() + seconds):
        if op.kind == OPS[0]:
            setup.append(version(runner))
        child = runner.timed(op.args)
        failure = "timeout" if child.timed_out else checker.judge(
            op, child.code, child.stdout, child.stderr
        )
        tally.record(op, child, failure)
    return tally


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND samples beyond it, or None when there are too few."""
    if len(samples) <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end(setup: list[Child], tally: Tally, runner: Runner) -> dict:
    """Every end-to-end metric; a median with no sample is None. Timings are
    calibrated seconds; ``raw_s`` beside a median is its plain wall time."""

    def metric(value: float | None, unit: str, samples: int | None = None, **extra) -> dict:
        out = {"value": value, "unit": unit}
        if samples is not None:
            out["samples"] = samples
        return out | extra

    def median(values: list[float]) -> float | None:
        return statistics.median(values) if values else None

    metrics = {"setup_s": metric(median([c.calibrated_s for c in setup]), "s", len(setup),
                                 raw_s=median([c.wall_s for c in setup]))}
    for kind in OPS:
        walls = tally.walls[kind]
        metrics[f"{kind}_s"] = metric(median(walls), "s", len(walls),
                                      raw_s=median(tally.raw[kind]))
    nostore = tally.walls["assess_nostore"]
    found = tail(nostore)
    metrics["assess_nostore_tail_s"] = metric(
        found[1] if found else None, "s", len(nostore),
        percentile=round(found[0], 2) if found else None,
    )
    ok = tally.attempted - tally.failed
    metrics["ops_per_s"] = metric(ok / tally.busy_s, "1/s", ok)
    metrics["fail_share"] = metric(tally.failed / tally.attempted, "ratio", tally.attempted)
    metrics["peak_rss_mb"] = metric(runner.peak_rss_kb / 1024.0, "MB")
    metrics["reference_s"] = metric(median(runner.references), "s", len(runner.references))
    return metrics
