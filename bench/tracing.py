"""The traced in-process run that yields the per-layer metrics.

``dla`` is imported from the checkout and its public functions are wrapped
from outside, in every module namespace that holds them, so no source file
changes. Each wrapped call records one span: name, start, end, parent span
and op id (the Dapper span shape). Spans stay in memory until the run ends.

Every op of the cycle runs twice in this process, once untraced and once
traced, in alternating order; the difference of the two totals is the
tracing overhead, reported with the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from loop import OPS, Checker, Op, Runner, ops_until

# (span name, module, attribute path, module namespaces to patch).
# A namespace list of None patches every dla module that references the
# function; canonical_json is traced only where the CLI prints its output.
SPANS = (
    ("catalog.load_catalog", "dla.catalog", "load_catalog", None),
    ("catalog.read", "dla.catalog", "load_interpretations_dir", None),
    ("catalog.parse", "dla.catalog", "parse_interpretation", None),
    ("model.records_parse", "dla.model", "ProvenanceRecord.from_dict", None),
    ("model.serialize", "dla.model", "canonical_json", ("dla.cli",)),
    ("lineage.build", "dla.lineage", "build_lineage", None),
    ("lineage.range", "dla.lineage", "compute_license_range", None),
    ("lineage.capture", "dla.lineage", "parse_capture_list", None),
    ("lineage.capture", "dla.lineage", "select_capture", None),
    ("engine.fingerprint", "dla.engine", "fingerprint_inputs", None),
    ("engine.verify", "dla.engine", "verify", None),
    ("store.key", "dla.store", "analysis_key", None),
    ("store.get", "dla.store", "AnalysisStore.get", None),
    ("store.put", "dla.store", "AnalysisStore.put", None),
    ("store.lookup", "dla.store", "lookup_or_verify", None),
    ("assessment.scenarios", "dla.assessment", "default_scenarios", None),
    ("assessment.assess", "dla.assessment", "assess_all", None),
    ("assessment.render", "dla.model", "AssessmentTable.to_dict", None),
)
# In process an op on the fixtures takes milliseconds; this many cycles give
# every layer hundreds of samples and keep the spans held in memory bounded.
MAX_CYCLES = 20
MODULES = ("dla.cli", "dla.catalog", "dla.model", "dla.lineage",
           "dla.engine", "dla.store", "dla.assessment")


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    parent: int | None
    op: int
    end_ns: int = 0
    attrs: dict[str, Any] | None = None  # counts, set by a hook
    error: str | None = None


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = 0
        self._depths: dict[tuple, int] = {}
        self._dir_bytes: dict[str, int] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            span = Span(name, time.perf_counter_ns(), self.stack[-1] if self.stack else None,
                        self.op)
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self.stack.pop()
            if hook is not None:
                span.attrs = {}
                hook(self, span, args, result)
            return result

        return traced

    # Counts taken at span boundaries. Values that are the same on every op
    # of a bundle are cached so the hooks stay cheap.

    def depth(self, graph: Any) -> int:
        key = (graph.root_id, len(graph.nodes), len(graph.edges))
        if key not in self._depths:
            children: dict[str, list[str]] = {}
            for parent, child in graph.edges:
                children.setdefault(parent, []).append(child)
            best = {graph.root_id: 0}
            order = [graph.root_id]
            for node in order:  # the graph is acyclic; relax in BFS order
                for child in children.get(node, ()):
                    if best.get(child, -1) < best[node] + 1:
                        best[child] = best[node] + 1
                        order.append(child)
            self._depths[key] = max(best.values())
        return self._depths[key]

    def dir_bytes(self, directory: Path) -> int:
        key = str(directory)
        if key not in self._dir_bytes:
            self._dir_bytes[key] = sum(p.stat().st_size for p in directory.glob("*.json"))
        return self._dir_bytes[key]


def _on_read(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    span.attrs["docs"] = len(result.vectors)
    span.attrs["bytes"] = tracer.dir_bytes(Path(args[0]))


def _on_build(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    span.attrs.update(nodes=len(result.nodes), edges=len(result.edges), depth=tracer.depth(result))


def _on_verify(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    span.attrs.update(rights=len(result.rights), unavailable=len(result.residual_risk_flags))


def _on_put(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    store, key = args[0], args[1]
    written = [store.root / f"{key}.json", store.root / "index.json"]
    span.attrs["bytes_written"] = sum(p.stat().st_size for p in written if p.exists())


def _on_lookup(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    span.attrs.update(store=args[0] is not None, hit=bool(result[1]))


def _on_assess(tracer: Tracer, span: Span, args: tuple, result: Any) -> None:
    span.attrs["denied"] = sum(1 for row in result.rows if not row.permitted)


_HOOKS = {
    "catalog.read": _on_read,
    "lineage.build": _on_build,
    "engine.verify": _on_verify,
    "store.put": _on_put,
    "store.lookup": _on_lookup,
    "assessment.assess": _on_assess,
}


class Patches:
    """Swaps traced wrappers in and out of the dla module namespaces."""

    def __init__(self, tracer: Tracer) -> None:
        modules = {name: importlib.import_module(name) for name in MODULES}
        self.swaps: list[tuple[Any, str, Any, Any]] = []
        for span_name, module_name, attr, where in SPANS:
            owner: Any = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(span_name, raw.__func__))
                self.swaps.append((owner, leaf, raw, wrapped))
                continue
            wrapped = tracer.wrap(span_name, raw)
            if path:  # a method
                self.swaps.append((owner, leaf, raw, wrapped))
                continue
            for name in where or MODULES:
                module = modules[name]
                for key, value in vars(module).items():
                    if value is raw:
                        self.swaps.append((module, key, raw, wrapped))

    @contextlib.contextmanager
    def applied(self):
        for owner, key, _, wrapped in self.swaps:
            setattr(owner, key, wrapped)
        try:
            yield
        finally:
            for owner, key, raw, _ in self.swaps:
                setattr(owner, key, raw)


def run_in_process(main: Callable, op: Op) -> tuple[int, str, str, float, str | None]:
    """Run one op through the click entry point in this process."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = 0
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args=op.args, prog_name="dla", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped exception is a failed op, counted below
            error = f"exception: {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started, error


@dataclass
class TracedRun:
    tracer: Tracer
    op_walls: dict[int, float]  # traced op id -> wall time
    untraced_s: float
    traced_s: float
    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)


def traced_loop(bundles, expected, stores: Path, seconds: float) -> TracedRun:
    """Each op once untraced and once traced, until time is up."""
    from dla.cli import cli

    tracer = Tracer()
    patches = Patches(tracer)
    checkers = {False: Checker(), True: Checker()}
    run = TracedRun(tracer, {}, 0.0, 0.0)
    deadline = time.perf_counter() + seconds
    plain = ops_until(bundles, expected, stores / "untraced", deadline, MAX_CYCLES)
    twins = ops_until(bundles, expected, stores / "traced", deadline, MAX_CYCLES)
    per_cycle = len(OPS) * len(bundles)
    for i, (op, traced_op) in enumerate(zip(plain, twins)):
        pair = {}
        for traced in ((False, True) if i // per_cycle % 2 == 0 else (True, False)):
            # Keep the harness's own objects out of the op's collections,
            # as in a fresh dla process.
            gc.collect()
            gc.freeze()
            if traced:
                tracer.op += 1
                with patches.applied():
                    code, out, err, wall, error = run_in_process(cli.main, traced_op)
                run.op_walls[tracer.op] = wall
            else:
                code, out, err, wall, error = run_in_process(cli.main, op)
            failure = error or checkers[traced].judge(op, code, out, err)
            run.attempted += 1
            if failure is not None:
                run.failed += 1
                key = f"{op.kind}{' traced' if traced else ''}: {failure}"
                run.reasons[key] = run.reasons.get(key, 0) + 1
            pair[traced] = (wall, failure)
        if pair[False][1] is None and pair[True][1] is None:
            run.untraced_s += pair[False][0]
            run.traced_s += pair[True][0]
    gc.unfreeze()
    return run


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def per_layer(run: TracedRun, import_s: list[float]) -> dict:
    """Per-layer metrics: self times are summed per op, then the median is
    taken over the ops in which the layer ran."""
    spans = run.tracer.spans
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end_ns - span.start_ns
    self_s: dict[str, dict[int, float]] = {}
    root_s: dict[int, float] = {}
    for i, span in enumerate(spans):
        duration = span.end_ns - span.start_ns
        by_op = self_s.setdefault(span.name, {})
        by_op[span.op] = by_op.get(span.op, 0.0) + (duration - child_ns[i]) / 1e9
        if span.parent is None:
            root_s[span.op] = root_s.get(span.op, 0.0) + duration / 1e9

    def self_median(name: str) -> float | None:
        return _median(list(self_s.get(name, {}).values()))

    def attr_median(name: str, key: str) -> float | None:
        return _median([s.attrs[key] for s in spans if s.name == name and s.attrs])

    lookups = [s for s in spans if s.name == "store.lookup" and s.attrs and s.attrs["store"]]
    hits = [s for s in lookups if s.attrs["hit"]]

    def lookup_median(hit: bool) -> float | None:
        return _median([(s.end_ns - s.start_ns) / 1e9 for s in lookups if s.attrs["hit"] is hit])

    m = {
        "cli.import_s": (_median(import_s), "s"),
        "cli.unattributed_s": (
            _median([wall - root_s.get(op, 0.0) for op, wall in run.op_walls.items()]), "s"),
        "catalog.load_catalog_s": (self_median("catalog.load_catalog"), "s"),
        "catalog.read_s": (self_median("catalog.read"), "s"),
        "catalog.read_bytes": (attr_median("catalog.read", "bytes"), "bytes"),
        "catalog.parse_s": (self_median("catalog.parse"), "s"),
        "catalog.docs": (attr_median("catalog.read", "docs"), "count"),
        "model.records_parse_s": (self_median("model.records_parse"), "s"),
        "model.serialize_s": (self_median("model.serialize"), "s"),
        "lineage.build_s": (self_median("lineage.build"), "s"),
        "lineage.nodes": (attr_median("lineage.build", "nodes"), "count"),
        "lineage.edges": (attr_median("lineage.build", "edges"), "count"),
        "lineage.depth": (attr_median("lineage.build", "depth"), "count"),
        "lineage.failed": (sum(1 for s in spans if s.name == "lineage.build" and s.error), "count"),
        "lineage.range_s": (self_median("lineage.range"), "s"),
        "lineage.capture_s": (self_median("lineage.capture"), "s"),
        "engine.fingerprint_s": (self_median("engine.fingerprint"), "s"),
        "engine.verify_s": (self_median("engine.verify"), "s"),
        "engine.rights": (attr_median("engine.verify", "rights"), "count"),
        "engine.unavailable": (attr_median("engine.verify", "unavailable"), "count"),
        "store.key_s": (self_median("store.key"), "s"),
        "store.put_s": (self_median("store.put"), "s"),
        "store.bytes_written": (attr_median("store.put", "bytes_written"), "bytes"),
        "store.lookup_miss_s": (lookup_median(False), "s"),
        "store.get_s": (self_median("store.get"), "s"),
        "store.lookup_hit_s": (lookup_median(True), "s"),
        "store.hit_ratio": (len(hits) / len(lookups) if lookups else None, "ratio"),
        "store.lookups": (len(lookups), "count"),
        "assessment.scenarios_s": (self_median("assessment.scenarios"), "s"),
        "assessment.assess_s": (self_median("assessment.assess"), "s"),
        "assessment.render_s": (self_median("assessment.render"), "s"),
        "assessment.denied": (attr_median("assessment.assess", "denied"), "count"),
        "trace.overhead_share": (
            run.traced_s / run.untraced_s - 1.0 if run.untraced_s else None, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def write_spans(run: TracedRun, path: Path) -> None:
    """All spans as JSON lines, written once at the end of the run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for i, span in enumerate(run.tracer.spans):
            out.write(json.dumps({
                "id": i, "name": span.name, "start_ns": span.start_ns, "end_ns": span.end_ns,
                "parent": span.parent, "op": span.op, "attrs": span.attrs, "error": span.error,
            }) + "\n")


_IMPORT_PROBE = "import time; t = time.perf_counter(); import dla.cli; print(time.perf_counter() - t)"


def measure_import(runner: Runner, spawns: int) -> list[float]:
    """Seconds to ``import dla.cli`` in fresh interpreters; the first, untimed
    spawn writes the bytecode caches."""
    times = []
    for i in range(spawns + 1):
        child = runner.spawn(["-c", _IMPORT_PROBE], timeout=60.0)
        if child.code != 0:
            raise RuntimeError(f"import dla.cli failed: {child.stderr[-300:]}")
        if i:
            times.append(float(child.stdout))
    return times
