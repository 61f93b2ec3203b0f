"""Command-line front end.

Exit codes are a contract for pipeline gating:
0 all clean / all scenarios permitted, 1 validation problem (a non-string
edge endpoint included), 2 lineage problem, 3 at least one scenario denied,
64 an input file that is missing, unreadable or not UTF-8 JSON (lineage,
interpretation, template, scenario, capture list or validated document), JSON
nested deeper than the parser allows, an interpretations or captures
directory that is not a directory, an unusable store or damaged store entry,
and a command line that cannot be parsed (a usage error: ``EX_USAGE`` of
sysexits(3), where click's own code, 2, would read as a lineage problem).
Every input file is read through :func:`dla.jsonio.read_json`.

Each command returns its report and exit code; the report is written in one
write after it is complete, so any error exit leaves stdout empty. A package
warning reaches stderr as one ``warning: <message>`` line.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NoReturn

import click

from .errors import DlaError, DlaWarning, InputError, LineageError, StoreError
from .jsonio import canonical_json, path_prefix, read_inputs, read_json
from .version import __version__

# Each command imports the layers it runs when it runs, so `dla --version`
# and `--help` load no document model, and `lineage` and `range` do not load
# the store, engine, catalog or assessment.
if TYPE_CHECKING:
    from .lineage import LineageGraph
    from .model import ProvenanceRecord, VerifiedLicense
    from .store import AnalysisStore

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_LINEAGE = 2
EXIT_DENIED = 3
EXIT_IO = 64
EXIT_USAGE = 64


# Exit code of every error a command may end with; the first matching class
# wins. Any other package error (parse, schema, catalog, engine, assessment)
# is a validation problem.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (InputError, EXIT_IO),
    (StoreError, EXIT_IO),
    (LineageError, EXIT_LINEAGE),
    (DlaError, EXIT_VALIDATION),
)


class _Commands(click.Group):
    """The command group: the only writer of a report to stdout, and the only
    exit. A usage error leaves with click's message and ``EXIT_USAGE``."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            exc.exit_code = EXIT_USAGE
            raise

    def invoke(self, ctx: click.Context) -> NoReturn:
        python_format = warnings.formatwarning

        def format_warning(message: Any, category: type[Warning], *where: Any) -> str:
            # Python's format names the file and line that warned, which for
            # a compiled decoder is no file an operator can open.
            if issubclass(category, DlaWarning):
                return f"warning: {message}\n"
            return python_format(message, category, *where)

        warnings.formatwarning = format_warning
        try:
            report, code = super().invoke(ctx)
        except click.UsageError as exc:  # a command's own command line
            exc.exit_code = EXIT_USAGE
            raise
        except tuple(kind for kind, _ in _EXIT_CODES) as exc:
            code = next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
            click.echo(f"error: {exc}", err=True)
        else:
            click.echo(report, nl=False)
        finally:
            warnings.formatwarning = python_format
        sys.exit(code)


@click.group(cls=_Commands)
@click.version_option(__version__, prog_name="dla")
@click.option(
    "--store",
    "store_path",
    envvar="DLA_STORE",
    type=click.Path(path_type=Path),
    default=None,
    help="Analysis store directory (env: DLA_STORE).",
)
@click.option(
    "--format",
    "output_format",
    type=click.Choice(["json", "markdown"]),
    default="markdown",
    show_default=True,
    help="Report format.",
)
@click.option(
    "--strict/--lenient",
    "strict",
    default=True,
    show_default=True,
    help="Reject unknown document fields, or warn and continue.",
)
@click.option(
    "--unknown-denies",
    is_flag=True,
    default=False,
    help="Treat sources with unavailable licenses as denying every right.",
)
@click.pass_context
def cli(ctx: click.Context, **params: Any) -> None:
    """Check whether a publicly available dataset can be used in a commercial
    scenario without breaking its license or the licenses of its data sources.
    """
    # The group's options above, as every command reads them.
    ctx.obj = SimpleNamespace(**params)


def _load_graph(path: Path, strict: bool) -> LineageGraph:
    from .lineage import LineageGraph

    return LineageGraph.from_dict(read_json(path), str(path), strict)


def _document_shapes() -> tuple[tuple[Callable, Callable, Callable | None], ...]:
    """Each document shape ``validate`` recognises, in the order they are
    tried: a test of the decoded JSON, its decoder (data, path, strict), and
    the check that lists the problems of what the decoder gave."""
    from .lineage import LineageGraph, parse_capture_list
    from .model import (
        ProvenanceRecord, RightsVector, validate_provenance, validate_rights_vector,
    )

    def has(*keys: str) -> Callable[[Any], bool]:
        return lambda data: isinstance(data, dict) and all(key in data for key in keys)

    catalogs = []  # the license catalog, loaded for the first interpretation

    def interpretation(data: Any, path: str, strict: bool) -> Any:
        from .catalog import load_catalog, parse_interpretation

        if not catalogs:
            catalogs.append(load_catalog())
        return parse_interpretation(data, catalogs[0], strict=strict, path=path)

    def lineage_problems(graph: LineageGraph) -> list[str]:
        return [f"{record.subject_id}.{v}"
                for record in graph.nodes.values() for v in validate_provenance(record)]

    return (
        (lambda data: isinstance(data, list), parse_capture_list, None),
        (has("records", "root_id"), LineageGraph.from_dict, lineage_problems),
        (has("subject_kind"), ProvenanceRecord.from_dict, validate_provenance),
        (has("subject_id"), interpretation, None),
        (has("metadata", "standalone_rights"), RightsVector.from_dict, validate_rights_vector),
    )


def _validate_one(path: Path, data: Any, strict: bool, shapes: tuple) -> list[str]:
    """Validate one document of any recognized shape; returns problem lines."""
    for test, decode, check in shapes:
        if test(data):
            try:
                value = decode(data, str(path), strict)
            except DlaError as exc:
                return [str(exc)]
            return [str(problem) for problem in check(value)] if check else []
    return ["unrecognized document shape"]


@cli.command("validate")
@click.argument("paths", nargs=-1, required=True, type=click.Path(path_type=Path))
@click.pass_obj
def cmd_validate(settings: SimpleNamespace, paths: tuple[Path, ...]) -> tuple[str, int]:
    """Validate provenance, interpretation, lineage, capture-list or rights-vector
    documents."""
    shapes = _document_shapes()
    lines, code = [], EXIT_OK
    for path in paths:
        problems = _validate_one(path, read_json(path), settings.strict, shapes)
        if problems:
            code = EXIT_VALIDATION
            lines.append(f"{path}: {len(problems)} problem(s)")
            lines += [f"  - {problem}" for problem in problems]
        else:
            lines.append(f"{path}: ok")
    return "\n".join(lines) + "\n", code


@cli.command("lineage")
@click.argument("lineage_path", type=click.Path(path_type=Path))
@click.pass_obj
def cmd_lineage(settings: SimpleNamespace, lineage_path: Path) -> tuple[str, int]:
    """Show the validated lineage graph of a dataset."""
    graph = _load_graph(lineage_path, settings.strict)
    if settings.output_format == "json":
        return canonical_json(graph.to_dict()), EXIT_OK
    lines = [f"root: {graph.root_id}"]
    for node_id, record in graph.nodes.items():
        year = record.origin_year if record.origin_year is not None else "-"
        lines.append(f"{node_id}: kind={record.subject_kind.value} origin_year={year}")
    lines += [f"{parent} -> {child}" for parent, child in graph.edges]
    return "\n".join(lines) + "\n", EXIT_OK


@cli.command("range")
@click.argument("lineage_path", type=click.Path(path_type=Path))
@click.option(
    "--captures",
    "captures_dir",
    type=click.Path(path_type=Path),
    default=None,
    help="Directory of per-source capture lists; shows the selected capture per node.",
)
@click.pass_obj
def cmd_range(settings: SimpleNamespace, lineage_path: Path, captures_dir: Path | None) -> tuple[str, int]:
    """License range per lineage node (and the applicable capture, if given)."""
    from .lineage import CaptureInput, compute_license_range, parse_capture_list, select_capture

    graph = _load_graph(lineage_path, settings.strict)
    captures: dict[str, list[CaptureInput]] | None = None
    if captures_dir is not None:
        capture_files, captures = read_inputs(captures_dir), {}
        prefix = path_prefix(captures_dir)
        for node_id in graph.nodes:
            name = f"{node_id}.json"
            if name in capture_files:
                path = prefix + name
                captures[node_id] = parse_capture_list(
                    read_json(path, capture_files[name]), path, settings.strict
                )
    lines = []
    for node_id in graph.nodes:
        try:
            node_range = compute_license_range(node_id, graph)
        except LineageError as exc:
            lines.append(f"{node_id}: error: {exc}")
            continue
        line = f"{node_id}: {node_range.start_year}-{node_range.end_year}"
        if captures is not None:
            chosen, status = select_capture(captures.get(node_id, []), node_range)
            year = "" if chosen is None else f"{chosen.year} "
            line += f" capture: {year}({status.value})"
        lines.append(line)
    return "\n".join(lines) + "\n", EXIT_OK


def _run_pipeline(
    settings: SimpleNamespace,
    lineage_path: Path,
    interpretations_dir: Path,
    audit_timestamps: bool,
) -> tuple[ProvenanceRecord, VerifiedLicense]:
    from dataclasses import replace

    from .engine import EnginePolicy
    from .store import AnalysisStore, Bundle, lookup_or_verify

    bundle = Bundle.read(lineage_path, interpretations_dir, settings.strict)
    store = AnalysisStore(settings.store_path) if settings.store_path else None
    verified, cache_hit = lookup_or_verify(
        store, bundle, EnginePolicy(unknown_denies=settings.unknown_denies))
    if cache_hit:
        click.echo("(cached analysis)", err=True)
    # Stamped at output time, so a stored analysis never carries a stamp and
    # a hit is stamped like a miss.
    stamp = None
    if audit_timestamps:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if verified.audit is not None and verified.audit.generated_at != stamp:
        verified = replace(verified, audit=replace(verified.audit, generated_at=stamp))
    return bundle.root, verified  # decodable: the lineage is valid, or it was a hit


@cli.command("verify")
@click.argument("lineage_path", type=click.Path(path_type=Path))
@click.argument("interpretations_dir", type=click.Path(path_type=Path))
@click.option("--audit-timestamps", is_flag=True, default=False,
              help="Record a generation timestamp in the audit trailer.")
@click.pass_obj
def cmd_verify(
    settings: SimpleNamespace,
    lineage_path: Path,
    interpretations_dir: Path,
    audit_timestamps: bool,
) -> tuple[str, int]:
    """Compute the verified license of a dataset against its data sources."""
    from .assessment import render_rights_markdown

    root, verified = _run_pipeline(settings, lineage_path, interpretations_dir, audit_timestamps)
    if settings.output_format == "json":
        return canonical_json(verified.to_dict()), EXIT_OK
    return render_rights_markdown(verified, root.dataset_name), EXIT_OK


@cli.command("assess")
@click.argument("lineage_path", type=click.Path(path_type=Path))
@click.argument("interpretations_dir", type=click.Path(path_type=Path))
@click.option(
    "--scenarios",
    "scenarios_path",
    type=click.Path(path_type=Path),
    default=None,
    help="Scenario definitions (JSON array); defaults to the shipped DD/RPEAI/CAI.",
)
@click.option("--no-gate", is_flag=True, default=False,
              help="Exit 0 even when scenarios are denied.")
@click.option("--audit-timestamps", is_flag=True, default=False,
              help="Record a generation timestamp in the audit trailer.")
@click.pass_obj
def cmd_assess(
    settings: SimpleNamespace,
    lineage_path: Path,
    interpretations_dir: Path,
    scenarios_path: Path | None,
    no_gate: bool,
    audit_timestamps: bool,
) -> tuple[str, int]:
    """Assess commercial usage scenarios for a dataset bundle.

    Exits 3 when any requested scenario is denied so CI pipelines can gate
    on compliance; --no-gate downgrades that to 0.
    """
    from .assessment import assess_all, default_scenarios, load_scenarios, render_markdown

    root, verified = _run_pipeline(settings, lineage_path, interpretations_dir, audit_timestamps)
    if scenarios_path is not None:
        scenarios = load_scenarios(scenarios_path, settings.strict)
    else:
        scenarios = default_scenarios()
    table = assess_all(verified, scenarios, dataset_name=root.dataset_name)
    if settings.output_format == "json":
        doc = {"assessment": table.to_dict(), "verified_license": verified.to_dict()}
        report = canonical_json(doc)
    else:
        report = render_markdown(table, verified)
    denied = any(not row.permitted for row in table.rows)
    return report, EXIT_DENIED if denied and not no_gate else EXIT_OK


@cli.group("store")
def cmd_store() -> None:
    """Inspect or prune the analysis store."""


def _open_store(settings: SimpleNamespace) -> AnalysisStore:
    from .store import AnalysisStore

    if settings.store_path is None:
        raise StoreError("no store configured; pass --store or set DLA_STORE")
    return AnalysisStore(settings.store_path)


@cmd_store.command("ls")
@click.pass_obj
def cmd_store_ls(settings: SimpleNamespace) -> tuple[str, int]:
    """List stored analyses."""
    entries = _open_store(settings).entries()
    return "".join(f"{entry.key}  {entry.dataset_name}\n" for entry in entries), EXIT_OK


@cmd_store.command("rm")
@click.argument("key")
@click.pass_obj
def cmd_store_rm(settings: SimpleNamespace, key: str) -> tuple[str, int]:
    """Remove one stored analysis by key."""
    removed = _open_store(settings).remove(key)
    return (f"removed {key}\n" if removed else f"no entry for {key}\n"), EXIT_OK


def main() -> None:
    """The ``dla`` process: the command line with the cyclic garbage
    collector off, and every object frozen before the interpreter exits.

    Every value dla builds is an acyclic tree that reference counting frees:
    during one assess of a 5 000-node lineage the collector ran over 100
    times and collected 0 objects. At shutdown the interpreter still runs
    one full collection over every object of click, typing and dla, after
    the report is written; it does not scan frozen objects. Freezing is safe
    because nothing dla builds needs a finalizer at exit: store blobs are
    closed by ``with`` before ``os.replace``, and Python flushes stdio and
    runs atexit hooks during finalization anyway (``os._exit`` would skip
    those, and profiler output with them). Only the process entry does
    either; a library caller, or a test that calls `cli`, keeps its own
    collector, unfrozen.
    """
    import gc

    gc.disable()
    try:
        cli()
    finally:  # every exit: a report, an error, --version, a usage error
        gc.freeze()


if __name__ == "__main__":
    main()
