"""Command-line front end.

Exit codes are a contract for pipeline gating:
0 all clean / all scenarios permitted, 1 validation problem (a non-string
edge endpoint included), 2 lineage problem, 3 at least one scenario denied,
64 an input file that is missing, unreadable or not UTF-8 JSON (lineage,
interpretation, template, scenario, capture list or validated document), JSON
nested deeper than the parser allows, an interpretations or captures
directory that is not a directory, and an unusable store or damaged store
entry. Every input file is read through :func:`dla.model.read_json`.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import click

from .errors import DlaError, InputError, LineageError, StoreError
from .model import (
    ProvenanceRecord,
    RightsVector,
    VerifiedLicense,
    canonical_json,
    path_prefix,
    read_inputs,
    read_json,
    validate_provenance,
    validate_rights_vector,
)
from .version import __version__

# Each command imports the layers it runs when it runs, so `dla --version`,
# `lineage` and `range` do not load the store, engine, catalog or assessment.
if TYPE_CHECKING:
    from .lineage import LineageGraph
    from .store import AnalysisStore

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_LINEAGE = 2
EXIT_DENIED = 3
EXIT_IO = 64


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
    """The command group; ends every command's error with its exit code."""

    def invoke(self, ctx: click.Context) -> Any:
        try:
            return super().invoke(ctx)
        except tuple(kind for kind, _ in _EXIT_CODES) as exc:
            code = next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
            click.echo(f"error: {exc}", err=True)
            sys.exit(code)


class Settings:
    """The group's options, as every command reads them."""

    def __init__(
        self, store_path: Path | None, output_format: str, strict: bool, unknown_denies: bool
    ) -> None:
        self.store_path = store_path
        self.output_format = output_format
        self.strict = strict
        self.unknown_denies = unknown_denies


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
def cli(
    ctx: click.Context,
    store_path: Path | None,
    output_format: str,
    strict: bool,
    unknown_denies: bool,
) -> None:
    """Check whether a publicly available dataset can be used in a commercial
    scenario without breaking its license or the licenses of its data sources.
    """
    ctx.obj = Settings(store_path, output_format, strict, unknown_denies)


def _load_graph(path: Path, strict: bool) -> LineageGraph:
    from .lineage import LineageGraph

    return LineageGraph.from_dict(read_json(path), str(path), strict)


def _document_shapes() -> tuple[tuple[Callable, Callable, Callable | None], ...]:
    """Each document shape ``validate`` recognises, in the order they are
    tried: a test of the decoded JSON, its decoder (data, path, strict), and
    the check that lists the problems of what the decoder gave."""
    from .lineage import LineageGraph, parse_capture_list

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
def cmd_validate(settings: Settings, paths: tuple[Path, ...]) -> None:
    """Validate provenance, interpretation, lineage, or capture documents."""
    # Every file is read before the first line, so one that cannot be read
    # ends the run with nothing on stdout.
    documents = [(path, read_json(path)) for path in paths]
    shapes = _document_shapes()
    any_problem = False
    for path, data in documents:
        problems = _validate_one(path, data, settings.strict, shapes)
        if problems:
            any_problem = True
            click.echo(f"{path}: {len(problems)} problem(s)")
            for problem in problems:
                click.echo(f"  - {problem}")
        else:
            click.echo(f"{path}: ok")
    sys.exit(EXIT_VALIDATION if any_problem else EXIT_OK)


@cli.command("lineage")
@click.argument("lineage_path", type=click.Path(path_type=Path))
@click.pass_obj
def cmd_lineage(settings: Settings, lineage_path: Path) -> None:
    """Show the validated lineage graph of a dataset."""
    graph = _load_graph(lineage_path, settings.strict)
    if settings.output_format == "json":
        click.echo(canonical_json(graph.to_dict()), nl=False)
    else:
        lines = [f"root: {graph.root_id}"]
        for node_id, record in graph.nodes.items():
            year = record.origin_year if record.origin_year is not None else "-"
            lines.append(f"{node_id}: kind={record.subject_kind.value} origin_year={year}")
        lines += [f"{parent} -> {child}" for parent, child in graph.edges]
        click.echo("\n".join(lines))


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
def cmd_range(settings: Settings, lineage_path: Path, captures_dir: Path | None) -> None:
    """License range per lineage node (and the applicable capture, if given)."""
    from .lineage import CaptureInput, compute_license_range, parse_capture_list, select_capture

    graph = _load_graph(lineage_path, settings.strict)
    # Every capture list a node names is decoded, and every line built, before
    # the report is written, so a bad capture list leaves stdout empty.
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
            capture = select_capture(node_id, captures.get(node_id, []), node_range)
            if capture.capture_year is not None:
                line += f" capture: {capture.capture_year} ({capture.status.value})"
            else:
                line += f" capture: ({capture.status.value})"
        lines.append(line)
    click.echo("\n".join(lines))


def _run_pipeline(
    settings: Settings,
    lineage_path: Path,
    interpretations_dir: Path,
    audit_timestamps: bool,
) -> tuple[ProvenanceRecord, VerifiedLicense]:
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
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds") if audit_timestamps else None
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
    settings: Settings,
    lineage_path: Path,
    interpretations_dir: Path,
    audit_timestamps: bool,
) -> None:
    """Compute the verified license of a dataset against its data sources."""
    from .assessment import render_rights_markdown

    root, verified = _run_pipeline(settings, lineage_path, interpretations_dir, audit_timestamps)
    if settings.output_format == "json":
        click.echo(canonical_json(verified.to_dict()), nl=False)
    else:
        click.echo(render_rights_markdown(verified, root.dataset_name), nl=False)


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
    settings: Settings,
    lineage_path: Path,
    interpretations_dir: Path,
    scenarios_path: Path | None,
    no_gate: bool,
    audit_timestamps: bool,
) -> None:
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
        click.echo(canonical_json(doc), nl=False)
    else:
        click.echo(render_markdown(table, verified), nl=False)
    denied = any(not row.permitted for row in table.rows)
    sys.exit(EXIT_DENIED if denied and not no_gate else EXIT_OK)


@cli.group("store")
def cmd_store() -> None:
    """Inspect or prune the analysis store."""


def _open_store(settings: Settings) -> AnalysisStore:
    from .store import AnalysisStore

    if settings.store_path is None:
        raise StoreError("no store configured; pass --store or set DLA_STORE")
    return AnalysisStore(settings.store_path)


@cmd_store.command("ls")
@click.pass_obj
def cmd_store_ls(settings: Settings) -> None:
    """List stored analyses."""
    for entry in _open_store(settings).entries():
        click.echo(f"{entry.key}  {entry.dataset_name}")


@cmd_store.command("rm")
@click.argument("key")
@click.pass_obj
def cmd_store_rm(settings: Settings, key: str) -> None:
    """Remove one stored analysis by key."""
    removed = _open_store(settings).remove(key)
    click.echo(f"removed {key}" if removed else f"no entry for {key}")


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
