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

import functools
import hashlib
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import click

from .assessment import (
    assess_all,
    default_scenarios,
    load_scenarios,
    render_markdown,
    render_rights_markdown,
)
from .catalog import InterpretationSet, LicenseCatalog, load_catalog, load_interpretations_dir
from .catalog import parse_interpretation
from .engine import EnginePolicy, fingerprint_inputs
from .errors import DlaError, InputError, LineageError, StoreError
from .lineage import (
    CaptureInput,
    LineageGraph,
    compute_license_range,
    decode_root,
    parse_capture_list,
    select_capture,
)
from .model import (
    ProvenanceRecord,
    RightsVector,
    VerifiedLicense,
    canonical_json,
    read_input,
    read_inputs,
    read_json,
    validate_provenance,
    validate_rights_vector,
)
from .resources import templates_dir
from .store import AnalysisStore, lookup_or_verify
from .version import __version__

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


@dataclass
class Settings:
    store_path: Path | None
    output_format: str
    strict: bool
    unknown_denies: bool


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
    ctx.obj = Settings(
        store_path=store_path,
        output_format=output_format,
        strict=strict,
        unknown_denies=unknown_denies,
    )


def _load_graph(path: Path, strict: bool) -> LineageGraph:
    return LineageGraph.from_dict(read_json(path), str(path), strict)


def _validate_one(path: Path, data: Any, strict: bool, catalog: LicenseCatalog) -> list[str]:
    """Validate one document of any recognized shape; returns problem lines."""
    problems: list[str] = []
    try:
        if isinstance(data, list):
            parse_capture_list(data, str(path), strict)
        elif isinstance(data, dict) and "records" in data and "root_id" in data:
            graph = LineageGraph.from_dict(data, str(path), strict)
            for record in graph.nodes.values():
                problems.extend(
                    f"{record.subject_id}.{v.field}: {v.message}"
                    for v in validate_provenance(record)
                )
        elif isinstance(data, dict) and "subject_kind" in data:
            record = ProvenanceRecord.from_dict(data, str(path), strict)
            problems.extend(str(v) for v in validate_provenance(record))
        elif isinstance(data, dict) and "subject_id" in data:
            parse_interpretation(data, catalog, strict=strict, path=str(path))
        elif isinstance(data, dict) and "metadata" in data and "standalone_rights" in data:
            vector = RightsVector.from_dict(data, str(path), strict)
            problems.extend(str(v) for v in validate_rights_vector(vector))
        else:
            problems.append("unrecognized document shape")
    except DlaError as exc:
        problems.append(str(exc))
    return problems


@cli.command("validate")
@click.argument("paths", nargs=-1, required=True, type=click.Path(path_type=Path))
@click.pass_obj
def cmd_validate(settings: Settings, paths: tuple[Path, ...]) -> None:
    """Validate provenance, interpretation, lineage, or capture documents."""
    catalog = load_catalog()
    any_problem = False
    for path in paths:
        problems = _validate_one(path, read_json(path), settings.strict, catalog)
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
        click.echo(f"root: {graph.root_id}")
        for node_id, record in graph.nodes.items():
            year = record.origin_year if record.origin_year is not None else "-"
            click.echo(f"{node_id}: kind={record.subject_kind.value} origin_year={year}")
        for parent, child in graph.edges:
            click.echo(f"{parent} -> {child}")


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
    graph = _load_graph(lineage_path, settings.strict)
    # Every capture list a node names is decoded before the first line, so a
    # bad one ends the run with nothing on stdout.
    captures: dict[str, list[CaptureInput]] | None = None
    if captures_dir is not None:
        capture_files, captures = read_inputs(captures_dir), {}
        for node_id in graph.nodes:
            name = f"{node_id}.json"
            if name in capture_files:
                path = captures_dir / name
                captures[node_id] = parse_capture_list(
                    read_json(path, capture_files[name]), str(path), settings.strict
                )
    for node_id in graph.nodes:
        try:
            node_range = compute_license_range(node_id, graph)
        except LineageError as exc:
            click.echo(f"{node_id}: error: {exc}")
            continue
        line = f"{node_id}: {node_range.start_year}-{node_range.end_year}"
        if captures is not None:
            capture = select_capture(node_id, captures.get(node_id, []), node_range)
            if capture.capture_year is not None:
                line += f" capture: {capture.capture_year} ({capture.status.value})"
            else:
                line += f" capture: ({capture.status.value})"
        click.echo(line)


def _run_pipeline(
    settings: Settings,
    lineage_path: Path,
    interpretations_dir: Path,
    audit_timestamps: bool,
) -> tuple[ProvenanceRecord, VerifiedLicense]:
    # Every input is read and hashed; with a store, only the lineage's root
    # record is decoded, for the key. The inputs digest covers the lineage
    # bytes and only analyses of valid inputs are stored, so a hit needs no
    # other parse. A miss parses and validates everything.
    lineage_raw = read_input(lineage_path)
    lineage = read_json(lineage_path, lineage_raw)
    interpretation_files = read_inputs(interpretations_dir)
    template_files = read_inputs(templates_dir())
    policy = EnginePolicy(unknown_denies=settings.unknown_denies)
    digest = fingerprint_inputs(
        lineage_raw, interpretation_files, policy, strict=settings.strict,
        template_digests={n: hashlib.sha256(b).hexdigest() for n, b in template_files.items()},
    )
    graph = functools.cache(
        lambda: LineageGraph.from_dict(lineage, str(lineage_path), settings.strict)
    )

    def parse() -> InterpretationSet:
        catalog = load_catalog(files=template_files)
        return load_interpretations_dir(interpretations_dir, catalog, strict=settings.strict,
                                        files=interpretation_files, subjects=graph().nodes)

    store = AnalysisStore(settings.store_path) if settings.store_path else None
    root = decode_root(lineage, str(lineage_path), settings.strict) if store is not None else None
    verified, cache_hit = lookup_or_verify(store, graph, parse, policy, root=root,
                                           inputs_digest=digest)
    if cache_hit:
        click.echo("(cached analysis)", err=True)
    else:
        root = graph().root
    # Stamped at output time, so a stored analysis never carries a stamp and
    # a hit is stamped like a miss.
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds") if audit_timestamps else None
    if verified.audit is not None and verified.audit.generated_at != stamp:
        verified = replace(verified, audit=replace(verified.audit, generated_at=stamp))
    return root, verified


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


def _open_store(settings: Settings, read_only: bool) -> AnalysisStore:
    if settings.store_path is None:
        raise StoreError("no store configured; pass --store or set DLA_STORE")
    return AnalysisStore(settings.store_path, read_only=read_only)


@cmd_store.command("ls")
@click.pass_obj
def cmd_store_ls(settings: Settings) -> None:
    """List stored analyses."""
    for entry in _open_store(settings, read_only=True).entries():
        click.echo(f"{entry.key}  {entry.dataset_name}")


@cmd_store.command("rm")
@click.argument("key")
@click.pass_obj
def cmd_store_rm(settings: Settings, key: str) -> None:
    """Remove one stored analysis by key."""
    removed = _open_store(settings, read_only=False).remove(key)
    click.echo(f"removed {key}" if removed else f"no entry for {key}")


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
