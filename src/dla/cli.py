"""Command-line front end.

Exit codes are a contract for pipeline gating:
0 all clean / all scenarios permitted, 1 validation problem (a non-string
edge endpoint included), 2 lineage problem, 3 at least one scenario denied,
64 an input file that is missing, unreadable or not UTF-8 JSON (lineage,
interpretation, template, scenario, capture list or validated document), JSON
nested deeper than the parser allows, an interpretations or captures
directory that is not a directory, an unusable store or damaged store entry,
and a command line that cannot be parsed (a usage error: ``EX_USAGE`` of
sysexits(3), where argparse's own code, 2, would read as a lineage problem).
Every input file is read through :func:`dla.jsonio.read_json`.

Each command returns its report and exit code; the report is written in one
write after it is complete, so any error exit leaves stdout empty. Every line of
a text report, and the one stderr line of an error or a package warning, is
written by :func:`dla.jsonio.text_lines`, the one line rule. The command line is
parsed by argparse: ``dla`` needs only the standard library.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Sequence

from .errors import DlaError, DlaWarning, InputError, LineageError, ParseError, StoreError
from .jsonio import canonical_json, path_prefix, read_inputs, read_json, text_lines
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


class _Shown(Exception):
    """Raised by ``--help`` and ``--version``: the text they print, as a report."""


class _UsageError(Exception):
    """A command line that cannot be parsed: its args are the message and the
    usage lines that follow it, as argparse formats them."""


# Exit code of every error a run may end with; the first matching class
# wins. Any other package error (parse, schema, catalog, engine, assessment)
# is a validation problem.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (_UsageError, EXIT_USAGE),
    (InputError, EXIT_IO),
    (StoreError, EXIT_IO),
    (LineageError, EXIT_LINEAGE),
    (DlaError, EXIT_VALIDATION),
)


def _load_graph(path: Path, strict: bool) -> LineageGraph:
    from .lineage import LineageGraph

    return LineageGraph.from_dict(read_json(path), str(path), strict)


def _document_shapes() -> tuple[tuple[Callable, Callable, Callable | None], ...]:
    """Each document shape ``validate`` recognises, in the order they are
    tried: a test of the decoded JSON, its decoder (data, path, strict), and
    the check that lists the problems of what the decoder gave."""
    from .assessment import load_scenarios
    from .catalog import parse_template
    from .lineage import LineageGraph, parse_capture_list
    from .model import (
        ProvenanceRecord, RightsVector, validate_provenance, validate_rights_vector,
    )

    def has(*keys: str, test: Callable = all) -> Callable[[Any], bool]:
        return lambda data: isinstance(data, dict) and test(key in data for key in keys)

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
        (lambda data: isinstance(data, list) and data != [] and all(map(has("required_rights"), data)),
         lambda data, path, strict: load_scenarios(path, strict, data), None),
        (lambda data: isinstance(data, list), parse_capture_list, None),
        (has("records", "root_id"), LineageGraph.from_dict, lineage_problems),
        (has("subject_kind"), ProvenanceRecord.from_dict, validate_provenance),
        (has("license_id", "vector"), lambda data, path, strict: parse_template(data, path), None),
        (has("subject_id", "template", "vector", "unavailable", test=any), interpretation, None),
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


def cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    """Validate provenance, interpretation, lineage, capture-list, rights-vector,
    template or scenario-list documents."""
    shapes = _document_shapes()
    lines, code = [], EXIT_OK
    for path in args.paths:
        problems = _validate_one(path, read_json(path), args.strict, shapes)
        if problems:
            code = EXIT_VALIDATION
            lines.append(f"{path}: {len(problems)} problem(s)")
            lines += [f"  - {problem}" for problem in problems]
        else:
            lines.append(f"{path}: ok")
    return text_lines(lines), code


def cmd_lineage(args: argparse.Namespace) -> tuple[str, int]:
    """Show the validated lineage graph of a dataset."""
    graph = _load_graph(args.lineage_path, args.strict)
    if args.output_format == "json":
        return canonical_json(graph.to_dict()), EXIT_OK
    lines = [f"root: {graph.root_id}"]
    for node_id, record in graph.nodes.items():
        year = record.origin_year if record.origin_year is not None else "-"
        lines.append(f"{node_id}: kind={record.subject_kind.value} origin_year={year}")
    lines += [f"{parent} -> {child}" for parent, child in graph.edges]
    return text_lines(lines), EXIT_OK


def cmd_range(args: argparse.Namespace) -> tuple[str, int]:
    """License range per lineage node (and the applicable capture, if given)."""
    from .lineage import CaptureInput, compute_license_range, parse_capture_list, select_capture

    graph = _load_graph(args.lineage_path, args.strict)
    captures: dict[str, list[CaptureInput]] | None = None
    if args.captures_dir is not None:
        capture_files, captures = read_inputs(args.captures_dir), {}
        prefix = path_prefix(args.captures_dir)
        for node_id in graph.nodes:
            name = f"{node_id}.json"
            if name in capture_files:
                path = prefix + name
                captures[node_id] = parse_capture_list(
                    read_json(path, capture_files[name]), path, args.strict
                )
        if len(captures) < len(capture_files):  # a file that names no node
            stray = next(name for name in capture_files if name[:-5] not in captures)
            raise ParseError(prefix + stray, f"{stray[:-5]!r} names no lineage node")
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
    return text_lines(lines), EXIT_OK


def _run_pipeline(args: argparse.Namespace) -> tuple[ProvenanceRecord, VerifiedLicense]:
    from .engine import EnginePolicy
    from .model import replace
    from .store import AnalysisStore, Bundle, lookup_or_verify

    bundle = Bundle.read(args.lineage_path, args.interpretations_dir, args.strict)
    try:
        store = AnalysisStore(args.store_path) if args.store_path else None
    except StoreError:
        bundle.lineage  # a lineage that is not JSON is named first
        raise
    verified, cache_hit = lookup_or_verify(
        store, bundle, EnginePolicy(unknown_denies=args.unknown_denies))
    if cache_hit:
        sys.stderr.write("(cached analysis)\n")
    # Stamped at output time, so a stored analysis never carries a stamp and
    # a hit is stamped like a miss.
    stamp = None
    if args.audit_timestamps:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if verified.audit is not None and verified.audit.generated_at != stamp:
        verified = replace(verified, audit=replace(verified.audit, generated_at=stamp))
    return bundle.root, verified  # decodable: the lineage is valid, or it was a hit


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    """Compute the verified license of a dataset against its data sources."""
    from .assessment import render_rights_markdown

    root, verified = _run_pipeline(args)
    if args.output_format == "json":
        return verified.canonical_text, EXIT_OK
    return render_rights_markdown(verified, root.dataset_name), EXIT_OK


def cmd_assess(args: argparse.Namespace) -> tuple[str, int]:
    """Assess commercial usage scenarios for a dataset bundle.

    Exits 3 when any requested scenario is denied so CI pipelines can gate
    on compliance; --no-gate downgrades that to 0.
    """
    from .assessment import assess_all, default_scenarios, load_scenarios, render_markdown

    root, verified = _run_pipeline(args)
    if args.scenarios_path is not None:
        scenarios = load_scenarios(args.scenarios_path, args.strict)
    else:
        scenarios = default_scenarios()
    table = assess_all(verified, scenarios, dataset_name=root.dataset_name)
    if args.output_format == "json":
        doc = {"assessment": table.to_dict(), "verified_license": verified}
        report = canonical_json(doc, {"verified_license": verified.canonical_text})
    else:
        report = render_markdown(table, verified)
    denied = any(not row.permitted for row in table.rows)
    return report, EXIT_DENIED if denied and not args.no_gate else EXIT_OK


def _open_store(args: argparse.Namespace) -> AnalysisStore:
    from .store import AnalysisStore

    if args.store_path is None:
        raise StoreError("no store configured; pass --store or set DLA_STORE")
    return AnalysisStore(args.store_path)


def cmd_store_ls(args: argparse.Namespace) -> tuple[str, int]:
    """List stored analyses."""
    entries = _open_store(args).entries()
    return text_lines(f"{entry.key}  {entry.dataset_name}" for entry in entries), EXIT_OK


def cmd_store_rm(args: argparse.Namespace) -> tuple[str, int]:
    """Remove one stored analysis by key."""
    removed = _open_store(args).remove(args.key)
    return text_lines([f"removed {args.key}" if removed else f"no entry for {args.key}"]), EXIT_OK


class _Show(argparse.Action):
    """``--help`` or ``--version``: whatever follows it, show ``const(parser)``."""

    def __call__(self, parser: argparse.ArgumentParser, *_: Any) -> NoReturn:
        raise _Shown(self.const(parser))


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage: Any, actions: Any, groups: Any, prefix: Any = None) -> None:
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """A parser of the command line or of one command: no abbreviated option,
    ``--help`` and no ``-h``, and a usage error raised, not an exit."""

    def __init__(self, **kwargs: Any):
        super().__init__(allow_abbrev=False, add_help=False, formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action=_Show, nargs=0, default=argparse.SUPPRESS,
                          const=argparse.ArgumentParser.format_help, help="Show this message and exit.")

    def error(self, message: str) -> NoReturn:
        raise _UsageError(message, self.format_usage())


def _parser() -> argparse.ArgumentParser:
    """The command line: the group's options, then one parser per command,
    whose ``run`` default is the command: a function of the parsed namespace."""
    parser = _Parser(prog="dla", description=(
        "Check whether a publicly available dataset can be used in a commercial "
        "scenario without breaking its license or the licenses of its data sources."))
    parser.add_argument("--version", action=_Show, nargs=0, default=argparse.SUPPRESS,
                        const=lambda _: f"dla, version {__version__}\n", help="Show the version and exit.")
    # An empty value, given or from DLA_STORE (``type`` parses a str default too), means none.
    parser.add_argument("--store", dest="store_path", metavar="PATH",
                        type=lambda value: Path(value) if value else None,
                        default=os.environ.get("DLA_STORE"),
                        help="Analysis store directory (env: DLA_STORE); empty means none.")
    parser.add_argument("--format", dest="output_format", choices=("json", "markdown"),
                        default="markdown", help="Report format (default: markdown).")
    parser.add_argument("--strict", action="store_true", default=True,
                        help="Reject unknown document fields (the default).")
    parser.add_argument("--lenient", dest="strict", action="store_false",
                        help="Warn about unknown document fields and continue.")
    parser.add_argument("--unknown-denies", action="store_true",
                        help="Treat sources with unavailable licenses as denying every right.")

    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name: str, run: Callable, *path_names: str,
                within: Any = commands) -> argparse.ArgumentParser:
        sub = within.add_parser(name, help=(run.__doc__ or "").split("\n\n")[0], description=run.__doc__)
        sub.set_defaults(run=run)
        for path_name in path_names:
            sub.add_argument(path_name, type=Path, metavar=path_name.upper())
        return sub

    audit = {"action": "store_true", "help": "Record a generation timestamp in the audit trailer."}
    command("validate", cmd_validate).add_argument("paths", nargs="+", type=Path, metavar="PATH")
    command("lineage", cmd_lineage, "lineage_path")
    command("range", cmd_range, "lineage_path").add_argument(
        "--captures", dest="captures_dir", type=Path, metavar="DIR",
        help="Directory of per-source capture lists; shows the selected capture per node.")
    command("verify", cmd_verify, "lineage_path", "interpretations_dir").add_argument(
        "--audit-timestamps", **audit)
    assess = command("assess", cmd_assess, "lineage_path", "interpretations_dir")
    assess.add_argument("--scenarios", dest="scenarios_path", type=Path, metavar="PATH",
                        help="Scenario definitions (JSON array); defaults to the shipped DD/RPEAI/CAI.")
    assess.add_argument("--no-gate", action="store_true",
                        help="Exit 0 even when scenarios are denied.")
    assess.add_argument("--audit-timestamps", **audit)
    store = "Inspect or prune the analysis store."
    within = commands.add_parser("store", help=store, description=store).add_subparsers(
        title="commands", metavar="COMMAND", required=True)
    command("ls", cmd_store_ls, within=within)
    command("rm", cmd_store_rm, within=within).add_argument("key", metavar="KEY")
    return parser


def _run(args: Sequence[str] | None = None) -> NoReturn:
    """Run one command line in this process: the only stdout write and exit."""
    python_format = warnings.formatwarning

    def format_warning(message: Any, category: type[Warning], *where: Any) -> str:
        # Python's format names the file and line that warned: dla's own
        # source, which says nothing about the input an operator gave.
        if issubclass(category, DlaWarning):
            return text_lines([f"warning: {message}"])
        return python_format(message, category, *where)

    warnings.formatwarning = format_warning
    try:
        parsed = _parser().parse_args(args)  # None: sys.argv[1:]
        report, code = parsed.run(parsed)
    except _Shown as exc:
        report, code = str(exc), EXIT_OK
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        report, code = "", next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
        message, usage = exc.args if isinstance(exc, _UsageError) else (exc, "")
        sys.stderr.write(text_lines([f"error: {message}"]) + usage)
    finally:
        warnings.formatwarning = python_format
    try:
        if report:
            sys.stdout.write(report)
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`dla ... | head -c 1`): exit 1, with stdout on
        # /dev/null so that Python's flush at exit has nothing left to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


# Only for ``bench/tracing.run_in_process``, which calls ``cli.main(args=...,
# prog_name="dla", standalone_mode=False)``; goes with the next change to bench/.
cli = argparse.Namespace(main=lambda args=None, prog_name=None, standalone_mode=True: _run(args))


def main() -> None:
    """The ``dla`` process: the command line with the cyclic garbage
    collector off, and every object frozen before the interpreter exits.

    Every value dla builds is an acyclic tree that reference counting frees:
    during one assess of a 5 000-node lineage the collector ran over 100
    times and collected 0 objects. At shutdown the interpreter still runs
    one full collection over every object of argparse, typing and dla, after
    the report is written; it does not scan frozen objects. Freezing is safe
    because nothing dla builds needs a finalizer at exit: store blobs are
    closed by ``with`` before ``os.replace``, and Python flushes stdio and
    runs atexit hooks during finalization anyway (``os._exit`` would skip
    those, and profiler output with them). Only the process entry does
    either; a library caller, or a run of `_run` in process, keeps its own
    collector, unfrozen.
    """
    import gc

    gc.disable()
    try:
        _run()
    finally:  # every exit: a report, an error, --version, a usage error
        gc.freeze()


if __name__ == "__main__":
    main()
