"""Shared test helpers: bundle loading, the in-process command-line runner,
randomized case generation, and the toolkit every test uses to copy, edit
and run a bundle:

- :func:`copy_bundle` makes a writable copy of a fixture bundle and returns
  its lineage, interpretations and captures paths;
- :func:`locations` walks every value path of a JSON document (a path that
  ends in a string ends at a mapping key), :func:`edit` sets, deletes or
  renames at one path, and :func:`edit_file` does so in one JSON file;
  :func:`mutate` draws one seeded edit, and :func:`mutated_documents` the
  cases of ``tests/data/golden_errors.json``;
- :func:`run_dla` is the one way a test starts ``python -m dla``, and
  :func:`run_python` any other child; both run in :func:`child_env`.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, NamedTuple

import dla
import dla.cli
from dla import (
    Bundle,
    EnginePolicy,
    FIXED_RIGHTS,
    Grant,
    LicenseMetadata,
    Obligation,
    ObligationKind,
    ProvenanceRecord,
    RightEntry,
    RightsVector,
    SubjectKind,
    TriState,
    assess_all,
    build_lineage,
    default_scenarios,
    load_catalog,
    load_interpretations_dir,
    verify,
)
from dla.catalog import InterpretationSet, _InterpretationDocument, _TemplateDocument
from dla.errors import AmbiguousRange, MissingOriginYear, NoDatasetAncestor
from dla.lineage import CaptureInput, LineageGraph, _LineageDocument
from dla.model import (
    AssessmentRow,
    AssessmentTable,
    AuditInfo,
    Digest,
    Document,
    LicenseFoundVia,
    LicenseRange,
    UsageScenario,
    VerifiedLicense,
    _BlockingRight,
    canonical_json,
    replace,
)
from dla.resources import templates_dir
from dla.store import StoreEntry, analysis_key

BUNDLE_NAMES = [
    "cifar-10",
    "imagenet",
    "cityscapes",
    "ffhq",
    "vggface2",
    "ms-coco",
    "ms-coco-annotations",
]

GOLDEN_KEYS_PATH = Path(__file__).parent / "data" / "golden_keys.json"
# The inputs digest ``verify`` records for an analysis of parsed objects,
# which no file bytes were hashed for.
DIGEST = "d" * 64
FIXTURES_DIR = Path(dla.__file__).resolve().parent / "data" / "fixtures"

_CATALOG = load_catalog()


def load_bundle(name: str) -> tuple[LineageGraph, InterpretationSet]:
    base = FIXTURES_DIR / name
    graph = LineageGraph.from_dict(
        json.loads((base / "lineage.json").read_text(encoding="utf-8"))
    )
    interpretations = load_interpretations_dir(base / "interpretations", _CATALOG)
    return graph, interpretations


def bundle_paths(name: str) -> tuple[Path, Path]:
    base = FIXTURES_DIR / name
    return base / "lineage.json", base / "interpretations"


def read_bundle(name: str) -> Bundle:
    return Bundle.read(*bundle_paths(name))


# ---------------------------------------------------------------------------
# Running the command line in process
# ---------------------------------------------------------------------------


class _RecordedStream(io.StringIO):
    """A standard stream that records each write, and whether it was stderr."""

    def __init__(self, writes: list[tuple[str, bool]], err: bool):
        super().__init__()
        self.writes, self.err = writes, err

    def write(self, text: str) -> int:
        self.writes.append((text, self.err))
        return super().write(text)


@dataclass(frozen=True)
class CliResult:
    """One in-process ``dla`` run: its exit code and each write it made, in
    order, as the text and whether it went to stderr."""

    exit_code: int
    writes: list[tuple[str, bool]]

    @property
    def stdout(self) -> str:
        return "".join(text for text, err in self.writes if not err)

    @property
    def stderr(self) -> str:
        return "".join(text for text, err in self.writes if err)

    @property
    def output(self) -> str:
        """stdout and stderr interleaved in the order they were written."""
        return "".join(text for text, _ in self.writes)

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode("utf-8")


def _set_environ(values: dict[str, str | None]) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def run_cli(*args: object, env: dict[str, str | None] | None = None) -> CliResult:
    """Run ``dla args...`` in this process, with ``sys.stdout`` and
    ``sys.stderr`` recorded and ``env`` set in ``os.environ`` (``None`` unsets
    a name); both are put back on every exit. Only the run's ``SystemExit``
    is caught: any other exception propagates, so a traceback fails the test
    instead of passing as exit 1."""
    env, writes = env or {}, []
    streams = sys.stdout, sys.stderr
    saved = {name: os.environ.get(name) for name in env}
    sys.stdout, sys.stderr = _RecordedStream(writes, False), _RecordedStream(writes, True)
    try:
        _set_environ(env)
        dla.cli._run([str(arg) for arg in args])
    except SystemExit as exit_:
        return CliResult(exit_.code, writes)
    finally:
        sys.stdout, sys.stderr = streams
        _set_environ(saved)


# ---------------------------------------------------------------------------
# Copying, editing and running a bundle
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
DELETE = object()  # the value that makes :func:`edit` delete


class BundleCopy(NamedTuple):
    lineage: Path
    interpretations: Path
    captures: Path


def copy_bundle(name: str, into: Path) -> BundleCopy:
    """A writable copy of the fixture bundle ``name``, made at ``into / name``."""
    root = Path(shutil.copytree(FIXTURES_DIR / name, into / name))
    return BundleCopy(root / "lineage.json", root / "interpretations", root / "captures")


def locations(doc: Any, where: tuple = ()) -> Iterator[tuple]:
    """The key path of every value in a JSON tree, the root first. A path
    that ends in a string also names a mapping key. Each ``edges`` pair is
    one value: its endpoints are decoded by the lineage document's own hook."""
    yield where
    if where[:1] == ("edges",) and len(where) == 2:
        return
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from locations(value, where + (key,))


def at(doc: Any, where: tuple) -> Any:
    for key in where:
        doc = doc[key]
    return doc


def edit(doc: Any, where: tuple, value: Any = DELETE, key: str | None = None) -> Any:
    """``doc`` with one change at the path ``where``: the value there set to
    ``value`` (or added, at a mapping key not yet there), deleted when
    ``value`` is ``DELETE``, or with ``key``, its mapping key renamed to
    ``key`` in its place. ``doc`` is changed and returned, unless the root
    itself is replaced."""
    if not where:
        return value
    parent, last = at(doc, where[:-1]), where[-1]
    if key is not None:
        items = [(key if name == last else name, item) for name, item in parent.items()]
        parent.clear()
        parent.update(items)
    elif value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


def edit_file(path: Path, where: tuple, value: Any = DELETE, key: str | None = None) -> None:
    """One :func:`edit` of the JSON file ``path``, written back as the
    fixtures are written, so an unchanged document keeps its bytes."""
    doc = edit(json.loads(path.read_text(encoding="utf-8")), where, value, key)
    path.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def child_env(**extra: str) -> dict[str, str]:
    """The environment of every child process a test starts: this one's,
    with ``PYTHONPATH`` naming this checkout's ``src`` and without the
    variables that change what ``dla`` does or prints (every ``DLA_*``, and
    ``PYTHONWARNINGS``), then ``extra``."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("DLA_") and name != "PYTHONWARNINGS"}
    return {**env, "PYTHONPATH": str(SRC), **extra}


def run_python(*argv: object, **options: Any) -> subprocess.CompletedProcess:
    """``python argv...`` in a child, in :func:`child_env`, with stdout and
    stderr captured and a 120 s timeout; ``options`` go to
    :func:`subprocess.run` over those."""
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "timeout": 120,
               "env": child_env(), **options}
    return subprocess.run([sys.executable, *map(str, argv)], **options)


def run_dla(*args: object, python: tuple[str, ...] = (), **options: Any) -> subprocess.CompletedProcess:
    """``python [python...] -m dla args...`` through :func:`run_python`."""
    return run_python(*python, "-m", "dla", *args, **options)


# ---------------------------------------------------------------------------
# Seeded document mutations (``tests/data/golden_errors.json``)
# ---------------------------------------------------------------------------

SEED = 20211104
MUTATIONS_PER_TYPE = 96
# One value of each JSON type, and a string no enum accepts.
SWAPS = ("zz", 7, -1, True, 1.5, [], ["zz"], {}, {"zz": 1})
UNKNOWN_FIELD = "zz_unknown"
# The inputs digest and engine version of the imagenet analysis as first
# recorded. The golden file freezes the codec, not the fingerprint or the
# engine version, so the analysis carries them as they were.
INPUTS_DIGEST = "a68a9ed14f0a2aeee2060644ec8b663440e607381258fc327e3e656019c36b5f"
ENGINE_VERSION = "0.1.0"


def document_types() -> set[type]:
    found: set[type] = set()
    pending = [Document]
    while pending:
        for sub in pending.pop().__subclasses__():
            found.add(sub)
            pending.append(sub)
    return found


def read(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def base_documents() -> dict[type, Any]:
    """One valid JSON document of every document type, from the shipped
    fixtures and the analyses the library computes from them."""
    lineage_path, _ = bundle_paths("imagenet")
    graph, interpretations = load_bundle("imagenet")
    verified = verify(
        graph,
        interpretations.vectors,
        EnginePolicy(),
        template_digests=interpretations.template_digests,
        inputs_digest=INPUTS_DIGEST,
    )
    verified = replace(verified, audit=replace(verified.audit, engine_version=ENGINE_VERSION))
    table = assess_all(verified, default_scenarios(), dataset_name=graph.root.dataset_name)
    blocked = next(row for row in table.rows if row.blocking_rights)
    template = read(templates_dir() / "cc-by-4.0.json")
    vector = template["vector"]
    entry = next(e for e in vector["standalone_rights"].values() if e.get("obligations"))
    cifar_lineage, _ = bundle_paths("cifar-10")
    record = next(r for r in read(cifar_lineage)["records"] if r.get("digest"))
    captures = read(lineage_path.parent / "captures" / "flickr.json")
    _, ffhq_interp = bundle_paths("ffhq")
    return {
        _LineageDocument: read(lineage_path),
        ProvenanceRecord: record,
        Digest: record["digest"],
        CaptureInput: captures[0],
        LicenseRange: LicenseRange.ending_at(2009).to_dict(),
        _TemplateDocument: template,
        RightsVector: vector,
        LicenseMetadata: vector["metadata"],
        RightEntry: entry,
        Obligation: entry["obligations"][0],
        _InterpretationDocument: read(ffhq_interp / "ffhq.json"),
        EnginePolicy: EnginePolicy().to_dict(),
        VerifiedLicense: verified.to_dict(),
        AuditInfo: verified.audit.to_dict(),
        UsageScenario: default_scenarios()[0].to_dict(),
        AssessmentTable: table.to_dict(),
        AssessmentRow: blocked.to_dict(),
        _BlockingRight: blocked.blocking_rights[0].to_dict(),
        StoreEntry: {
            "key": analysis_key(graph.root),
            "dataset_name": graph.root.dataset_name,
            "payload_sha256": hashlib.sha256(
                canonical_json(verified.to_dict()).encode("utf-8")
            ).hexdigest(),
            "verified_license": verified.to_dict(),
        },
    }


def render(where: tuple) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where) or "<root>"


def mutate(doc: Any, rng: random.Random) -> tuple[str, Any]:
    """One random mutation of ``doc``: a value swapped for one of another
    JSON type, a null, a deleted key or item, or an unknown field. Returns
    its description and the mutated tree, as :func:`edit` returns it."""
    places = list(locations(doc))
    where = rng.choice(places)
    kind = rng.choice(["swap", "null", "delete", "unknown"])
    objects = [p for p in places if isinstance(at(doc, p), dict)]
    if kind == "unknown" and objects:
        where = rng.choice(objects)
        return f"unknown field at {render(where)}", edit(doc, where + (UNKNOWN_FIELD,), "zz")
    if kind == "delete" and where:
        return f"delete {render(where)}", edit(doc, where)
    value = None if kind == "null" else copy.deepcopy(rng.choice(SWAPS))
    return f"set {render(where)} = {json.dumps(value)}", edit(doc, where, value)


def mutated_documents() -> Iterator[tuple[type, str, Any]]:
    """Every case: its type, its name (the type and the mutations) and the
    mutated document."""
    for cls, base in sorted(base_documents().items(), key=lambda item: item[0].__name__):
        rng = random.Random(f"{SEED}:{cls.__name__}")
        for _ in range(MUTATIONS_PER_TYPE):
            doc, descriptions = copy.deepcopy(base), []
            for _ in range(rng.choice([1, 1, 2])):
                description, doc = mutate(doc, rng)
                descriptions.append(description)
            yield cls, f"{cls.__name__}: {'; '.join(descriptions)}", doc


# ---------------------------------------------------------------------------
# Randomized generation for oracle and property tests
# ---------------------------------------------------------------------------

_OBLIGATION_POOL = [
    Obligation("ob-a", "Credit the creators", ObligationKind.ATTRIBUTION),
    Obligation("ob-b", "Cite the report", ObligationKind.CITE),
    Obligation("ob-c", "Link the license", ObligationKind.LINK_LICENSE),
    Obligation("ob-d", "Same license on derivatives", ObligationKind.SHARE_ALIKE),
    Obligation("ob-e", "Mark your changes", ObligationKind.INDICATE_CHANGES),
    Obligation("ob-f", "Honor takedown requests", ObligationKind.TAKEDOWN),
]


def random_entry(rng: random.Random) -> RightEntry:
    grant = rng.choice([Grant.GRANTED, Grant.DENIED, Grant.UNSPECIFIED])
    count = rng.randint(0, 3)
    obligations = tuple(rng.sample(_OBLIGATION_POOL, count))
    return RightEntry(grant=grant, obligations=obligations)


def random_vector(rng: random.Random, name: str) -> RightsVector:
    return RightsVector(
        metadata=LicenseMetadata(
            licensor=f"licensor-{name}", license_name="random", dataset_name=name
        ),
        standalone_rights={r: random_entry(rng) for r in FIXED_RIGHTS[:4]},
        model_rights={r: random_entry(rng) for r in FIXED_RIGHTS[4:]},
    )


def record_for(subject_id: str, kind: SubjectKind = SubjectKind.DATASET) -> ProvenanceRecord:
    return ProvenanceRecord(
        subject_id=subject_id,
        subject_kind=kind,
        dataset_name=subject_id,
        origin_year=2010 if kind is SubjectKind.DATASET else None,
        origin_url=f"https://example.org/{subject_id}",
        outlet_licensed=TriState.UNKNOWN,
        publicly_available=TriState.YES,
        license_found_via=LicenseFoundVia.OFFICIAL_WEBSITE,
        license_content="terms",
    )


def website_chain(
    root_id: str, length: int
) -> tuple[list[ProvenanceRecord], list[tuple[str, str]]]:
    """Records and edges of a chain of ``length`` nodes: the dataset
    ``root_id`` (origin 2010) over websites ``w00001``, ``w00002``, ..."""
    ids = [root_id] + [f"w{i:05d}" for i in range(1, length)]
    records = [record_for(root_id)] + [record_for(i, SubjectKind.WEBSITE) for i in ids[1:]]
    return records, list(zip(ids, ids[1:]))


def random_case(
    rng: random.Random, max_nodes: int = 8
) -> tuple[LineageGraph, dict[str, RightsVector | None]]:
    """A random rooted DAG (each node points back to an earlier one, plus random
    extra edges) with random vectors and random unavailable marks. The root is
    always interpreted."""
    count = rng.randint(1, max_nodes)
    ids = [f"n{i:02d}" for i in range(count)]
    records = [record_for(ids[0])] + [
        record_for(i, rng.choice(list(SubjectKind))) for i in ids[1:]
    ]
    edges: list[tuple[str, str]] = []
    for i in range(1, count):
        parent = ids[rng.randint(0, i - 1)]
        edges.append((parent, ids[i]))
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.15 and (ids[i], ids[j]) not in edges:
                edges.append((ids[i], ids[j]))
    graph = build_lineage(records, edges, ids[0])
    interpretations: dict[str, RightsVector | None] = {
        ids[0]: random_vector(rng, ids[0])
    }
    for node_id in ids[1:]:
        if rng.random() < 0.2:
            interpretations[node_id] = None
        else:
            interpretations[node_id] = random_vector(rng, node_id)
    return graph, interpretations


def write_synthetic_bundle(root: Path) -> tuple[Path, Path]:
    """An all-permissive single-node bundle: every right granted, no
    obligations. Returns (lineage path, interpretations dir)."""
    record = record_for("synthetic")
    lineage_path = root / "lineage.json"
    lineage_path.write_text(
        canonical_json(
            {"records": [record.to_dict()], "edges": [], "root_id": "synthetic"}
        ),
        encoding="utf-8",
    )
    entry = RightEntry(grant=Grant.GRANTED)
    vector = RightsVector(
        metadata=LicenseMetadata(
            licensor="Synthetic", license_name="Do anything", dataset_name="synthetic"
        ),
        standalone_rights={r: entry for r in FIXED_RIGHTS[:4]},
        model_rights={r: entry for r in FIXED_RIGHTS[4:]},
    )
    interp_dir = root / "interpretations"
    interp_dir.mkdir()
    (interp_dir / "synthetic.json").write_text(
        canonical_json({"subject_id": "synthetic", "vector": vector.to_dict()}),
        encoding="utf-8",
    )
    return lineage_path, interp_dir


def oracle_verify(
    graph: LineageGraph,
    interpretations: dict[str, RightsVector | None],
    policy: EnginePolicy = EnginePolicy(),
) -> dict:
    """Brute-force reference: per right, AND-fold the boolean grants of every
    interpreted node (Unspecified counts as denied), and union obligation ids
    root-first then by subject id. Written independently of the engine."""
    root = interpretations[graph.root_id]
    assert root is not None
    others = sorted(n for n in graph.nodes if n != graph.root_id)
    unavailable = [n for n in others if interpretations[n] is None]

    rights = set(FIXED_RIGHTS)
    for vec in interpretations.values():
        if vec is not None:
            rights |= set(vec.custom_rights)

    grants: dict[str, bool] = {}
    obligations: dict[str, list[str]] = {}
    for right in sorted(rights):
        votes = [root.grant(right) is Grant.GRANTED]
        for node_id in others:
            vec = interpretations[node_id]
            if vec is None:
                if policy.unknown_denies:
                    votes.append(False)
                continue
            votes.append(vec.grant(right) is Grant.GRANTED)
        granted = all(votes)
        grants[right] = granted
        ids: list[str] = []
        if granted:
            sources = [root] + [
                interpretations[n] for n in others if interpretations[n] is not None
            ]
            for vec in sources:
                entry = vec.entry(right)
                if entry is None:
                    continue
                for obligation in entry.obligations:
                    if obligation.id not in ids:
                        ids.append(obligation.id)
        obligations[right] = ids
    return {
        "grants": grants,
        "obligations": obligations,
        "residual": sorted(unavailable),
    }


def oracle_range(node_id: str, graph: LineageGraph) -> LicenseRange:
    """Brute-force reference for ``compute_license_range``, written against
    ``graph.edges`` alone: a dataset's range ends at its origin year; any other
    node walks upward breadth-first, scanning every edge per level, and the
    first level holding datasets decides. They must all agree; the first of
    them in id order without an origin year is the one named."""

    def dataset_range(dataset_id: str) -> LicenseRange:
        year = graph.nodes[dataset_id].origin_year
        if year is None:
            raise MissingOriginYear(dataset_id)
        return LicenseRange(year - 1, year)

    def is_dataset(subject_id: str) -> bool:
        return graph.nodes[subject_id].subject_kind is SubjectKind.DATASET

    if is_dataset(node_id):
        return dataset_range(node_id)
    level, seen = {node_id}, {node_id}
    while level:
        level = {p for p, c in graph.edges if c in level and p not in seen}
        seen |= level
        datasets = sorted(n for n in level if is_dataset(n))
        if datasets:
            ranges = [dataset_range(d) for d in datasets]
            if len(set(ranges)) > 1:
                raise AmbiguousRange(node_id, tuple(datasets))
            return ranges[0]
    raise NoDatasetAncestor(node_id)
