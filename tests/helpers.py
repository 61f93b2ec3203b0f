"""Shared test helpers: bundle loading and randomized case generation."""

from __future__ import annotations

import json
import random
from pathlib import Path

import dla
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
    build_lineage,
    load_catalog,
    load_interpretations_dir,
)
from dla.catalog import InterpretationSet
from dla.errors import AmbiguousRange, MissingOriginYear, NoDatasetAncestor
from dla.lineage import LineageGraph
from dla.model import LicenseFoundVia, LicenseRange

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
    from dla.model import Grant, LicenseMetadata, RightEntry, canonical_json

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
