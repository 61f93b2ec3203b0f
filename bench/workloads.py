"""Seeded input bundles for the benchmark workloads.

Every bundle is a directory holding ``lineage.json``, ``interpretations/``
and ``captures/`` laid out exactly like the shipped fixtures, so ``dla`` is
measured on real files. The same seed always writes byte-identical bundles;
:func:`bundle_sha256` fingerprints a bundle so results can prove it.

The generator is written against the documented file formats only. It does
not import ``dla``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

FIXTURES = (
    "cifar-10",
    "imagenet",
    "cityscapes",
    "ffhq",
    "vggface2",
    "ms-coco",
    "ms-coco-annotations",
)
WORKLOADS = ("fixtures", "wide", "deep")
DEFAULT_NODES = {"wide": 5000, "deep": 2000}
WIDE_WINDOW = 50  # a wide node's parent is one of the previous 50 nodes

STANDALONE_RIGHTS = ("Access", "Tagging", "Distribute", "Rerepresent")
MODEL_RIGHTS = (
    "Benchmark",
    "Research",
    "Publish",
    "InternalUse",
    "CommercializeOutput",
    "CommercializeModel",
    "ModelReverseEngineer",
)
# Granted by every synthetic source and every shipped template, so the
# obligation union for this right runs over all N vectors.
UNIVERSAL_RIGHT = "Distribute"
TEMPLATES = ("CC-BY-4.0", "CC-BY-NC-4.0", "CC-BY-NC-SA-4.0")

_OBLIGATIONS = (
    {"id": "ob-a", "text": "Credit the creators", "kind": "attribution"},
    {"id": "ob-b", "text": "Cite the report", "kind": "cite"},
    {"id": "ob-c", "text": "Link the license", "kind": "link_license"},
    {"id": "ob-d", "text": "Same license on derivatives", "kind": "share_alike"},
    {"id": "ob-e", "text": "Mark your changes", "kind": "indicate_changes"},
    {"id": "ob-f", "text": "Honor takedown requests", "kind": "takedown"},
)


@dataclass(frozen=True)
class Bundle:
    name: str
    root: Path

    @property
    def lineage(self) -> Path:
        return self.root / "lineage.json"

    @property
    def interpretations(self) -> Path:
        return self.root / "interpretations"

    @property
    def captures(self) -> Path:
        return self.root / "captures"


def _dump(path: Path, doc: object) -> None:
    path.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def bundle_sha256(bundle: Bundle) -> str:
    """SHA-256 over every file of a bundle: sorted relative path, then bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in bundle.root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(bundle.root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def make_bundles(
    workload: str, seed: int, out_dir: Path, fixtures_dir: Path, nodes: int | None = None
) -> list[Bundle]:
    """Write the bundles of one workload under ``out_dir`` and return them.

    ``fixtures``: the seven shipped bundles, copied, in a seeded order.
    ``wide``: one DAG whose node i collects from one of the 50 nodes before it.
    ``deep``: one chain, node i collects from node i-1.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fixtures":
        names = list(FIXTURES)
        rng.shuffle(names)
        bundles = []
        for name in names:
            target = out_dir / name
            shutil.copytree(fixtures_dir / name, target)
            bundles.append(Bundle(name, target))
        return bundles
    if workload not in DEFAULT_NODES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    count = nodes or DEFAULT_NODES[workload]
    if workload == "wide":
        parents = [rng.randint(max(0, i - WIDE_WINDOW), i - 1) for i in range(1, count)]
    else:
        parents = list(range(count - 1))
    bundle = Bundle(workload, out_dir / workload)
    _write_synthetic(bundle, rng, parents)
    return [bundle]


def _node_id(index: int) -> str:
    return f"n{index:05d}"


def _record(rng: random.Random, index: int) -> dict:
    kind = "dataset" if index == 0 else rng.choices(
        ("dataset", "website", "search_engine"), weights=(2, 5, 3)
    )[0]
    node_id = _node_id(index)
    found = rng.choice(("official_website", "packaged_file", "owner_contact"))
    return {
        "subject_id": node_id,
        "subject_kind": kind,
        "dataset_name": f"Synthetic {kind} {index}",
        "dataset_version": None,
        "origin_year": rng.randint(2000, 2020) if kind == "dataset" else None,
        "origin_url": f"https://example.org/{node_id}",
        "description": f"Synthetic {kind} number {index}.",
        "collection_process": "Collected from the sources listed in the lineage.",
        "downloaded_outlet": None,
        "outlet_licensed": rng.choice(("yes", "no", "unknown")),
        "publicly_available": "yes",
        "notes": "",
        "license_found_via": found,
        "license_location": f"https://example.org/{node_id}/license",
        "license_content": "Terms of use.",
        "digest": None,
        "size_bytes": None,
        "archive_format": None,
    }


def _entry(rng: random.Random, granted: bool) -> dict:
    grant: object
    if granted:
        grant = rng.choice(("granted", True))
    else:
        grant = rng.choice(("granted", "granted", "granted", "denied", "unspecified", False))
    return {"grant": grant, "obligations": rng.sample(_OBLIGATIONS, rng.randint(0, 2))}


def _vector(rng: random.Random, node_id: str, root: bool) -> dict:
    def group(names: tuple[str, ...]) -> dict:
        return {r: _entry(rng, root or r == UNIVERSAL_RIGHT) for r in names}

    return {
        "metadata": {
            "licensor": f"Licensor of {node_id}",
            "license_name": f"Terms {node_id}",
            "dataset_name": node_id,
            "dataset_version": None,
            "credit_notice": None,
            "validity_period": None,
            "liability_warranty": None,
            "designated_third_parties": None,
            "additional_conditions": None,
        },
        "standalone_rights": group(STANDALONE_RIGHTS),
        "model_rights": group(MODEL_RIGHTS),
        "custom_rights": {},
    }


def _interpretation(rng: random.Random, index: int) -> dict:
    node_id = _node_id(index)
    if index == 0:
        return {"subject_id": node_id, "vector": _vector(rng, node_id, root=True)}
    roll = rng.random()
    if roll < 0.2:
        return {"subject_id": node_id, "unavailable": True, "notes": "No terms found."}
    if roll < 0.6:
        return {"subject_id": node_id, "vector": _vector(rng, node_id, root=False)}
    doc: dict = {"subject_id": node_id, "template": rng.choice(TEMPLATES)}
    if rng.random() < 0.5:
        doc["metadata"] = {"licensor": f"Licensor of {node_id}", "dataset_name": node_id}
    if rng.random() < 0.3:
        right = rng.choice(STANDALONE_RIGHTS + MODEL_RIGHTS)
        doc["extra_obligations"] = {right: rng.sample(_OBLIGATIONS, rng.randint(1, 2))}
    return doc


def _captures(rng: random.Random, index: int) -> list[dict]:
    years = sorted(rng.randint(1998, 2021) for _ in range(rng.randint(0, 3)))
    return [
        {
            "year": year,
            "url": f"https://archive.example.org/{year}/{_node_id(index)}/{k}",
            "content": "Archived terms.",
        }
        for k, year in enumerate(years)
    ]


def _write_synthetic(bundle: Bundle, rng: random.Random, parents: list[int]) -> None:
    count = len(parents) + 1
    records = [_record(rng, i) for i in range(count)]
    edges = [[_node_id(p), _node_id(i + 1)] for i, p in enumerate(parents)]
    bundle.interpretations.mkdir(parents=True)
    bundle.captures.mkdir()
    _dump(bundle.lineage, {"records": records, "edges": edges, "root_id": _node_id(0)})
    for i in range(count):
        _dump(bundle.interpretations / f"{_node_id(i)}.json", _interpretation(rng, i))
        if rng.random() < 0.5:
            _dump(bundle.captures / f"{_node_id(i)}.json", _captures(rng, i))
