"""Lineage DAG construction, license-range computation, and capture selection.

The graph points from a collector to what it collected from: an edge
``(parent, child)`` records that ``parent`` gathered content from ``child``.
The root is the dataset under analysis and must reach every other node.

:func:`select_capture` returns the chosen :class:`CaptureInput` itself and
its :class:`CaptureStatus`, or None with ``UNAVAILABLE`` when a source has
no capture.
"""

from __future__ import annotations

import json
import re
import warnings
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from .errors import (
    AmbiguousRange,
    CycleDetected,
    DanglingReference,
    DlaError,
    MissingOriginYear,
    NoDatasetAncestor,
    ParseError,
    UnknownFieldWarning,
    UnknownRoot,
    UnreachableNode,
)
from .jsonio import read_json
from .model import (
    CaptureStatus,
    DocPath,
    Document,
    LicenseRange,
    ProvenanceRecord,
    SubjectKind,
    Value,
    codec_field,
    decode_names,
    parse_error,
    wrong_type,
)


class _CheckedEdges(tuple):
    """Edges that :func:`_decode_edges` has checked, so that
    :func:`build_lineage` does not check them again."""


def _decode_edges(value: Any, path: DocPath) -> tuple[tuple[str, ...], ...]:
    if not isinstance(value, (list, tuple)):
        wrong_type(path, "array", value)
    edges = []
    for i, edge in enumerate(value):
        if edge.__class__ is list and len(edge) == 2 and edge[0].__class__ is edge[1].__class__ is str:
            edges.append(tuple(edge))  # JSON's form of an edge, which passes every check below
            continue
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            parse_error((path, i), "expected [parent_id, child_id] pair")
        edges.append(decode_names(edge, (path, i), True))
    return _CheckedEdges(edges)


class _LineageDocument(Document, path="lineage"):
    """The JSON form of a lineage graph: records as a list, edges as pairs."""

    records: tuple[ProvenanceRecord, ...]
    edges: tuple[tuple[str, ...], ...] = codec_field(decode=_decode_edges)
    root_id: str


class LineageGraph(Value):
    """Validated, canonically ordered lineage DAG.

    Construct through :func:`build_lineage`; the constructor itself does not
    re-run structural validation. The child and nearest-dataset maps are
    derived from the fields on first use; they are not fields, so they
    take no part in equality or serialization.
    """

    nodes: Mapping[str, ProvenanceRecord]
    edges: tuple[tuple[str, str], ...]
    root_id: str

    @cached_property
    def _child_map(self) -> dict[str, list[str]]:
        children: dict[str, list[str]] = {node_id: [] for node_id in self.nodes}
        for parent, child in self.edges:
            children[parent].append(child)
        return children

    @cached_property
    def _nearest_datasets(self) -> dict[str, frozenset[str]]:
        """Every node with a dataset upstream, mapped to its nearest ones.

        One breadth-first pass runs down from all datasets at once (each is
        its own nearest) and never through one, so a node is first reached at
        its distance from the nearest dataset, by every parent on the level
        above; it takes the union of their sets.
        """
        nearest = {
            node_id: frozenset((node_id,))
            for node_id, record in self.nodes.items()
            if record.subject_kind is SubjectKind.DATASET
        }
        level = list(nearest)
        while level:
            reached: dict[str, frozenset[str]] = {}
            for parent in level:
                for child in self._child_map[parent]:
                    if child not in nearest:
                        reached[child] = reached.get(child, frozenset()) | nearest[parent]
            nearest.update(reached)
            level = list(reached)
        return nearest

    @property
    def root(self) -> ProvenanceRecord:
        return self.nodes[self.root_id]

    def to_dict(self) -> dict[str, Any]:
        return _LineageDocument(
            records=tuple(self.nodes.values()), edges=self.edges, root_id=self.root_id
        ).to_dict()

    @classmethod
    def from_dict(cls, data: Any, path: str = "lineage", strict: bool = True) -> "LineageGraph":
        doc = _LineageDocument.from_dict(data, path, strict)
        return build_lineage(doc.records, doc.edges, doc.root_id, records_path=(path, "records"))


def decode_root(data: Any, path: str = "lineage", strict: bool = True) -> ProvenanceRecord | None:
    """The root record of a lineage document, decoded alone as
    :meth:`LineageGraph.from_dict` decodes it; None when it cannot be found
    or decoded, for the full parse to report why. Unknown-field warnings are
    left to the full parse too."""
    if not isinstance(data, dict):
        return None
    root_id, records = data.get("root_id"), data.get("records")
    if not isinstance(root_id, str) or not isinstance(records, list):
        return None
    found = [
        (i, record) for i, record in enumerate(records)
        if isinstance(record, dict) and record.get("subject_id") == root_id
    ]
    if len(found) != 1:
        return None
    [(i, record)] = found
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnknownFieldWarning)
        try:
            return ProvenanceRecord.from_dict(record, ((path, "records"), i), strict)
        except DlaError:
            return None


_SCANNER, _ROOT_ID = json.JSONDecoder(), re.compile(rb'"root_id"\s*:\s*')


def _value_at(raw: bytes, at: int) -> bytes:
    """The bytes of the JSON value that starts at ``raw[at]`` and ends within
    64 KiB, found by json's scanner; raises ValueError or RecursionError when
    there is none."""
    window = raw[at:at + (1 << 16)].decode("utf-8", "surrogateescape")  # any bytes round-trip
    return window[:_SCANNER.raw_decode(window)[1]].encode("utf-8", "surrogateescape")


def sniff_root(raw: bytes, path: str = "lineage", strict: bool = True) -> ProvenanceRecord | None:
    """A candidate root record, read out of a lineage's bytes: the last
    ``"root_id"`` key's value, then the first object that opens with it as
    ``subject_id`` (:func:`_value_at`), decoded alone by :func:`read_json` and
    :func:`decode_root`; None at any doubt. It is the root if the bytes are a
    valid lineage (see :mod:`dla.store`)."""
    at = raw.rfind(b'"root_id"')
    key = _ROOT_ID.match(raw, at) if at >= 0 else None
    try:
        root_id = key and _value_at(raw, key.end())
        opening = root_id and re.search(rb'\{\s*"subject_id"\s*:\s*' + re.escape(root_id), raw)
        record = opening and _value_at(raw, opening.start())
        doc = record and read_json(path, b'{"root_id": %s, "records": [%s]}' % (root_id, record))
    except (ValueError, RecursionError, DlaError):  # not JSON that dla can hold
        return None
    return decode_root(doc, path, strict) if doc else None


def _reach(adjacency: Mapping[str, Sequence[str]], root: str) -> set[str]:
    """The nodes ``root`` reaches, by one depth-first walk in adjacency order
    that keeps its own stack, so a lineage of any depth fits. Raises
    CycleDetected, naming the cycle (n0, ..., n0), when the walk meets a node
    on its current path."""
    on_path = {root: True}  # every node reached; True while it is on the path
    path = [root]
    pending = [iter(adjacency[root])]  # unvisited children per path node
    while pending:
        for child in pending[-1]:
            if on_path.get(child):
                raise CycleDetected(tuple(path[path.index(child):]) + (child,))
            if child not in on_path:
                on_path[child] = True
                path.append(child)
                pending.append(iter(adjacency[child]))
                break
        else:
            on_path[path.pop()] = False
            pending.pop()
    return set(on_path)


def build_lineage(
    records: Iterable[ProvenanceRecord],
    edges: Iterable[tuple[str, str] | Sequence[str]],
    root: str,
    *,
    records_path: DocPath = "records",
) -> LineageGraph:
    """Assemble and validate a lineage graph.

    Nodes and edges are stored sorted lexicographically by id, so permuting
    the inputs yields an identical graph.

    One depth-first walk from the root decides both cycles and reachability:
    a cycle the root reaches is named where the walk first meets it, and a
    node the root cannot reach is unreachable, even one on a cycle.

    Raises:
        DanglingReference: an edge endpoint names no record.
        UnknownRoot: the root names no record (a DanglingReference).
        CycleDetected: the root reaches a directed cycle (it is named).
        UnreachableNode: a non-root node cannot be reached from the root;
            the first in id order is named.
        ParseError: a subject id repeated in ``records``, named at the later
            record as ``records_path[i]``; an edge that is not a pair, or an
            edge endpoint that is not a string.
    """
    nodes: dict[str, ProvenanceRecord] = {}
    for i, record in enumerate(records):
        if record.subject_id in nodes:
            parse_error((records_path, i), f"duplicate subject_id {record.subject_id!r}")
        nodes[record.subject_id] = record

    if edges.__class__ is not _CheckedEdges:  # from_dict passes the edges its document checked
        edges = _decode_edges(tuple(edges), "edges")
    edge_list = sorted(edges)
    for parent, child in edge_list:
        if parent not in nodes:
            raise DanglingReference(parent)
        if child not in nodes:
            raise DanglingReference(child)
    if root not in nodes:
        raise UnknownRoot(root)

    graph = LineageGraph(
        nodes={node_id: nodes[node_id] for node_id in sorted(nodes)},
        edges=tuple(edge_list),
        root_id=root,
    )
    reachable = _reach(graph._child_map, root)
    for node_id in graph.nodes:
        if node_id not in reachable:
            raise UnreachableNode(node_id)
    return graph


def compute_license_range(node_id: str, graph: LineageGraph) -> LicenseRange:
    """License range for one node.

    Datasets use their own origin year: the range runs from the year before
    the origin to the origin. Websites and search engines inherit the range
    of their nearest dataset ancestors (the datasets they fed content into):
    the datasets with the fewest edges down to the node, on paths that pass
    through no other dataset. All of them must agree.

    Raises:
        KeyError: unknown node id.
        MissingOriginYear: a dataset node without an origin year; for a
            website or search engine, the first nearest dataset ancestor in
            id order that lacks one.
        NoDatasetAncestor: a non-dataset node with no dataset upstream.
        AmbiguousRange: two equally near dataset ancestors disagree.
    """
    record = graph.nodes[node_id]
    if record.subject_kind is SubjectKind.DATASET:
        if record.origin_year is None:
            raise MissingOriginYear(node_id)
        return LicenseRange.ending_at(record.origin_year)
    datasets = sorted(graph._nearest_datasets.get(node_id, ()))
    if not datasets:
        raise NoDatasetAncestor(node_id)
    years = set()
    for dataset_id in datasets:
        year = graph.nodes[dataset_id].origin_year
        if year is None:
            raise MissingOriginYear(dataset_id)
        years.add(year)
    if len(years) > 1:
        raise AmbiguousRange(node_id, tuple(datasets))
    return LicenseRange.ending_at(years.pop())


class CaptureInput(Document, path="capture"):
    """One dated license snapshot offered for selection."""

    year: int
    url: str
    content: str


def parse_capture_list(data: Any, path: str = "captures", strict: bool = True) -> list[CaptureInput]:
    if not isinstance(data, list):
        raise ParseError(path, f"expected array of captures, got {type(data).__name__}")
    return [CaptureInput.from_dict(item, f"{path}[{i}]", strict) for i, item in enumerate(data)]


def select_capture(
    captures: Sequence[CaptureInput], license_range: LicenseRange
) -> tuple[CaptureInput | None, CaptureStatus]:
    """The capture whose license applies to a source, and how it was chosen.

    Preference order: the earliest capture dated inside the license range;
    failing that, the earliest capture at all (a fallback); failing that,
    None, as unavailable. Same-year ties go to the smallest URL.
    """
    in_range = [c for c in captures if c.year in license_range]
    pool = in_range or captures
    if not pool:
        return None, CaptureStatus.UNAVAILABLE
    chosen = min(pool, key=lambda c: (c.year, c.url))
    return chosen, CaptureStatus.IN_RANGE if in_range else CaptureStatus.OUT_OF_RANGE_FALLBACK
