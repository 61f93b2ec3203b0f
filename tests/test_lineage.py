"""Lineage graph construction, license ranges, and capture selection."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dla import build_lineage, compute_license_range, select_capture
from dla.errors import (
    AmbiguousRange,
    CycleDetected,
    DanglingReference,
    LineageError,
    MissingOriginYear,
    NoDatasetAncestor,
    ParseError,
    UnknownRoot,
    UnreachableNode,
)
from dla.lineage import CaptureInput, LineageGraph
from dla.model import CaptureStatus, LicenseRange, SubjectKind, canonical_json

from helpers import load_bundle, oracle_range, random_case, record_for, website_chain


class TestBuildLineage:
    def test_cifar_fixture_has_nine_nodes_and_eight_edges(self):
        graph, _ = load_bundle("cifar-10")
        assert len(graph.nodes) == 9
        assert len(graph.edges) == 8
        assert graph.root_id == "cifar-10"
        assert set(graph._child_map["80-million-tiny-images"]) == {
            "google", "flickr", "ask", "altavista", "picsearch", "webshots", "cydral",
        }

    def test_single_node_graph_is_valid(self):
        graph = build_lineage([record_for("solo")], [], "solo")
        assert graph.edges == ()
        assert graph.root_id == "solo"

    def test_two_cycle_detected(self):
        records = [record_for("a"), record_for("b")]
        with pytest.raises(CycleDetected) as exc:
            build_lineage(records, [("a", "b"), ("b", "a")], "a")
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b"}

    def test_deep_chain_builds(self):
        ids = [f"n{i:05d}" for i in range(5000)]
        graph = build_lineage([record_for(i) for i in ids], list(zip(ids, ids[1:])), ids[0])
        assert len(graph.edges) == 4999
        assert graph._child_map[ids[-2]] == [ids[-1]]

    def test_deep_cycle_named_in_full(self):
        ids = [f"n{i:05d}" for i in range(3000)]
        edges = list(zip(ids, ids[1:])) + [(ids[-1], ids[1])]
        with pytest.raises(CycleDetected) as exc:
            build_lineage([record_for(i) for i in ids], edges, ids[0])
        assert exc.value.cycle == tuple(ids[1:]) + (ids[1],)
        assert str(exc.value) == "cycle detected: " + " -> ".join(ids[1:] + [ids[1]])

    def test_dangling_reference_names_missing_id(self):
        with pytest.raises(DanglingReference) as exc:
            build_lineage([record_for("a")], [("a", "ghost")], "a")
        assert exc.value.missing_id == "ghost"

    def test_root_naming_no_record_is_a_dangling_reference(self):
        with pytest.raises(DanglingReference) as exc:
            build_lineage([record_for("a"), record_for("b")], [("a", "b")], "ghost")
        assert exc.value.missing_id == "ghost"

    def test_a_root_naming_no_record_is_reported_as_the_root(self):
        with pytest.raises(UnknownRoot) as exc:
            build_lineage([record_for("a")], [], "ghost")
        assert exc.value.missing_id == "ghost"
        assert str(exc.value) == "root_id references unknown subject: 'ghost'"

    def test_unreachable_node_named(self):
        records = [record_for("a"), record_for("b"), record_for("c")]
        with pytest.raises(UnreachableNode) as exc:
            build_lineage(records, [("a", "b")], "a")
        assert exc.value.node_id == "c"

    def test_root_with_incoming_edge_is_rejected(self):
        records = [record_for("a"), record_for("b")]
        with pytest.raises((UnreachableNode, CycleDetected)):
            build_lineage(records, [("b", "a")], "a")

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([("a", "b"), (None, "b")], r"^edges\[1\]\[0\]: expected string, got NoneType$"),
            # Not coerced: "1" names a node, but the int 1 does not.
            ([("a", "b"), ("a", 1)], r"^edges\[1\]\[1\]: expected string, got int$"),
        ],
        ids=["null", "int"],
    )
    def test_non_string_edge_endpoint_rejected(self, edges, message):
        records = [record_for("a"), record_for("b"), record_for("1")]
        with pytest.raises(ParseError, match=message):
            build_lineage(records, edges, "a")

    @pytest.mark.parametrize("edge", ["ab", ("a", "b", "a")], ids=["string", "triple"])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        records = [record_for("a"), record_for("b")]
        message = r"^edges\[0\]: expected \[parent_id, child_id\] pair$"
        with pytest.raises(ParseError, match=message):
            build_lineage(records, [edge], "a")

    def test_cycle_the_root_cannot_reach_is_an_unreachable_node(self):
        records = [record_for(n) for n in ("r", "x", "y")]
        with pytest.raises(UnreachableNode) as exc:
            build_lineage(records, [("x", "y"), ("y", "x")], "r")
        assert exc.value.node_id == "x"

    def test_duplicate_subject_ids_rejected(self):
        from dla.errors import ParseError

        with pytest.raises(ParseError, match="duplicate subject_id"):
            build_lineage([record_for("a"), record_for("a")], [], "a")

    def test_order_insensitive(self):
        records = [record_for(n) for n in ("r", "s1", "s2", "s3")]
        edges = [("r", "s1"), ("r", "s2"), ("s1", "s3")]
        reference = build_lineage(records, edges, "r")
        rng = random.Random(7)
        for _ in range(10):
            shuffled_records = records[:]
            shuffled_edges = edges[:]
            rng.shuffle(shuffled_records)
            rng.shuffle(shuffled_edges)
            permuted = build_lineage(shuffled_records, shuffled_edges, "r")
            assert permuted == reference
            assert canonical_json(permuted.to_dict()) == canonical_json(reference.to_dict())


class TestLicenseRange:
    def test_cifar_running_example(self):
        graph, _ = load_bundle("cifar-10")
        assert compute_license_range("cifar-10", graph) == LicenseRange(2008, 2009)
        assert compute_license_range("80-million-tiny-images", graph) == LicenseRange(2005, 2006)
        for source in ("google", "flickr", "ask", "altavista", "picsearch", "webshots", "cydral"):
            assert compute_license_range(source, graph) == LicenseRange(2005, 2006)

    @given(st.integers(min_value=1900, max_value=2100))
    def test_dataset_range_is_year_pair(self, year):
        record = record_for("d")
        record = type(record)(**{**record.__dict__, "origin_year": year})
        graph = build_lineage([record], [], "d")
        result = compute_license_range("d", graph)
        assert (result.start_year, result.end_year) == (year - 1, year)
        assert result.end_year - result.start_year == 1

    def test_inheritance_invariant_across_fixture(self):
        graph, _ = load_bundle("cifar-10")
        for node_id, record in graph.nodes.items():
            if record.subject_kind is SubjectKind.DATASET:
                continue
            # Walk up the edges to the nearest dataset ancestor by hand.
            level = {p for p, c in graph.edges if c == node_id}
            while level:
                datasets = [n for n in level if graph.nodes[n].subject_kind is SubjectKind.DATASET]
                if datasets:
                    expected = compute_license_range(datasets[0], graph)
                    break
                level = {p for p, c in graph.edges if c in level}
            assert compute_license_range(node_id, graph) == expected

    def test_missing_origin_year(self):
        record = record_for("d")
        record = type(record)(**{**record.__dict__, "origin_year": None})
        graph = build_lineage([record], [], "d")
        with pytest.raises(MissingOriginYear):
            compute_license_range("d", graph)

    def test_no_dataset_ancestor(self):
        root = record_for("w", SubjectKind.WEBSITE)
        child = record_for("v", SubjectKind.WEBSITE)
        graph = build_lineage([root, child], [("w", "v")], "w")
        with pytest.raises(NoDatasetAncestor):
            compute_license_range("v", graph)

    def test_nearest_dataset_ancestor_wins_over_farther(self):
        # root(2010) -> mid dataset(2000) -> site: site inherits from mid, not root.
        root = record_for("root")
        mid = type(root)(**{**record_for("mid").__dict__, "origin_year": 2000})
        site = record_for("site", SubjectKind.WEBSITE)
        graph = build_lineage([root, mid, site], [("root", "mid"), ("mid", "site")], "root")
        assert compute_license_range("site", graph) == LicenseRange(1999, 2000)

    def test_intermediate_website_passes_through(self):
        root = record_for("root")
        hub = record_for("hub", SubjectKind.WEBSITE)
        leaf = record_for("leaf", SubjectKind.SEARCH_ENGINE)
        graph = build_lineage([root, hub, leaf], [("root", "hub"), ("hub", "leaf")], "root")
        assert compute_license_range("leaf", graph) == compute_license_range("root", graph)

    def test_equal_depth_conflicting_ancestors_are_ambiguous(self):
        d1 = record_for("d1")
        d2 = type(d1)(**{**record_for("d2").__dict__, "origin_year": 2015})
        top = record_for("top")
        site = record_for("site", SubjectKind.WEBSITE)
        graph = build_lineage(
            [top, d1, d2, site],
            [("top", "d1"), ("top", "d2"), ("d1", "site"), ("d2", "site")],
            "top",
        )
        with pytest.raises(AmbiguousRange):
            compute_license_range("site", graph)

    def test_equal_depth_agreeing_ancestors_are_fine(self):
        d1 = record_for("d1")
        d2 = record_for("d2")  # same origin year as d1
        top = record_for("top")
        site = record_for("site", SubjectKind.WEBSITE)
        graph = build_lineage(
            [top, d1, d2, site],
            [("top", "d1"), ("top", "d2"), ("d1", "site"), ("d2", "site")],
            "top",
        )
        assert compute_license_range("site", graph) == LicenseRange(2009, 2010)


def range_outcome(compute, node_id: str, graph: LineageGraph) -> tuple:
    """A range, or the type, arguments and attributes of the lineage error."""
    try:
        return LicenseRange, compute(node_id, graph)
    except LineageError as exc:
        return type(exc), exc.args, vars(exc)


def varied_case(rng: random.Random) -> LineageGraph:
    """A ``random_case`` graph whose root may be of any kind and whose datasets
    have origin years drawn from a small pool that includes none."""
    graph, _ = random_case(rng, max_nodes=12)
    records = []
    for node_id, record in graph.nodes.items():
        kind = rng.choice(list(SubjectKind)) if node_id == graph.root_id else record.subject_kind
        year = rng.choice([None, 2000, 2001, 2005]) if kind is SubjectKind.DATASET else None
        records.append(replace(record, subject_kind=kind, origin_year=year))
    return build_lineage(records, graph.edges, graph.root_id)


class TestRangeOracle:
    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(31)
        kinds: Counter = Counter()
        for _ in range(2000):
            graph = varied_case(rng)
            for node_id in graph.nodes:
                expected = range_outcome(oracle_range, node_id, graph)
                assert range_outcome(compute_license_range, node_id, graph) == expected
                kinds[expected[0]] += 1
        assert set(kinds) == {LicenseRange, MissingOriginYear, AmbiguousRange, NoDatasetAncestor}

    def test_child_map_equals_an_edge_scan(self):
        rng = random.Random(32)
        for _ in range(300):
            graph, _ = random_case(rng, max_nodes=12)
            assert list(graph._child_map) == list(graph.nodes)
            for node_id in graph.nodes:
                edges = graph.edges
                assert graph._child_map[node_id] == sorted(c for p, c in edges if p == node_id)

    def test_deep_website_chain_inherits_the_root_range(self):
        records, edges = website_chain("root", 5000)
        graph = build_lineage(records, edges, "root")
        ranges = {compute_license_range(node_id, graph) for node_id in graph.nodes}
        assert ranges == {LicenseRange(2009, 2010)}
        assert graph._child_map["w04998"] == ["w04999"]
        # The maps and ranges derived above are not part of the document.
        again = LineageGraph.from_dict(graph.to_dict())
        assert again == graph
        assert canonical_json(again.to_dict()) == canonical_json(graph.to_dict())


# ---------------------------------------------------------------------------
# Capture selection, checked against an independent brute-force picker
# ---------------------------------------------------------------------------


def brute_force_pick(captures: list[CaptureInput], lo: int, hi: int):
    """Reference picker: filter, then fully sort; independent of the
    single-pass implementation under test."""
    in_range = sorted((c for c in captures if lo <= c.year <= hi), key=lambda c: (c.year, c.url))
    if in_range:
        return in_range[0], CaptureStatus.IN_RANGE
    fallback = sorted(captures, key=lambda c: (c.year, c.url))
    if fallback:
        return fallback[0], CaptureStatus.OUT_OF_RANGE_FALLBACK
    return None, CaptureStatus.UNAVAILABLE


def make_capture(year: int, url: str | None = None) -> CaptureInput:
    return CaptureInput(
        year=year, url=url or f"https://archive.example/{year}", content=f"terms {year}"
    )


class TestSelectCapture:
    def test_exhaustive_subsets_match_brute_force(self):
        years = range(2003, 2010)
        window = LicenseRange(2005, 2006)
        for size in range(len(list(years)) + 1):
            for subset in itertools.combinations(years, size):
                captures = [make_capture(y) for y in subset]
                chosen = select_capture("s", captures, window)
                expected, status = brute_force_pick(captures, 2005, 2006)
                assert chosen.status == status
                if expected is None:
                    assert chosen.content is None
                    assert chosen.capture_year is None
                else:
                    assert chosen.capture_year == expected.year
                    assert chosen.capture_url == expected.url
                    assert chosen.content == expected.content

    def test_specific_example_2004_2005_2008(self):
        captures = [make_capture(y) for y in (2004, 2005, 2008)]
        chosen = select_capture("s", captures, LicenseRange(2005, 2006))
        assert chosen.capture_year == 2005
        assert chosen.status is CaptureStatus.IN_RANGE

    def test_fallback_outside_range(self):
        # Nothing inside the window: earliest available capture is stored.
        captures = [make_capture(2008), make_capture(2007)]
        chosen = select_capture("ask", captures, LicenseRange(2005, 2006))
        assert chosen.status is CaptureStatus.OUT_OF_RANGE_FALLBACK
        assert chosen.capture_year == 2007

    def test_empty_capture_list_is_unavailable(self):
        chosen = select_capture("cydral", [], LicenseRange(2005, 2006))
        assert chosen.status is CaptureStatus.UNAVAILABLE
        assert chosen.content is None

    def test_same_year_tie_breaks_on_url(self):
        captures = [make_capture(2005, "https://b.example"), make_capture(2005, "https://a.example")]
        chosen = select_capture("s", captures, LicenseRange(2005, 2006))
        assert chosen.capture_url == "https://a.example"

    @given(
        st.lists(
            st.builds(
                make_capture,
                year=st.integers(min_value=2000, max_value=2012),
                url=st.text(alphabet="ab/", min_size=1, max_size=6),
            ),
            max_size=8,
        ),
        st.integers(min_value=2001, max_value=2011),
    )
    def test_never_later_than_another_in_range_capture(self, captures, end_year):
        window = LicenseRange.ending_at(end_year)
        chosen = select_capture("s", captures, window)
        in_range_years = [c.year for c in captures if c.year in window]
        if in_range_years and chosen.capture_year is not None:
            assert chosen.capture_year <= min(in_range_years)


def test_graph_document_round_trip():
    graph, _ = load_bundle("cifar-10")
    doc = graph.to_dict()
    again = LineageGraph.from_dict(doc)
    assert again == graph
    assert canonical_json(again.to_dict()) == canonical_json(doc)
