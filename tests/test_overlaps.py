"""Unit tests for :mod:`repro.coordinator.overlaps`."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import InvalidGeometryError
from repro.core.geometry import Point, Rectangle
from repro.coordinator.columnar import RegionTable
from repro.coordinator.overlaps import FsaOverlapStructure, OverlapRegion

from overlap_oracle import ReferenceFsaOverlapStructure


def rect(x0, y0, x1, y1) -> Rectangle:
    return Rectangle(Point(x0, y0), Point(x1, y1))


class TestOverlapRegion:
    def test_count(self):
        region = OverlapRegion(rect(0, 0, 1, 1), frozenset({1, 2, 3}))
        assert region.count == 3


class TestBuild:
    def test_single_fsa(self):
        structure = FsaOverlapStructure.build({1: rect(0, 0, 10, 10)})
        regions = list(structure.regions())
        assert len(regions) == 1
        assert regions[0].members == frozenset({1})

    def test_disjoint_fsas_produce_no_overlaps(self):
        structure = FsaOverlapStructure.build(
            {1: rect(0, 0, 10, 10), 2: rect(20, 20, 30, 30)}
        )
        assert len(structure) == 2

    def test_two_overlapping_fsas(self):
        structure = FsaOverlapStructure.build(
            {1: rect(0, 0, 10, 10), 2: rect(5, 5, 15, 15)}
        )
        members = {region.members for region in structure.regions()}
        assert frozenset({1}) in members
        assert frozenset({2}) in members
        assert frozenset({1, 2}) in members

    def test_three_way_overlap_from_example_2(self):
        """The R1/R2/R3 configuration of the paper's Example 2."""
        structure = FsaOverlapStructure.build(
            {
                1: rect(0, 0, 10, 10),
                2: rect(6, 0, 16, 10),
                3: rect(3, 5, 13, 15),
            }
        )
        counts = {region.members: region.count for region in structure.regions()}
        assert counts[frozenset({1, 2, 3})] == 3
        assert counts[frozenset({1, 2})] == 2
        assert counts[frozenset({2, 3})] == 2
        assert counts[frozenset({1, 3})] == 2


class TestQueries:
    def _three_way(self) -> FsaOverlapStructure:
        return FsaOverlapStructure.build(
            {
                1: rect(0, 0, 10, 10),
                2: rect(6, 0, 16, 10),
                3: rect(3, 5, 13, 15),
            }
        )

    def test_smallest_region_containing_prefers_deepest_overlap(self):
        structure = self._three_way()
        # A point in the triple intersection.
        region = structure.smallest_region_containing(Point(7.0, 7.0))
        assert region is not None
        assert region.members == frozenset({1, 2, 3})

    def test_smallest_region_containing_single_member(self):
        structure = self._three_way()
        region = structure.smallest_region_containing(Point(1.0, 1.0))
        assert region is not None
        assert region.members == frozenset({1})

    def test_smallest_region_containing_outside_everything(self):
        structure = self._three_way()
        assert structure.smallest_region_containing(Point(100.0, 100.0)) is None

    def test_hottest_region_intersecting(self):
        structure = self._three_way()
        region = structure.hottest_region_intersecting(rect(0, 0, 10, 10))
        assert region is not None
        assert region.count == 3

    def test_hottest_region_intersecting_disjoint(self):
        structure = self._three_way()
        assert structure.hottest_region_intersecting(rect(100, 100, 110, 110)) is None

    def test_candidate_vertex_is_shared_between_objects(self):
        """Two objects touching the same overlap fabricate the exact same vertex."""
        structure = self._three_way()
        vertex_1 = structure.candidate_vertex_for(rect(0, 0, 10, 10))
        vertex_2 = structure.candidate_vertex_for(rect(6, 0, 16, 10))
        assert vertex_1 is not None and vertex_2 is not None
        assert vertex_1[0] == vertex_2[0]
        assert vertex_1[1] == vertex_2[1] == 3

    def test_candidate_vertex_for_disjoint_region(self):
        structure = self._three_way()
        assert structure.candidate_vertex_for(rect(200, 200, 210, 210)) is None

    def test_region_cap_is_a_hard_bound(self):
        """Regression: the cap used to be soft — ``add`` only stopped *deriving*
        after the table overshot, and the final merge inserted every derived
        region regardless, so overlapping-FSA floods grew past ``max_regions``."""
        structure = FsaOverlapStructure(max_regions=5)
        for i in range(20):
            structure.add(i, rect(i * 0.1, 0, i * 0.1 + 10, 10))
            assert len(structure) <= 5
        assert len(structure) == 5

    def test_region_cap_keeps_earlier_insertions(self):
        """Insertion-order priority: early FSAs and their overlaps keep their
        slots; late arrivals into a full table are dropped deterministically."""
        structure = FsaOverlapStructure(max_regions=3)
        structure.add(1, rect(0, 0, 10, 10))
        structure.add(2, rect(5, 5, 15, 15))  # fills the table: {1}, {2}, {1,2}
        before = {region.members: region.rectangle for region in structure.regions()}
        structure.add(3, rect(0, 0, 20, 20))  # overlaps everything, but no room
        assert {region.members: region.rectangle for region in structure.regions()} == before

    def test_region_cap_flood_stays_deterministic(self):
        """A pairwise-overlapping flood never exceeds the cap and two identical
        builds keep the exact same regions in the exact same order."""
        fsas = {i: rect(i * 0.5, 0.0, i * 0.5 + 50.0, 50.0) for i in range(40)}
        first = FsaOverlapStructure.build(fsas, max_regions=25)
        second = FsaOverlapStructure.build(fsas, max_regions=25)
        assert len(first) <= 25
        assert [(r.members, r.rectangle) for r in first.regions()] == [
            (r.members, r.rectangle) for r in second.regions()
        ]


class TestZeroAreaIntersections:
    """Edge-adjacent FSAs must not create degenerate derived regions."""

    def test_edge_touching_fsas_store_no_derived_region(self):
        structure = FsaOverlapStructure.build(
            {1: rect(0, 0, 10, 10), 2: rect(10, 0, 20, 10)}  # share the x=10 edge
        )
        assert {region.members for region in structure.regions()} == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_zero_area_region_cannot_win_smallest_containing(self):
        """Regression: the degenerate {1,2} seam (area 0) used to beat the real
        singletons in the ``area <`` tie-break of smallest_region_containing."""
        structure = FsaOverlapStructure.build(
            {1: rect(0, 0, 10, 10), 2: rect(10, 0, 20, 10)}
        )
        region = structure.smallest_region_containing(Point(10.0, 5.0))
        assert region is not None
        assert region.count == 1
        assert not region.rectangle.is_degenerate()

    def test_zero_area_region_not_returned_for_fabrication(self):
        """Regression: hottest_region_intersecting could hand out the seam,
        fabricating a vertex in a region no object can be strictly inside."""
        structure = FsaOverlapStructure.build(
            {1: rect(0, 0, 10, 10), 2: rect(10, 0, 20, 10)}
        )
        region = structure.hottest_region_intersecting(rect(8, 0, 12, 10))
        assert region is not None
        assert region.count == 1

    def test_corner_touching_fsas_store_no_derived_region(self):
        structure = FsaOverlapStructure.build(
            {1: rect(0, 0, 10, 10), 2: rect(10, 10, 20, 20)}  # share one corner
        )
        assert len(structure) == 2

    def test_degenerate_singleton_is_kept(self):
        """The singleton region *is* the FSA; a degenerate FSA still counts."""
        structure = FsaOverlapStructure.build({1: rect(5, 5, 5, 5)})
        assert len(structure) == 1


class TestDuplicateReports:
    """One object reporting twice in an epoch: the later FSA wins in R_all.

    This pins the intended semantics of ``fsas[state.object_id] = state.fsa``
    in the epoch pipelines (see the stage-1 comment in
    :mod:`repro.coordinator.sharding`): the structure holds one FSA per
    *object*, not per state message, and a re-report replaces the earlier FSA
    while both state messages are still decided against the structure.
    """

    def test_build_keeps_later_fsa_per_object(self):
        earlier, later = rect(0, 0, 10, 10), rect(100, 100, 110, 110)
        fsas = {}
        for object_id, fsa in ((7, earlier), (8, rect(3, 3, 12, 12)), (7, later)):
            fsas[object_id] = fsa
        structure = FsaOverlapStructure.build(fsas)
        regions = {region.members: region.rectangle for region in structure.regions()}
        assert regions[frozenset({7})] == later
        # The earlier FSA contributes nothing: no overlap with object 8 remains.
        assert frozenset({7, 8}) not in regions

    def test_serialized_round_trip_preserves_region_order(self):
        structure = FsaOverlapStructure.build(
            {1: rect(0, 0, 10, 10), 2: rect(6, 0, 16, 10), 3: rect(3, 5, 13, 15)}
        )
        rebuilt = FsaOverlapStructure.from_serialized(structure.serialized())
        assert [(r.members, r.rectangle) for r in rebuilt.regions()] == [
            (r.members, r.rectangle) for r in structure.regions()
        ]


class TestWorkerRepliesStayValidated:
    """``from_serialized`` reads regions another process sent: a box no
    ``Rectangle`` could hold is refused, not stored."""

    @pytest.mark.parametrize(
        "box",
        [
            (10.0, 0.0, 5.0, 10.0),  # inverted in x
            (0.0, 10.0, 10.0, 5.0),  # inverted in y
            (0.0, float("nan"), 10.0, 10.0),
            (0.0, 0.0, float("inf"), 10.0),
            (float("-inf"), 0.0, 10.0, 10.0),
        ],
    )
    def test_invalid_box_is_rejected(self, box):
        good = ((1,), 0.0, 0.0, 10.0, 10.0)
        with pytest.raises(InvalidGeometryError):
            FsaOverlapStructure.from_serialized([good, ((2,), *box)])

    def test_degenerate_box_is_accepted(self):
        """A zero-area singleton is a legal region (a collapsed FSA)."""
        structure = FsaOverlapStructure.from_serialized([((1,), 5.0, 5.0, 5.0, 5.0)])
        assert len(structure) == 1


def dense_pool(seed: int = 0, size: int = 28) -> dict:
    """A ``fleet_dense``-like epoch: 28 FSAs deriving 124 regions."""
    rng = random.Random(seed)
    return {
        object_id: Rectangle.from_center(
            Point(rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)), rng.uniform(20.0, 60.0)
        )
        for object_id in range(size)
    }


class TestObjectsOnlyAtTheBoundary:
    """Exact construction counts (no wall clock): the build and the ranking are scalar.

    ``Point`` / ``Rectangle`` constructions are counted by wrapping their
    validating ``__post_init__``.  Building the structure and its query table
    constructs nothing; a query builds what it returns and nothing else.  (The
    ``Rectangle`` formulation, kept as ``tests/overlap_oracle.py``, builds a
    ``Rectangle`` and two ``Point`` objects for every stored region a new FSA
    touches: 96 and 192 for the dense pool below.)
    """

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"points": 0, "rectangles": 0}
        point_check, rectangle_check = Point.__post_init__, Rectangle.__post_init__

        def counted_point(self):
            counts["points"] += 1
            point_check(self)

        def counted_rectangle(self):
            counts["rectangles"] += 1
            rectangle_check(self)

        monkeypatch.setattr(Point, "__post_init__", counted_point)
        monkeypatch.setattr(Rectangle, "__post_init__", counted_rectangle)

        def measure(call, *args, **kwargs):
            counts["points"] = counts["rectangles"] = 0
            result = call(*args, **kwargs)
            return result, (counts["points"], counts["rectangles"])

        return measure

    @pytest.mark.parametrize("route", ("build", "from_serialized"))
    def test_build_constructs_nothing(self, built, route):
        """Nor does rebuilding a worker's reply from its serialized regions."""
        pool = dense_pool()
        structure, work = built(FsaOverlapStructure.build, pool)
        if route == "from_serialized":
            structure, work = built(FsaOverlapStructure.from_serialized, structure.serialized())
        assert len(structure) == 124
        assert work == (0, 0)
        reference, reference_work = built(ReferenceFsaOverlapStructure.build, pool)
        assert repr(reference.serialized()) == repr(structure.serialized())
        assert reference_work == (2 * 96, 96)

    def test_region_table_constructs_nothing(self, built):
        structure = FsaOverlapStructure.build(dense_pool())
        table, work = built(RegionTable, structure._regions)
        assert len(table.boxes) == 124
        assert work == (0, 0)

    def test_batched_queries_construct_one_point_per_answer(self, built):
        structure = FsaOverlapStructure.build(dense_pool())
        queries = list(dense_pool(seed=1, size=40).values())
        queries.append(rect(900, 900, 910, 910))  # meets nothing
        answers, work = built(structure.candidate_vertices_for, queries)
        hits = sum(answer is not None for answer in answers)
        assert 0 < hits < len(queries)
        assert work == (hits, 0)
        probes = [answer[0] for answer in answers if answer is not None]
        counts, work = built(structure.containing_counts, probes + [Point(-5.0, -5.0)])
        assert counts[-1] == 0 and all(counts[:-1])
        assert work == (0, 0)

    @pytest.mark.parametrize("table", ("unbuilt", "built"))
    def test_single_queries_construct_only_the_winner(self, built, table):
        """Exactly the winner's ``Rectangle`` (and its two corners): a loop
        that built one per region walked would show here, not only in time.
        The same whether or not the batched queries' table exists: a single
        query is the scalar loop either way."""
        structure = FsaOverlapStructure.build(dense_pool())
        if table == "built":
            structure.containing_counts([Point(0.0, 0.0)])
        fsa = rect(150, 150, 250, 250)
        region, work = built(structure.hottest_region_intersecting, fsa)
        assert region is not None and work == (2, 1)
        region, work = built(structure.smallest_region_containing, region.rectangle.center)
        assert region is not None and work == (2, 1)
        vertex, work = built(structure.candidate_vertex_for, fsa)
        assert vertex is not None and work == (1, 0)
        far, outside = rect(900, 900, 910, 910), Point(-5.0, -5.0)
        assert built(structure.hottest_region_intersecting, far) == (None, (0, 0))
        assert built(structure.smallest_region_containing, outside) == (None, (0, 0))
        assert built(structure.candidate_vertex_for, far) == (None, (0, 0))
