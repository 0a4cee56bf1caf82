"""Tests for :mod:`repro.coordinator.columnar`, the columnar kernels.

Whole coordinators under ``--kernel columnar`` are held to the scalar
``object`` reference by the exactness harness (``tests/test_differential.py``).
This module holds the kernel-level suites:

* kernel resolution, and the degrade to ``object`` without numpy;
* hypothesis suites — :class:`EndpointTable` queries against a brute-force
  scalar scan and its x-sorted order under inserts and removals, and the
  pre-ranked, batched :class:`RegionTable` queries against the scalar
  tie-break loops, including the insertion-order tie-break cases (equal
  areas, equal counts) the ranking's last sort key exists for.
"""

from __future__ import annotations

import gc
import logging
from typing import Dict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.coordinator.columnar import (
    HAVE_NUMPY,
    EndpointTable,
    RegionTable,
    resolve_kernel,
    touching_pairs,
)
from repro.core.errors import ConfigurationError
from repro.coordinator.overlaps import FsaOverlapStructure
from overlap_oracle import ReferenceFsaOverlapStructure
from differential import make_coordinator

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="columnar kernels require numpy"
)


class TestKernelResolution:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_kernel("simd")

    def test_known_kernels_resolve(self):
        assert resolve_kernel("object") == "object"
        assert resolve_kernel("columnar") == "columnar"

    def test_columnar_degrades_without_numpy(self, monkeypatch, caplog):
        """The degrade keeps every configuration working — and says so once."""
        import repro.coordinator.columnar as columnar

        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
        monkeypatch.setattr(columnar, "_degrade_logged", False)
        with caplog.at_level(logging.WARNING, logger=columnar.__name__):
            assert columnar.resolve_kernel("columnar") == "object"
            assert columnar.resolve_kernel("columnar") == "object"
            assert columnar.resolve_kernel("object") == "object"
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1  # once per process, not once per index
        assert "degrades" in warnings[0].getMessage()

    def test_resolving_with_numpy_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING):
            assert resolve_kernel("columnar") == "columnar"
        assert not caplog.records

    def test_coordinator_default_is_columnar(self):
        coordinator = make_coordinator()
        try:
            assert coordinator.config.kernel == "columnar"
        finally:
            coordinator.close()


# ---------------------------------------------------------------------------
# Kernel-level hypothesis suites
# ---------------------------------------------------------------------------

# Coarse pools force duplicate endpoints, shared borders and exact ties.
coordinate_pool = st.sampled_from([0.0, 1.0, 12.5, 25.0, 49.9, 50.0, 99.0, 100.0])
points = st.builds(Point, coordinate_pool, coordinate_pool)


path_ids = st.integers(min_value=0, max_value=9)
#: End coordinates with equal values that are different objects (``-0.0`` /
#: ``0.0`` / ``0``), so equal-x runs hold several paths.
end_points = st.builds(
    Point,
    st.sampled_from([-0.0, 0.0, 0, 1.0, 12.5, 50.0, 99.0]),
    st.sampled_from([-0.0, 0.0, 1.0, 50.0]),
)


@st.composite
def table_scripts(draw):
    """Interleaved ``("add", path_id, start, end)`` / ``("remove", path_id)``
    ops over a small id space, so ids are removed and added again (an id is
    only added while it is not live, as ``GridIndex`` guarantees; a removal
    of an id that is not live is skipped by :func:`replay`)."""
    ops, live = [], set()
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        path_id = draw(path_ids)
        if path_id not in live and draw(st.integers(min_value=0, max_value=3)):
            ops.append(("add", path_id, draw(points), draw(st.one_of(points, end_points))))
            live.add(path_id)
        else:
            ops.append(("remove", path_id))
            live.discard(path_id)
    return ops


def replay(ops):
    """The table and the scalar ``{path_id: (start, end)}`` dict it mirrors."""
    table = EndpointTable()
    scalar: Dict = {}
    for op in ops:
        if op[0] == "add":
            _tag, path_id, start, end = op
            table.add_path(path_id, start, end)
            scalar[path_id] = (start, end)
        elif op[1] in scalar:
            table.remove_path(op[1], *scalar.pop(op[1]))
    return table, scalar


def chains(table: EndpointTable) -> Dict:
    """Each start key's chain of path ids, walked from its first id."""
    walked = {}
    for key, path_id in table._by_start.items():
        ids = [path_id]
        while ids[-1] in table._after:
            ids.append(table._after[ids[-1]])
        walked[key] = tuple(ids)
    return walked


def assert_table_consistent(table: EndpointTable, scalar: Dict) -> None:
    """One row per path: ends sorted by x, equal x in insertion order,
    parallel lists in step, a start hash, keyed by the start's
    coordinates, of id chains in insertion order with no dead key or link,
    and one ``id -> end`` map holding each live path's own end object."""
    assert len(table._pids) == len(scalar)
    # ``sorted`` is stable, so equal x values keep the scalar dict's
    # insertion order — the order the table must keep them in.
    expected = sorted(((pid, end) for pid, (_start, end) in scalar.items()), key=lambda row: row[1].x)
    assert table._pids == [pid for pid, _end in expected]
    assert [repr(end) for end in table._ends] == [repr(end) for _pid, end in expected]
    assert table._xs == [end.x for end in table._ends]
    assert table._ys == [end.y for end in table._ends]
    expected_hash: Dict = {}
    for pid, (start, _end) in scalar.items():
        key = (start.x, start.y)
        expected_hash[key] = expected_hash.get(key, ()) + (pid,)
    assert chains(table) == expected_hash
    # Every link is a chain's: one per path that is not its vertex's first.
    assert len(table._after) == len(scalar) - len(table._by_start)
    assert list(table._end_of) == list(scalar)
    assert all(table._end_of[pid] is end for pid, (_start, end) in scalar.items())


@st.composite
def regions_strategy(draw):
    a, b = draw(points), draw(points)
    return Rectangle.bounding(a, b)


class TestEndpointTableKernels:
    @settings(max_examples=150, deadline=None)
    @given(table_scripts(), points, regions_strategy())
    def test_queries_match_scalar_scan(self, ops, start, region):
        table, scalar = replay(ops)

        assert table.starting_at(start, region) == [
            pid
            for pid, (path_start, end) in scalar.items()
            if path_start == start and region.contains_point(end)
        ]

        expected_ends = sorted(
            (pid, end.x, end.y) for pid, (_start, end) in scalar.items() if region.contains_point(end)
        )
        vertices = table.end_vertices_in(region)
        assert all(key == (v.x, v.y) for key, (v, _ids) in vertices.items())
        xs_met = [v.x for v, _ids in vertices.values()]
        assert xs_met == sorted(xs_met)  # by end x
        assert sorted((pid, v.x, v.y) for v, ids in vertices.values() for pid in ids) == expected_ends
        expected_vertices: Dict = {}
        for pid, (_start, end) in scalar.items():
            if region.contains_point(end):
                expected_vertices.setdefault(end, []).append(pid)
        assert {repr(v): sorted(ids) for v, ids in vertices.values()} == {
            repr(v): sorted(ids) for v, ids in expected_vertices.items()
        }

        # The first path, in insertion order, from ``start`` to exactly the
        # probe — over every stored end, so each path starting at ``start``
        # is met.
        probes = {end for _start, end in scalar.values()}
        for probe in probes | {start}:
            expected_between = next(
                (
                    pid
                    for pid, (path_start, end) in scalar.items()
                    if path_start == start and end == probe
                ),
                None,
            )
            assert table.path_between(start, probe) == expected_between

    @settings(max_examples=80, deadline=None)
    @given(table_scripts())
    def test_removal_keeps_the_table_sorted(self, ops):
        """After every removal the ends are still sorted by x, equal x
        values still in insertion order."""
        table, scalar = replay(ops)
        assert_table_consistent(table, scalar)
        for pid in list(scalar):
            table.remove_path(pid, *scalar.pop(pid))
            assert_table_consistent(table, scalar)

    def test_start_hash_emptied_with_its_last_path(self):
        """A vertex's bucket, keyed by its coordinates, is the chain of its
        path ids in insertion order (first id, then ``id -> next id``
        links); it lives exactly as long as a path starts there, and each
        id's link and end live exactly as long as its path."""
        table = EndpointTable()
        start, end, far = Point(1.0, 1.0), Point(50.0, 50.0), Point(99.0, 0.0)
        table.add_path(7, start, end)
        table.add_path(8, start, far)
        table.add_path(10, start, end)
        table.add_path(9, end, start)
        assert table._by_start == {(1.0, 1.0): 7, (50.0, 50.0): 9}
        assert table._after == {7: 8, 8: 10}
        assert table._end_of == {7: end, 8: far, 10: end, 9: start}
        table.remove_path(8, start, far)  # from the middle of its chain
        assert table._by_start == {(1.0, 1.0): 7, (50.0, 50.0): 9}
        assert table._after == {7: 10}
        assert table._end_of == {7: end, 10: end, 9: start}
        table.add_path(8, start, far)  # back, at the chain's tail
        assert chains(table) == {(1.0, 1.0): (7, 10, 8), (50.0, 50.0): (9,)}
        table.remove_path(7, start, end)  # the chain's first
        assert table._by_start == {(1.0, 1.0): 10, (50.0, 50.0): 9}
        assert table._after == {10: 8}
        table.remove_path(8, start, far)  # its last
        table.remove_path(10, start, end)
        assert table._by_start == {(50.0, 50.0): 9} and table._after == {}
        assert table._end_of == {9: start}
        table.remove_path(9, end, start)
        assert table._by_start == {} and table._end_of == {} and table._pids == []

    def test_paths_from_distinct_starts_allocate_no_dict(self):
        """N paths from N distinct start vertices leave no dict behind but
        the table's own maps: a bucket is a chain of ids."""
        table = EndpointTable()
        paths = [(Point(float(i), 1.0), Point(float(i), 2.0)) for i in range(64)]
        gc.collect()
        before = {id(obj) for obj in gc.get_objects() if type(obj) is dict}
        for path_id, (start, end) in enumerate(paths):
            table.add_path(path_id, start, end)
        own = {id(table._by_start), id(table._after), id(table._end_of)}
        new = [
            obj
            for obj in gc.get_objects()
            if type(obj) is dict and id(obj) not in before and id(obj) not in own
        ]
        assert new == []
        assert len(table._by_start) == len(table._end_of) == 64 and table._after == {}

    def test_removal_among_equal_x_takes_its_own_path(self):
        """Ends of equal x — ``0.0``, ``-0.0``, ``0`` and the same point twice —
        share one run; removing one from the middle leaves the others in
        insertion order, and the earliest equal end stays the vertex key."""
        table = EndpointTable()
        start = Point(5.0, 5.0)
        ends = [Point(0.0, 1.0), Point(-0.0, 2.0), Point(0, 1.0), Point(-1.0, 0.0), Point(0.0, 1.0)]
        for pid, end in enumerate(ends):
            table.add_path(pid, start, end)
        assert table._pids == [3, 0, 1, 2, 4]
        table.remove_path(2, start, ends[2])
        assert table._pids == [3, 0, 1, 4]
        assert [repr(end) for end in table._ends] == [
            repr(ends[3]), repr(ends[0]), repr(ends[1]), repr(ends[4])
        ]
        table.remove_path(0, start, ends[0])
        assert table._pids == [3, 1, 4]
        everywhere = Rectangle(Point(-1.0, 0.0), Point(0.0, 2.0))
        (vertex, ids), *rest = (
            group for group in table.end_vertices_in(everywhere).values() if group[0] == ends[4]
        )
        assert rest == [] and ids == [4] and repr(vertex) == "Point(x=0.0, y=1.0)"
        # Re-adding path 0 puts it behind the equal ends already stored.
        table.add_path(0, start, Point(-0.0, 1.0))
        assert table._pids == [3, 1, 4, 0]
        vertices = table.end_vertices_in(everywhere)
        assert vertices[(0.0, 1.0)][1] == [4, 0]
        assert [repr(vertex) for vertex, _ids in vertices.values()] == [
            "Point(x=-1.0, y=0.0)", "Point(x=-0.0, y=2.0)", "Point(x=0.0, y=1.0)"
        ]
        # ... and behind path 4 in the start bucket: 4 stays the first path
        # from ``start`` to that vertex.
        assert table.path_between(start, Point(0.0, 1.0)) == 4

    def test_many_entries_stay_sorted_by_x(self):
        """Paths inserted in descending end x come back in ascending x; a box
        query returns exactly its x run."""
        table = EndpointTable()
        count = 192
        for pid in range(count):
            table.add_path(pid, Point(0.0, 0.0), Point(float(count - pid), 0.0))
        assert table._xs == [float(x) for x in range(1, count + 1)]

        def pids_in(region):
            return [pid for _vertex, ids in table.end_vertices_in(region).values() for pid in ids]

        everywhere = Rectangle(Point(0.0, 0.0), Point(float(count), 0.0))
        assert pids_in(everywhere) == list(range(count - 1, -1, -1))
        middle = Rectangle(Point(10.0, 0.0), Point(12.0, 0.0))
        assert pids_in(middle) == [count - 10, count - 11, count - 12]


@st.composite
def overlap_pools_strategy(draw):
    """FSA pools of up to 14 members, dense enough to derive hundreds of regions."""
    n = draw(st.integers(min_value=1, max_value=14))
    pool = {}
    for object_id in range(n):
        center = draw(points)
        half = draw(st.sampled_from([10.0, 25.0, 25.0, 40.0]))
        pool[object_id] = Rectangle.from_center(center, half)
    return pool


def first_hit(winners):
    """A one-row batch's winner, as ``None`` for none."""
    (winner,) = winners
    return None if winner < 0 else winner


class TestRegionTableKernels:
    """The table answers batches only; a single query is the structure's
    scalar loop.  Both are held to the ``Rectangle`` oracle and to each
    other, on pools large enough to derive well over 96 regions (where a
    single query once switched to the table)."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(overlap_pools_strategy(), points, regions_strategy())
    def test_structure_queries_match_the_oracle(self, pool, probe, fsa):
        reference = ReferenceFsaOverlapStructure.build(pool)
        structure = FsaOverlapStructure.build(pool)
        assert repr(structure.serialized()) == repr(reference.serialized())

        ref_region = reference.smallest_region_containing(probe)
        region = structure.smallest_region_containing(probe)
        assert (ref_region is None) == (region is None)
        if ref_region is not None:
            assert ref_region.members == region.members
            assert ref_region.rectangle == region.rectangle

        ref_hot = reference.hottest_region_intersecting(fsa)
        hot = structure.hottest_region_intersecting(fsa)
        assert (ref_hot is None) == (hot is None)
        if ref_hot is not None:
            assert ref_hot.members == hot.members
            assert ref_hot.rectangle == hot.rectangle

        assert reference.candidate_vertex_for(fsa) == structure.candidate_vertex_for(fsa)

    @settings(max_examples=100, deadline=None)
    @given(overlap_pools_strategy(), points, regions_strategy())
    def test_one_row_batches_equal_the_single_queries(self, pool, probe, fsa):
        """A batch of one is the scalar single query's winner, whatever the
        region count — there is no threshold left to make the two meet."""
        structure = FsaOverlapStructure.build(pool)
        table = RegionTable(structure._regions)
        region = structure.smallest_region_containing(probe)
        winner = first_hit(table.smallest_containing_many([probe]))
        assert (region is None) == (winner is None)
        if region is not None:
            assert table.members[winner] == region.members
        hot = structure.hottest_region_intersecting(fsa)
        winner = first_hit(table.hottest_intersecting_many([fsa]))
        assert (hot is None) == (winner is None)
        if hot is not None:
            assert table.members[winner] == hot.members

    def test_insertion_order_breaks_exact_ties(self):
        """Two regions with identical area and count: the scalar loops keep
        the first-encountered one; the lexsort's last key must reproduce it."""
        # Two disjoint members produce two singleton regions of equal area
        # and equal count; an FSA over both forces the intersecting query to
        # tie on (-count, area) across them.
        pool = {
            1: Rectangle(Point(0.0, 0.0), Point(10.0, 10.0)),
            2: Rectangle(Point(20.0, 0.0), Point(30.0, 10.0)),
        }
        structure = FsaOverlapStructure.build(pool)
        table = RegionTable(structure._regions)
        fsa = Rectangle(Point(0.0, 0.0), Point(30.0, 10.0))  # hits both
        hot = structure.hottest_region_intersecting(fsa)
        assert hot.members == frozenset([1])
        assert table.members[first_hit(table.hottest_intersecting_many([fsa]))] == hot.members
        probe = Point(5.0, 5.0)
        region = structure.smallest_region_containing(probe)
        assert table.members[first_hit(table.smallest_containing_many([probe]))] == region.members

    @settings(max_examples=60, deadline=None)
    @given(overlap_pools_strategy(), points)
    def test_raw_table_matches_scalar_loops(self, pool, probe):
        """RegionTable directly vs a hand-rolled scalar argmin."""
        structure = FsaOverlapStructure.build(pool)
        regions = list(structure.regions())
        if not regions:
            return
        table = RegionTable(structure._regions)
        best = None
        for index, region in enumerate(regions):
            if not region.rectangle.contains_point(probe):
                continue
            key = (region.rectangle.area, -region.count, index)
            if best is None or key < best[0]:
                best = (key, index)
        got = first_hit(table.smallest_containing_many([probe]))
        if best is None:
            assert got is None
        else:
            assert got == best[1]

    @settings(max_examples=100, deadline=None)
    @given(
        overlap_pools_strategy(),
        st.lists(points, max_size=12),
        st.lists(regions_strategy(), max_size=12),
    )
    def test_batched_queries_match_the_scalar_loops(self, pool, probes, fsas):
        """Many points / many FSAs against one table: per row, the winner of
        the structure's scalar single query, and the oracle's answers."""
        reference = ReferenceFsaOverlapStructure.build(pool)
        structure = FsaOverlapStructure.build(pool)
        table = RegionTable(structure._regions)
        members = lambda region: None if region is None else region.members
        assert [
            None if winner < 0 else table.members[winner]
            for winner in table.smallest_containing_many(probes)
        ] == [members(structure.smallest_region_containing(probe)) for probe in probes]
        assert [
            None if winner < 0 else table.members[winner]
            for winner in table.hottest_intersecting_many(fsas)
        ] == [members(structure.hottest_region_intersecting(fsa)) for fsa in fsas]
        assert structure.containing_counts(probes) == reference.containing_counts(probes)
        assert structure.candidate_vertices_for(fsas) == reference.candidate_vertices_for(fsas)

    def test_preranked_ties_fall_to_insertion_order(self):
        """Equal area *and* equal count: both rankings must keep the region
        inserted first, whichever member set that is."""
        square = (0.0, 0.0, 10.0, 10.0)
        twin = (0.0, 0.0, 10.0, 10.0)
        probe, fsa = Point(5.0, 5.0), Rectangle(Point(2.0, 2.0), Point(3.0, 3.0))
        for first, second in ((1, 2), (2, 1)):
            table = RegionTable({frozenset([first]): square, frozenset([second]): twin})
            assert table.smallest_containing_many([probe, probe]) == [0, 0]
            assert table.hottest_intersecting_many([fsa]) == [0]
            assert table.members[0] == frozenset([first])

    def test_preranked_orders_differ_between_the_two_queries(self):
        """A big two-member region and a small singleton: the containing
        query prefers the small one, the intersecting query the hot one."""
        table = RegionTable(
            {
                frozenset([1, 2]): (0.0, 0.0, 100.0, 100.0),
                frozenset([3]): (40.0, 40.0, 60.0, 60.0),
            }
        )
        fsa = Rectangle(Point(45.0, 45.0), Point(55.0, 55.0))
        assert table.smallest_containing_many([Point(50.0, 50.0)]) == [1]
        assert table.hottest_intersecting_many([fsa]) == [0]
        # Equal count, different area: the smaller area wins the hot query.
        table = RegionTable(
            {
                frozenset([1]): (0.0, 0.0, 100.0, 100.0),
                frozenset([2]): (40.0, 40.0, 60.0, 60.0),
            }
        )
        assert table.hottest_intersecting_many([fsa]) == [1]

    def test_point_outside_every_region_and_single_region_table(self):
        only = Rectangle(Point(10.0, 10.0), Point(20.0, 20.0))
        table = RegionTable({frozenset([4]): only.as_bounds()})
        outside = Point(99.0, 99.0)
        far = Rectangle(Point(50.0, 50.0), Point(60.0, 60.0))
        touching = Rectangle(Point(20.0, 20.0), Point(30.0, 30.0))
        assert table.smallest_containing_many([outside, Point(15.0, 15.0)]) == [-1, 0]
        assert table.smallest_containing_many([Point(20.0, 10.0)]) == [0]  # closed edges
        assert table.hottest_intersecting_many([far, only, touching]) == [-1, 0, 0]
        assert table.smallest_containing_many([]) == []

    def test_empty_table_answers_nothing(self):
        table = RegionTable({})
        probe, fsa = Point(1.0, 1.0), Rectangle(Point(0.0, 0.0), Point(2.0, 2.0))
        assert table.smallest_containing_many([probe]) == [-1]
        assert table.hottest_intersecting_many([fsa, fsa]) == [-1, -1]


#: Bounds that collide on purpose: equal values of different types and signs,
#: so boxes nest, coincide, collapse to zero width and touch along an edge or
#: at a corner.
pair_coordinate = st.sampled_from([-0.0, 0.0, 0, 2, 2.0, 3.5, 5, 5.0, 8.0])


@st.composite
def pair_boxes(draw):
    x_low, x_high = sorted((draw(pair_coordinate), draw(pair_coordinate)))
    y_low, y_high = sorted((draw(pair_coordinate), draw(pair_coordinate)))
    return (x_low, y_low, x_high, y_high)


def reference_pairs(boxes):
    """The pairs whose closed boxes share a point, by ``Rectangle.intersects``,
    pair by pair."""
    rectangles = [Rectangle(Point(lx, ly), Point(hx, hy)) for lx, ly, hx, hy in boxes]
    return [
        (i, j)
        for i, first in enumerate(rectangles)
        for j in range(i + 1, len(rectangles))
        if first.intersects(rectangles[j])
    ]


class TestTouchingPairs:
    """The pair pass's x-sorted sweep against a pairwise ``Rectangle`` reference."""

    @settings(max_examples=300, deadline=None)
    @given(boxes=st.lists(pair_boxes(), max_size=14))
    @example(boxes=[(0, 0, 2, 2), (2.0, 0.0, 5, 2), (5.0, 2, 8.0, 8.0), (-0.0, 2.0, 2, 5)])
    def test_sweep_equals_the_reference(self, boxes):
        assert sorted(touching_pairs(boxes)) == reference_pairs(boxes)
