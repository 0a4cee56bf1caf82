"""Property-based tests for :mod:`repro.coordinator.overlaps`.

Random FSA maps (drawn from a small coordinate pool so rectangles routinely
overlap, nest, touch edge-to-edge or collapse to points) are checked against
a brute-force *all-subsets* reference: every non-empty subset of FSAs whose
common intersection is non-empty — positive-area for derived (multi-member)
subsets — is a region, carrying the exact intersection rectangle.  This
mirrors ``tests/test_grid_index_properties.py`` for the overlap structure and
pins the set-function property the sharded overlap stage relies on: below the
region cap, the structure is a pure function of the FSA *set*, independent of
insertion order.

:class:`TestPoolStructures` pins the stronger, *ordered* statement the
one-structure-per-component stage relies on: splitting an epoch into its
components and building (or fetching from the cache) each pool alone yields,
pool by pool, the sequential build's regions of that pool, order and tied
bounds included (by ``repr``), and every other region is a lone FSA's
singleton — also when a cache hit meets a pool whose coordinates only ``==``
an earlier epoch's.  Under a binding region cap it yields the
per-component-cap oracle's lists
(``ReferenceFsaOverlapStructure.build_per_component``): each component capped
in its own insertion order.

:class:`TestScalarBuildEqualsOracle` pins the scalar build to the
``Rectangle`` formulation it replaced (``tests/overlap_oracle.py``), by
``repr``, so a tie that keeps the wrong one of two equal bounds shows up.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, FrozenSet, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.coordinator import overlaps
from repro.coordinator.columnar import HAVE_NUMPY, EndpointTable
from repro.coordinator.overlaps import (
    LONE,
    FsaOverlapStructure,
    OverlapPoolCache,
    build_structures,
    plan_shard_overlaps,
)
from repro.coordinator.single_path import prefetch_vertex_candidates

from overlap_oracle import ReferenceFsaOverlapStructure

# Deliberately coarse pool: values collide, producing identical FSAs, nested
# FSAs, edge-adjacent FSAs (zero-area intersections) and degenerate FSAs.
coordinate_pool = st.sampled_from([0.0, 2.0, 4.0, 5.0, 8.0, 10.0])


@st.composite
def rectangles(draw) -> Rectangle:
    x_low, x_high = sorted((draw(coordinate_pool), draw(coordinate_pool)))
    y_low, y_high = sorted((draw(coordinate_pool), draw(coordinate_pool)))
    return Rectangle(Point(x_low, y_low), Point(x_high, y_high))


fsa_maps = st.dictionaries(
    st.integers(min_value=0, max_value=5), rectangles(), min_size=1, max_size=6
)
query_points = st.builds(Point, coordinate_pool, coordinate_pool)


def reference_regions(fsas: Dict[int, Rectangle]) -> Dict[FrozenSet[int], Rectangle]:
    """All-subsets reference: exponential, exact, order-free."""
    regions: Dict[FrozenSet[int], Rectangle] = {}
    for size in range(1, len(fsas) + 1):
        for combo in combinations(fsas, size):
            rect: Optional[Rectangle] = fsas[combo[0]]
            for object_id in combo[1:]:
                rect = rect.intersection(fsas[object_id])
                if rect is None:
                    break
            if rect is None or (size > 1 and rect.is_degenerate()):
                continue
            regions[frozenset(combo)] = rect
    return regions


def stored_regions(structure: FsaOverlapStructure) -> Dict[FrozenSet[int], Rectangle]:
    return {region.members: region.rectangle for region in structure.regions()}


class TestAgainstAllSubsetsReference:
    @settings(max_examples=150, deadline=None)
    @given(fsa_maps)
    def test_regions_match_reference(self, fsas):
        structure = FsaOverlapStructure.build(fsas)
        assert stored_regions(structure) == reference_regions(fsas)

    @settings(max_examples=100, deadline=None)
    @given(fsa_maps)
    def test_region_set_is_insertion_order_independent(self, fsas):
        forward = FsaOverlapStructure.build(fsas)
        backward = FsaOverlapStructure()
        for object_id in reversed(list(fsas)):
            backward.add(object_id, fsas[object_id])
        assert stored_regions(forward) == stored_regions(backward)

    @settings(max_examples=150, deadline=None)
    @given(fsa_maps, query_points)
    def test_smallest_region_containing_matches_reference(self, fsas, point):
        structure = FsaOverlapStructure.build(fsas)
        reference = reference_regions(fsas)
        containing = [
            (rect, members)
            for members, rect in reference.items()
            if rect.contains_point(point)
        ]
        region = structure.smallest_region_containing(point)
        if not containing:
            assert region is None
            return
        best_area = min(rect.area for rect, _ in containing)
        best_count = max(
            len(members) for rect, members in containing if rect.area == best_area
        )
        assert region is not None
        assert region.rectangle.contains_point(point)
        assert reference[region.members] == region.rectangle
        assert region.rectangle.area == best_area
        assert region.count == best_count

    @settings(max_examples=150, deadline=None)
    @given(fsa_maps, rectangles())
    def test_hottest_region_intersecting_matches_reference(self, fsas, query):
        structure = FsaOverlapStructure.build(fsas)
        reference = reference_regions(fsas)
        intersecting = [
            (rect, members)
            for members, rect in reference.items()
            if rect.intersects(query)
        ]
        region = structure.hottest_region_intersecting(query)
        if not intersecting:
            assert region is None
            return
        best_count = max(len(members) for _, members in intersecting)
        best_area = min(
            rect.area for rect, members in intersecting if len(members) == best_count
        )
        assert region is not None
        assert reference[region.members] == region.rectangle
        assert region.count == best_count
        assert region.rectangle.area == best_area

    @settings(max_examples=150, deadline=None)
    @given(fsa_maps, query_points)
    def test_smallest_region_count_bounds_covering_fsas(self, fsas, point):
        """The deepest positive-area overlap never claims more members than
        there are FSAs covering the point (the paper's hotness bound)."""
        structure = FsaOverlapStructure.build(fsas)
        region = structure.smallest_region_containing(point)
        covering = sum(1 for fsa in fsas.values() if fsa.contains_point(point))
        if region is not None:
            assert region.count <= covering


class TestHardCapProperties:
    @settings(max_examples=150, deadline=None)
    @given(fsa_maps, st.integers(min_value=1, max_value=8))
    def test_never_exceeds_cap(self, fsas, max_regions):
        structure = FsaOverlapStructure.build(fsas, max_regions=max_regions)
        assert len(structure) <= max_regions

    @settings(max_examples=100, deadline=None)
    @given(fsa_maps, st.integers(min_value=1, max_value=8))
    def test_capped_regions_are_a_reference_subset(self, fsas, max_regions):
        """The cap may drop regions but never invents or distorts one."""
        structure = FsaOverlapStructure.build(fsas, max_regions=max_regions)
        reference = reference_regions(fsas)
        for members, rect in stored_regions(structure).items():
            assert reference[members] == rect

    @settings(max_examples=100, deadline=None)
    @given(fsa_maps, st.integers(min_value=1, max_value=8))
    def test_capped_build_is_deterministic(self, fsas, max_regions):
        first = FsaOverlapStructure.build(fsas, max_regions=max_regions)
        second = FsaOverlapStructure.build(fsas, max_regions=max_regions)
        assert [(r.members, r.rectangle) for r in first.regions()] == [
            (r.members, r.rectangle) for r in second.regions()
        ]


# Small integer coordinates: areas and counts tie constantly, FSAs collapse to
# zero width, touch along edges and at corners — every tie-break a pool's
# order has to reproduce.
integer_coordinate = st.integers(min_value=0, max_value=7).map(float)


@st.composite
def integer_rectangles(draw) -> Rectangle:
    x_low, x_high = sorted((draw(integer_coordinate), draw(integer_coordinate)))
    y_low, y_high = sorted((draw(integer_coordinate), draw(integer_coordinate)))
    return Rectangle(Point(x_low, y_low), Point(x_high, y_high))


#: One epoch's reports in submission order; ids repeat, so an object re-reports.
submissions = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), integer_rectangles()),
    min_size=1,
    max_size=12,
)


def epoch_map(reports) -> Dict[int, Rectangle]:
    """First position, later FSA — the map both pipelines build in stage 1."""
    fsas: Dict[int, Rectangle] = {}
    for object_id, fsa in reports:
        fsas[object_id] = fsa
    return fsas


def serialized_repr(structure: FsaOverlapStructure) -> str:
    """Regions in order, bounds down to the sign of zero and ``int`` vs ``float``."""
    return repr(structure.serialized())


def planned(cache, reports, max_regions=10000):
    """The completed plan of an epoch's ``(object_id, FSA)`` reports, or of
    its map (one report per object)."""
    reports = list(reports.items()) if isinstance(reports, dict) else list(reports)
    plan = plan_shard_overlaps(
        cache, [object_id for object_id, _fsa in reports], [fsa for _object_id, fsa in reports]
    )
    plan.complete(build_structures(plan.missed_pools, max_regions))
    return plan


def assert_pools_equal(plan, reference) -> None:
    """Each pool's structure is ``reference``'s regions of that pool, in
    order and by ``repr``, and every other region of ``reference`` is the
    singleton of a lone FSA."""
    pool_of = {object_id: index for index, pool in enumerate(plan.pools) for object_id in pool}
    cut = [[] for _pool in plan.pools]
    for region in reference.serialized():
        index = pool_of.get(region[0][0])
        if index is None:
            assert len(region[0]) == 1
        else:
            cut[index].append(region)
    assert [serialized_repr(structure) for structure in plan.structures] == list(map(repr, cut))


# Equal values that are different objects: ``-0.0`` / ``0.0`` / ``0`` and
# ``2`` / ``2.0`` compare equal but print differently, so ``repr`` sees which
# of two tied bounds a build kept.  The pool is small enough that FSAs
# coincide, nest, collapse to zero width or height and touch along an edge or
# at a corner.
tie_coordinate = st.sampled_from([-0.0, 0.0, 0, 2, 2.0, 3.5, 5, 5.0, 8.0])


@st.composite
def tie_rectangles(draw) -> Rectangle:
    x_low, x_high = sorted((draw(tie_coordinate), draw(tie_coordinate)))
    y_low, y_high = sorted((draw(tie_coordinate), draw(tie_coordinate)))
    return Rectangle(Point(x_low, y_low), Point(x_high, y_high))


region_caps = st.one_of(st.integers(min_value=1, max_value=12), st.just(10000))

#: Epochs over both coordinate pools: integer-valued floats, and the tie pool.
epoch_reports = st.one_of(
    submissions,
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), tie_rectangles()),
        min_size=1,
        max_size=12,
    ),
)

#: Each tie-pool value's equal twin of another ``repr``.
_TWINS = {"-0.0": 0.0, "0.0": -0.0, "0": 0.0, "2": 2.0, "2.0": 2, "5": 5.0, "5.0": 5}


def twin_map(fsas: Dict[int, Rectangle]) -> Dict[int, Rectangle]:
    """The same epoch with every coordinate swapped for its equal twin: each
    FSA ``==`` its original, but prints differently wherever a twin exists."""

    def twin(value):
        return _TWINS.get(repr(value), value)

    return {
        object_id: Rectangle(
            Point(twin(fsa.low.x), twin(fsa.low.y)), Point(twin(fsa.high.x), twin(fsa.high.y))
        )
        for object_id, fsa in fsas.items()
    }


@st.composite
def isolated_epochs(draw) -> Dict[int, Rectangle]:
    """Pairwise-disjoint FSAs, one per 10 x 10 lattice cell: they may touch
    a neighbour along an edge or at a corner (zero area), collapse to zero
    width or height, and carry ``-0.0`` / ``0`` / ``10`` / ``10.0`` bounds."""
    cells = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=10, unique=True)
    )
    ids = draw(st.lists(st.integers(0, 99), min_size=len(cells), max_size=len(cells), unique=True))
    fsas: Dict[int, Rectangle] = {}
    for object_id, (column, row) in zip(ids, cells):
        bounds = []
        for cell in (column, row):
            low = draw(st.sampled_from([-0.0, 0.0, 0, 2.5, 5]))
            high = draw(st.sampled_from([5, 5.0, 7.5, 10, 10.0]))
            bounds.append((low, high) if cell == 0 else (low + 10 * cell, high + 10 * cell))
        (x_low, x_high), (y_low, y_high) = bounds
        fsas[object_id] = Rectangle(Point(x_low, y_low), Point(x_high, y_high))
    return fsas


def corner_cliques():
    """Two overlap cliques of three regions each, the second touching the
    first at the corner (6, 6) and nowhere else."""
    return {
        1: Rectangle(Point(0.0, 0.0), Point(4.0, 4.0)),
        2: Rectangle(Point(2.0, 2.0), Point(6.0, 6.0)),
        3: Rectangle(Point(6.0, 6.0), Point(10.0, 10.0)),
        4: Rectangle(Point(8.0, 8.0), Point(12.0, 12.0)),
    }


class TestPoolStructures:
    """Compared by ``repr(serialized())``: region order, and which of two
    equal bounds each region kept."""

    @settings(max_examples=200, deadline=None)
    @given(reports=epoch_reports)
    def test_pools_equal_the_sequential_build_in_order(self, reports):
        assert_pools_equal(planned(None, reports), FsaOverlapStructure.build(epoch_map(reports)))

    @settings(max_examples=150, deadline=None)
    @given(reports=epoch_reports, max_regions=st.integers(min_value=1, max_value=12))
    def test_a_binding_cap_caps_each_component_in_its_own_order(self, reports, max_regions):
        assert_pools_equal(
            planned(None, reports, max_regions),
            ReferenceFsaOverlapStructure.build_per_component(reports, max_regions),
        )

    def test_cliques_touching_at_a_corner_share_one_cap(self):
        """The corner joins the two cliques into one component, so a cap of
        4 keeps the first clique's three regions and the second's first
        singleton (each clique kept its own three under a cap per
        positive-area component), and the second clique's last member is
        answered from the regions left."""
        fsas = corner_cliques()
        plan = planned(None, fsas, 4)
        assert plan.components == [0, 0, 0, 0]
        reference = ReferenceFsaOverlapStructure.build_per_component(fsas, 4)
        assert_pools_equal(plan, reference)
        (structure,) = plan.structures
        assert [sorted(region.members) for region in structure.regions()] == [[1], [2], [1, 2], [3]]
        assert repr(structure.candidate_vertex_for(fsas[4])) == repr(
            reference.candidate_vertex_for(fsas[4])
        ) == repr((Point(8.0, 8.0), 1))

    @settings(max_examples=100, deadline=None)
    @given(epochs=st.lists(epoch_reports, min_size=2, max_size=4), extra=epoch_reports)
    @example(
        epochs=[
            [(1, Rectangle(Point(0, 0), Point(5, 5))), (2, Rectangle(Point(2, 2), Point(8.0, 8.0)))],
            [(3, Rectangle(Point(0.0, 0.0), Point(2.0, 2.0)))],
        ],
        extra=[],
    )
    def test_cached_pools_equal_the_sequential_build(self, epochs, extra):
        """Hits from earlier epochs change nothing, down to the ``repr``:
        each epoch is followed by itself (a verbatim hit), by itself plus
        late arrivals (a miss, since the cache has no prefix outcome) and by
        its twin (:func:`twin_map`: ``==`` to the first, printed apart, so a
        cache keyed by ``==`` would hand back the first epoch's bounds)."""
        cache = OverlapPoolCache()
        for reports in epochs:
            fsas = epoch_map(reports)
            for epoch in (fsas, fsas, epoch_map(reports + extra), twin_map(fsas)):
                assert_pools_equal(planned(cache, epoch), FsaOverlapStructure.build(epoch))

    @settings(max_examples=150, deadline=None)
    @given(fsas=isolated_epochs(), max_regions=region_caps)
    def test_an_epoch_without_overlaps_is_its_singletons(self, fsas, max_regions):
        """Every region is a singleton: a lone FSA's own, and in a pool of
        FSAs that touch with zero area, the first ``max_regions`` members'."""
        plan = planned(None, fsas, max_regions)
        for pool, structure in zip(plan.pools, plan.structures):
            assert [region.members for region in structure.regions()] == [
                frozenset((object_id,)) for object_id in list(pool)[:max_regions]
            ]
        assert_pools_equal(plan, ReferenceFsaOverlapStructure.build_per_component(fsas, max_regions))

    @settings(max_examples=100, deadline=None)
    @given(fsa=st.one_of(integer_rectangles(), tie_rectangles()), object_id=st.integers(0, 9))
    def test_a_one_fsa_epoch_is_lone(self, fsa, object_id):
        plan = planned(None, {object_id: fsa})
        assert plan.pools == [] and plan.components == [LONE]

    @settings(max_examples=150, deadline=None)
    @given(reports=epoch_reports, isolated=isolated_epochs(), data=st.data())
    def test_lone_fsas_never_tip_the_cap(self, reports, isolated, data):
        """The pools alone stay under the cap and the lone FSAs take the
        epoch's sum to it or past it: no component reaches the cap, so every
        pool keeps its regions of the uncapped build, in its order."""
        # The isolated lattice sits far from the epoch's coordinate pools.
        fsas = epoch_map(reports)
        for object_id, fsa in isolated.items():
            shifted = Rectangle(
                Point(fsa.low.x + 100, fsa.low.y + 100), Point(fsa.high.x + 100, fsa.high.y + 100)
            )
            fsas.setdefault(100 + object_id, shifted)
        plan = planned(None, fsas)
        pooled = sum(map(len, plan.structures))
        lone = plan.components.count(LONE)
        max_regions = pooled + data.draw(st.integers(1, max(1, lone)))
        plan = planned(None, fsas, max_regions)
        assert_pools_equal(plan, ReferenceFsaOverlapStructure.build_per_component(fsas, max_regions))
        assert_pools_equal(plan, ReferenceFsaOverlapStructure.build(fsas))


#: Direct ``add`` calls; ids repeat, so an object is added again.
add_calls = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), tie_rectangles()),
    min_size=1,
    max_size=10,
)
tie_points = st.builds(Point, tie_coordinate, tie_coordinate)


def region_reprs(regions):
    return [(region.members, repr(region.rectangle.as_bounds())) for region in regions]


def answer_repr(region):
    return None if region is None else region_reprs([region])


def assert_same_batched(structure, reference, points, fsas):
    """The batched queries on both sides of :data:`overlaps.TABLE_WORK` — the
    scalar loops, then the lazily built ``RegionTable`` — against the
    oracle's single queries mapped over the same inputs."""
    for table_work in (math.inf, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(overlaps, "TABLE_WORK", table_work)
            assert structure.containing_counts(points) == reference.containing_counts(points)
            assert repr(structure.candidate_vertices_for(fsas)) == repr(
                reference.candidate_vertices_for(fsas)
            )


@pytest.mark.parametrize("route", ("built", "shipped", "interleaved"))
class TestScalarBuildEqualsOracle:
    """The structure against ``ReferenceFsaOverlapStructure``: same regions,
    same bounds down to the sign of zero and ``int`` vs ``float``, same
    answers from the scalar single queries and the table's batched ones.

    Three routes to the structure that is queried: as built; as shipped back
    by a build worker (``from_serialized(serialized())``); and with the
    batched queries' table built after every ``add``, so a table that
    outlived the ``add`` invalidating it would answer for stale regions."""

    @staticmethod
    def assert_same(structure, reference, points, fsas):
        assert repr(structure.serialized()) == repr(reference.serialized())
        assert len(structure) == len(reference)
        assert region_reprs(structure.regions()) == region_reprs(reference.regions())
        for point in points:
            assert answer_repr(structure.smallest_region_containing(point)) == answer_repr(
                reference.smallest_region_containing(point)
            )
        for fsa in fsas:
            assert answer_repr(structure.hottest_region_intersecting(fsa)) == answer_repr(
                reference.hottest_region_intersecting(fsa)
            )
            assert repr(structure.candidate_vertex_for(fsa)) == repr(
                reference.candidate_vertex_for(fsa)
            )
        assert_same_batched(structure, reference, points, fsas)

    @staticmethod
    def routed(route, structure, max_regions):
        if route == "shipped":
            return FsaOverlapStructure.from_serialized(structure.serialized(), max_regions)
        return structure

    @staticmethod
    @settings(max_examples=300, deadline=None)
    @given(
        calls=add_calls,
        max_regions=region_caps,
        points=st.lists(tie_points, max_size=6),
        fsas=st.lists(tie_rectangles(), max_size=6),
    )
    # Id 0 is added again under a binding cap: three of four slots are taken,
    # so only its own singleton fits the derivation budget, and deriving one
    # region more would refine the stored {0, 1} to a smaller box.
    @example(
        calls=[
            (0, Rectangle(Point(0.0, 0.0), Point(10.0, 10.0))),
            (1, Rectangle(Point(5.0, 0.0), Point(15.0, 10.0))),
            (0, Rectangle(Point(6.0, 0.0), Point(10.0, 10.0))),
        ],
        max_regions=4,
        points=[],
        fsas=[],
    )
    def test_direct_adds(route, calls, max_regions, points, fsas):
        structure = FsaOverlapStructure(max_regions)
        reference = ReferenceFsaOverlapStructure(max_regions)
        for object_id, fsa in calls:
            structure.add(object_id, fsa)
            reference.add(object_id, fsa)
            assert repr(structure.serialized()) == repr(reference.serialized())
            if route == "interleaved":
                assert_same_batched(structure, reference, points, fsas)
        TestScalarBuildEqualsOracle.assert_same(
            TestScalarBuildEqualsOracle.routed(route, structure, max_regions), reference, points, fsas
        )

    @staticmethod
    @settings(max_examples=200, deadline=None)
    @given(
        reports=add_calls,
        max_regions=region_caps,
        points=st.lists(tie_points, max_size=6),
        fsas=st.lists(tie_rectangles(), max_size=6),
    )
    def test_epoch_builds(route, reports, max_regions, points, fsas):
        """``build`` over an epoch map, the unit the pool cache stores and the
        workers ship."""
        structure = FsaOverlapStructure.build(epoch_map(reports), max_regions)
        reference = ReferenceFsaOverlapStructure.build(epoch_map(reports), max_regions)
        if route == "interleaved":
            assert_same_batched(structure, reference, points, fsas)
        TestScalarBuildEqualsOracle.assert_same(
            TestScalarBuildEqualsOracle.routed(route, structure, max_regions), reference, points, fsas
        )



#: Both sides of the table cut-off: the scalar loops or the region table.
CUTOFFS = {"scalar": math.inf, "numpy": 0}


def cutoffs(patch, side):
    patch.setattr(overlaps, "TABLE_WORK", CUTOFFS[side])


@st.composite
def touching_epochs(draw):
    """One epoch's reports in submission order: the tie pool's FSAs (nested,
    zero-width, ``-0.0`` / ``0`` / ``2`` / ``2.0`` bounds, re-reporters) plus
    an isolated lattice far from them whose cells touch along edges and at
    corners, so touches join overlap cliques, lone FSAs and both."""
    reports = list(draw(epoch_reports))
    for object_id, fsa in draw(isolated_epochs()).items():
        shifted = Rectangle(
            Point(fsa.low.x + 100, fsa.low.y + 100), Point(fsa.high.x + 100, fsa.high.y + 100)
        )
        reports.insert(draw(st.integers(0, len(reports))), (100 + object_id, shifted))
    return reports


def box(low_x, low_y, high_x, high_y) -> Rectangle:
    return Rectangle(Point(low_x, low_y), Point(high_x, high_y))


@pytest.mark.skipif(not HAVE_NUMPY, reason="the columnar kernel needs numpy")
@pytest.mark.parametrize("side", sorted(CUTOFFS))
class TestComponentAnswers:
    """The epoch pass answers each state that is not lone from its own
    component's structure, and a lone FSA's decision takes its fixed answers
    (its centre with count 1, bonus 1 for every end vertex inside it); every
    answer — the fabricated vertex with its count, and the bonus of every
    vertex it reads — must ``repr``-equal those of the per-component-cap
    oracle's whole-epoch ``R_all``
    (``ReferenceFsaOverlapStructure.build_per_component``)."""

    @settings(max_examples=200, deadline=None)
    @given(
        reports=touching_epochs(),
        max_regions=region_caps,
        ends=st.lists(st.builds(Point, tie_coordinate, tie_coordinate), max_size=8),
    )
    def test_component_answers_equal_the_oracle(self, side, reports, max_regions, ends):
        reference = ReferenceFsaOverlapStructure.build_per_component(reports, max_regions)
        table = EndpointTable()
        for path_id, end in enumerate(ends):
            table.add_path(path_id, Point(500.0, 500.0), end)
        # Submission positions; an earlier report of a re-reporter is not in
        # the epoch map, but is a state of its component.
        pending = [(position, fsa) for position, (_object_id, fsa) in enumerate(reports)]
        cache = OverlapPoolCache()
        with pytest.MonkeyPatch.context() as patch:
            cutoffs(patch, side)
            for _round in ("miss", "hit"):
                plan = planned(cache, reports, max_regions)
                prefetched = prefetch_vertex_candidates(table, pending, plan)
                for position, fsa in pending:
                    lone = plan.components[position] == LONE
                    assert (position not in prefetched) == lone
                    if lone:
                        # Every vertex inside a lone FSA has bonus 1.
                        end_vertices, centre = table.end_vertices_in(fsa), fsa.center
                        fabricated = (centre, 1)
                        bonus = dict.fromkeys([*end_vertices, (centre.x, centre.y)], 1)
                    else:
                        prefetch = prefetched[position]
                        end_vertices, fabricated, bonus = (
                            prefetch.end_vertices, prefetch.fabricated, prefetch.bonus
                        )
                    expected = reference.candidate_vertex_for(fsa)
                    assert repr(fabricated) == repr(expected)
                    vertices = [vertex for vertex, _path_ids in end_vertices.values()]
                    if expected is not None:
                        vertices.append(expected[0])
                    for vertex in vertices:
                        region = reference.smallest_region_containing(vertex)
                        assert bonus[(vertex.x, vertex.y)] == (region.count if region else 0)
                    if not lone:
                        # A vertex an earlier decision inserts inside the FSA:
                        # its bonus comes from the component's structure.
                        for vertex in (fsa.center, fsa.low, fsa.high):
                            region = reference.smallest_region_containing(vertex)
                            found = prefetch.structure.smallest_region_containing(vertex)
                            assert repr(found) == repr(region)

    def test_each_state_is_answered_from_its_own_component(self, side):
        """A lone FSA by its own decision (no entry); a pool nothing touches,
        a pool touching an FSA at a corner and an edge-to-edge pair each from
        its pool; the earlier report of a re-reporter that touches nothing
        from an empty structure, and its later report, lone, by its own
        decision."""
        reports = [
            (1, box(0, 0, 2, 2)),  # lone
            (2, box(10, 10, 14, 14)),  # a pool nothing touches ...
            (3, box(12, 12, 16, 16)),
            (4, box(30, 30, 34, 34)),  # a pool touching ...
            (5, box(32, 32, 36, 36)),
            (6, box(36, 36, 38, 38)),  # ... this FSA at a corner
            (7, box(50, 50, 52, 52)),  # two FSAs sharing an edge
            (8, box(52, 50, 54, 52)),
            (9, box(60, 60, 61, 61)),  # re-reported: the first FSA is off the map
            (9, box(70, 70, 71, 71)),
        ]
        with pytest.MonkeyPatch.context() as patch:
            cutoffs(patch, side)
            plan = planned(None, reports)
            assert plan.components == [LONE, 0, 0, 1, 1, 1, 2, 2, None, LONE]
            assert [list(pool) for pool in plan.pools] == [[2, 3], [4, 5, 6], [7, 8]]
            pending = [(position, fsa) for position, (_object_id, fsa) in enumerate(reports)]
            prefetched = prefetch_vertex_candidates(EndpointTable(), pending, plan)
        reference = ReferenceFsaOverlapStructure.build_per_component(reports)
        assert sorted(prefetched) == [1, 2, 3, 4, 5, 6, 7, 8]  # 0 and 9 are lone
        assert prefetched[8].fabricated is None and len(prefetched[8].structure) == 0
        for position, fsa in pending:
            fabricated = prefetched[position].fabricated if position in prefetched else (fsa.center, 1)
            assert repr(fabricated) == repr(reference.candidate_vertex_for(fsa))

    def test_an_epoch_past_the_cap_keeps_its_components(self, side):
        """Four lone FSAs and a pool of two reach a cap of 4 only summed over
        the epoch: every FSA keeps its component's answer."""
        fsas = {object_id: box(10.0 * object_id, 0.0, 10.0 * object_id + 1, 1.0) for object_id in range(4)}
        fsas.update({4: box(100.0, 100.0, 104.0, 104.0), 5: box(102.0, 102.0, 106.0, 106.0)})
        with pytest.MonkeyPatch.context() as patch:
            cutoffs(patch, side)
            plan = planned(None, fsas, 4)
            assert plan.components == [LONE, LONE, LONE, LONE, 0, 0]
            pending = list(enumerate(fsas.values()))
            prefetched = prefetch_vertex_candidates(EndpointTable(), pending, plan)
        assert sorted(prefetched) == [4, 5]
        reference = ReferenceFsaOverlapStructure.build_per_component(fsas, 4)
        for position, fsa in pending:
            fabricated = prefetched[position].fabricated if position in prefetched else (fsa.center, 1)
            assert repr(fabricated) == repr(reference.candidate_vertex_for(fsa))
            assert fsa.contains_point(fabricated[0])
