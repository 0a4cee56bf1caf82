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

:class:`TestMergedEpochStructure` pins the stronger, *ordered* statement the
one-structure-per-epoch stage relies on: splitting an epoch into overlap
components, building (or fetching from the cache) each one alone and merging
yields the sequential build's region list, order included.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.coordinator.overlaps import (
    FsaOverlapStructure,
    OverlapPoolCache,
    build_structures,
    plan_shard_overlaps,
)

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
# zero width, touch along edges and at corners — every tie-break the merged
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


def ordered_regions(structure: FsaOverlapStructure) -> List[Tuple[FrozenSet[int], Rectangle]]:
    return [(region.members, region.rectangle) for region in structure.regions()]


def merged_structure(kernel, cache, fsas, max_regions=10000) -> FsaOverlapStructure:
    plan = plan_shard_overlaps(kernel, cache, fsas, max_regions)
    return plan.merge(build_structures(plan.missed_pools, max_regions, kernel))


@pytest.mark.parametrize("kernel", ("object", "columnar"))
class TestMergedEpochStructure:
    @settings(max_examples=200, deadline=None)
    @given(reports=submissions)
    def test_merged_regions_equal_the_sequential_build_in_order(self, kernel, reports):
        fsas = epoch_map(reports)
        assert ordered_regions(merged_structure(kernel, None, fsas)) == ordered_regions(
            FsaOverlapStructure.build(fsas)
        )

    @settings(max_examples=150, deadline=None)
    @given(reports=submissions, max_regions=st.integers(min_value=1, max_value=12))
    def test_a_saturated_cap_falls_back_to_the_sequential_build(self, kernel, reports, max_regions):
        fsas = epoch_map(reports)
        assert ordered_regions(merged_structure(kernel, None, fsas, max_regions)) == (
            ordered_regions(FsaOverlapStructure.build(fsas, max_regions))
        )

    @settings(max_examples=100, deadline=None)
    @given(epochs=st.lists(submissions, min_size=2, max_size=4), extra=submissions)
    def test_cached_components_merge_to_the_same_structure(self, kernel, epochs, extra):
        """Verbatim and prefix hits from earlier epochs change nothing: each
        epoch is followed by itself plus late arrivals, so both paths fire."""
        cache = OverlapPoolCache(kernel=kernel)
        for reports in epochs:
            for fsas in (epoch_map(reports), epoch_map(reports + extra)):
                assert ordered_regions(merged_structure(kernel, cache, fsas)) == (
                    ordered_regions(FsaOverlapStructure.build(fsas))
                )
