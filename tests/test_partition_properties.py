"""Property suite for the spatial partition layer (``coordinator/partition.py``).

The shard router's exactness contract rests on a handful of partition facts
that hold for *any* layout — uniform grid or kd split:

* the partition covers the plane: every point (inside or outside the
  monitored bounds) is owned by exactly one shard, and that shard's clipped
  cell contains the point once clamped into the bounds;
* ``shard_ids_overlapping`` never misses an owner: the shard of any point
  inside a query rectangle is in the rectangle's overlap set, and every
  returned shard's cell really intersects the (clamped) rectangle;
* ``single_shard_of`` is a sound fast path: when it names a shard, the
  overlap set is exactly that shard;
* kd fits are **total-order deterministic**: the splits are a pure function
  of the sample *set* — permuting the sample never changes the partition;
* cells tile the bounds: positive areas summing to the monitored area;
* the elastic operations preserve all of the above: any sequence of
  ``split``/``merge`` actions keeps the plane covered,
  splits touch only the split cell (every other shard keeps its id and
  bounds, which keeps shard ids deterministic), and a split is a pure
  function of the sample *set* — never its order.

These are hypothesis properties over random bounds, samples and shard
counts; the differential harness (`tests/test_sharding_equivalence.py`)
covers the end-to-end consequence — bit-for-bit equality with the seed
coordinator under kd partitions and mid-stream rebalances.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.coordinator.partition import (
    PARTITION_KINDS,
    KdSplitPartition,
    UniformGridPartition,
    create_partition,
    shard_layout,
)

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))

coordinates = st.floats(min_value=-200.0, max_value=1200.0)
interior = st.floats(min_value=0.0, max_value=1000.0)
shard_counts = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16])


@st.composite
def samples(draw):
    """A point sample with deliberate duplicates and boundary clusters."""
    base = draw(
        st.lists(st.tuples(interior, interior), min_size=0, max_size=60)
    )
    # A point mass stresses the degenerate-split fallback.
    mass = draw(st.integers(min_value=0, max_value=10))
    base.extend([(250.0, 250.0)] * mass)
    return base


@st.composite
def rectangles(draw):
    low_x, high_x = sorted((draw(coordinates), draw(coordinates)))
    low_y, high_y = sorted((draw(coordinates), draw(coordinates)))
    return Rectangle(Point(low_x, low_y), Point(high_x, high_y))


def points_inside(region: Rectangle):
    """Five points of ``region``.

    ``st.floats`` orders ``-0.0`` below ``0.0`` and rejects ``min_value=0.0,
    max_value=-0.0`` — which is what a rectangle whose equal bounds are zeros
    of opposite sign asks for — so the bounds are normalised first (``-0.0 +
    0.0`` is ``0.0``).
    """
    xs = st.floats(min_value=region.low.x + 0.0, max_value=region.high.x + 0.0)
    ys = st.floats(min_value=region.low.y + 0.0, max_value=region.high.y + 0.0)
    return st.lists(st.tuples(xs, ys), min_size=5, max_size=5)


@st.composite
def probed_rectangles(draw):
    """A query rectangle and five points inside it."""
    region = draw(rectangles())
    return region, draw(points_inside(region))


def clamp(point: Point, bounds: Rectangle) -> Point:
    return Point(
        min(max(point.x, bounds.low.x), bounds.high.x),
        min(max(point.y, bounds.low.y), bounds.high.y),
    )


@st.composite
def partitions(draw):
    count = draw(shard_counts)
    if draw(st.booleans()):
        rows, cols = shard_layout(count)
        return UniformGridPartition(BOUNDS, rows, cols)
    return KdSplitPartition.fit(BOUNDS, count, draw(samples()))


#: Samples two ulps apart at the top edge: the quantile cut between them
#: would leave a cell one ulp high that still owes a leaf.  ``fit`` used to
#: take it and then cut that cell at its "midpoint" — which rounds onto the
#: cell's own edge — leaving a zero-height sibling and routing the first
#: cell's centre next door.
ULP_TOP = math.nextafter(1000.0, 0.0)
ULP_CLUSTER = [
    (5e-324, math.nextafter(ULP_TOP, 0.0)),
    (5e-324, 1000.0),
    (1.5e-323, 1000.0),
]

#: A hand-built kd tree whose middle leaf is one ulp high and *interior*: its
#: centre rounds (to even) onto its upper edge, which belongs to the leaf above.
_ODD = math.nextafter(500.0, 1000.0)
_EVEN = math.nextafter(_ODD, 1000.0)
ONE_ULP_CELL = KdSplitPartition(
    BOUNDS,
    (1, _ODD, 0, (1, _EVEN, 1, 2)),
    [
        Rectangle(BOUNDS.low, Point(1000.0, _ODD)),
        Rectangle(Point(0.0, _ODD), Point(1000.0, _EVEN)),
        Rectangle(Point(0.0, _EVEN), BOUNDS.high),
    ],
)

#: A rectangle whose equal y bounds are zeros of opposite sign (``sorted``
#: keeps ``0.0`` before ``-0.0``), which ``st.floats`` refuses as a range.
NEGATIVE_ZERO_REGION = Rectangle(Point(-0.0, 0.0), Point(5.0, -0.0))


class TestPlaneCover:
    @given(partitions(), st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_every_point_has_exactly_one_owner_whose_cell_contains_it(self, partition, points):
        for x, y in points:
            shard_id = partition.shard_id_of(Point(x, y))
            assert 0 <= shard_id < partition.num_shards
            cell = partition.shard_bounds(shard_id)
            clamped = clamp(Point(x, y), partition.bounds)
            assert cell.contains_point(clamped), (
                f"shard {shard_id} cell {cell} does not contain clamped point {clamped}"
            )

    @given(partitions())
    @example(KdSplitPartition.fit(BOUNDS, 7, ULP_CLUSTER))
    @example(ONE_ULP_CELL)
    @settings(max_examples=100, deadline=None)
    def test_cells_tile_the_bounds(self, partition):
        total_area = sum(
            partition.shard_bounds(shard_id).area
            for shard_id in range(partition.num_shards)
        )
        assert total_area == pytest.approx(partition.bounds.area, rel=1e-9)
        for shard_id in range(partition.num_shards):
            cell = partition.shard_bounds(shard_id)
            # Positive extent on both axes (what GridConfig needs to seat a
            # per-shard index); the *product* may underflow to 0.0 for
            # subnormal-sized cells, so area > 0 would be the wrong check.
            assert cell.width > 0.0 and cell.height > 0.0, (
                f"shard {shard_id} has a degenerate cell"
            )
            # The cell is the clipped footprint, closed below and open above
            # (except at the bounds' own upper edges): its centre routes
            # home whenever the centre is a point of it.  A cell one ulp
            # wide has no representable midpoint — the centre rounds onto an
            # edge — and when that is an interior upper edge the centre is
            # the neighbour's; the lower corner is always the cell's own.
            centre, bounds = cell.center, partition.bounds
            if (centre.x < cell.high.x or cell.high.x == bounds.high.x) and (
                centre.y < cell.high.y or cell.high.y == bounds.high.y
            ):
                assert partition.shard_id_of(centre) == shard_id
            else:
                assert partition.kind == "kd"
                assert partition.shard_id_of(cell.low) == shard_id


class TestOverlapQueries:
    @given(partitions(), probed_rectangles())
    @example(
        UniformGridPartition(BOUNDS, 2, 2),
        (NEGATIVE_ZERO_REGION, [(0.0, 0.0), (-0.0, -0.0), (5.0, 0.0), (2.5, -0.0), (0.0, -0.0)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_overlap_set_contains_every_interior_owner(self, partition, probed):
        region, inside = probed
        overlapping = list(partition.shard_ids_overlapping(region))
        assert overlapping == sorted(set(overlapping))  # ascending, duplicate-free
        for x, y in inside:
            assert region.contains_point(Point(x, y))
            assert partition.shard_id_of(Point(x, y)) in overlapping

    @given(points_inside(NEGATIVE_ZERO_REGION))
    @settings(max_examples=10, deadline=None)
    def test_points_can_be_drawn_from_a_negative_zero_region(self, inside):
        """The draw itself used to die (``InvalidArgument``) on this region."""
        assert all(NEGATIVE_ZERO_REGION.contains_point(Point(x, y)) for x, y in inside)

    @given(partitions(), rectangles())
    @settings(max_examples=200, deadline=None)
    def test_overlapping_cells_really_intersect_the_region(self, partition, region):
        clamped = Rectangle(
            clamp(region.low, partition.bounds), clamp(region.high, partition.bounds)
        )
        for shard_id in partition.shard_ids_overlapping(region):
            cell = partition.shard_bounds(shard_id)
            assert (
                cell.low.x <= clamped.high.x
                and clamped.low.x <= cell.high.x
                and cell.low.y <= clamped.high.y
                and clamped.low.y <= cell.high.y
            ), f"shard {shard_id} cell {cell} does not touch clamped region {clamped}"

    @given(partitions(), rectangles())
    @settings(max_examples=200, deadline=None)
    def test_single_shard_fast_path_matches_overlap_set(self, partition, region):
        single = partition.single_shard_of(region)
        overlapping = list(partition.shard_ids_overlapping(region))
        if single is not None:
            assert overlapping == [single]
        else:
            assert partition.num_shards > 1


class TestKdDeterminism:
    @given(st.integers(min_value=0, max_value=2**32 - 1), shard_counts, samples())
    @settings(max_examples=150, deadline=None)
    def test_fit_is_independent_of_sample_order(self, seed, count, sample):
        reference = KdSplitPartition.fit(BOUNDS, count, sample)
        shuffled = list(sample)
        random.Random(seed).shuffle(shuffled)
        assert KdSplitPartition.fit(BOUNDS, count, shuffled).describe() == reference.describe()

    @given(shard_counts, samples())
    @settings(max_examples=100, deadline=None)
    def test_fit_produces_the_requested_leaf_count(self, count, sample):
        partition = KdSplitPartition.fit(BOUNDS, count, sample)
        assert partition.num_shards == count
        assert partition.kind == "kd"

    def test_fit_splits_toward_the_density(self):
        """80% of the mass in the downtown corner: kd cells there must be
        smaller than the suburban ones, and the sample must spread evenly."""
        rng = random.Random(7)
        downtown = [(rng.uniform(0, 250), rng.uniform(0, 250)) for _ in range(800)]
        suburbs = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(200)]
        partition = KdSplitPartition.fit(BOUNDS, 16, downtown + suburbs)
        loads = [0] * 16
        for x, y in downtown + suburbs:
            loads[partition.shard_id_of(Point(x, y))] += 1
        assert max(loads) <= 2 * (sum(loads) / len(loads))
        downtown_cell = partition.shard_bounds(partition.shard_id_of(Point(50.0, 50.0)))
        suburb_cell = partition.shard_bounds(partition.shard_id_of(Point(900.0, 900.0)))
        assert downtown_cell.area < suburb_cell.area

    def test_fit_survives_a_point_mass(self):
        """An unsplittable sample (all points identical) falls back to
        midpoint splits instead of degenerate cells."""
        partition = KdSplitPartition.fit(BOUNDS, 8, [(400.0, 400.0)] * 100)
        assert partition.num_shards == 8
        for shard_id in range(8):
            assert partition.shard_bounds(shard_id).area > 0.0

    def test_fit_refuses_a_cut_that_leaves_a_side_without_an_interior(self):
        """The quantile between samples two ulps apart at the top edge would
        leave a cell one ulp high that still owes a leaf; ``fit`` falls back
        to the cell midpoint, and every leaf keeps positive extent (a
        per-shard grid must seat in it)."""
        partition = KdSplitPartition.fit(BOUNDS, 7, ULP_CLUSTER)
        cells = [partition.shard_bounds(shard_id) for shard_id in range(7)]
        assert all(cell.width > 0.0 and cell.height > 0.0 for cell in cells)
        assert all(cell.high.y != ULP_TOP and cell.low.y != ULP_TOP for cell in cells)

    def test_a_one_ulp_cell_is_cut_on_its_other_axis(self):
        """Halving can still reach one ulp; the leaf such a cell owes comes
        off the other axis, and a cell with no interior on either is refused."""
        sliver = Rectangle(Point(0.0, 0.0), Point(5e-324, 1000.0))
        partition = KdSplitPartition.fit(sliver, 2)
        assert [partition.shard_bounds(shard_id).high.y for shard_id in range(2)] == [500.0, 1000.0]
        speck = Rectangle(Point(0.0, 0.0), Point(5e-324, 5e-324))
        with pytest.raises(ConfigurationError):
            KdSplitPartition.fit(speck, 2)

    def test_fit_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            KdSplitPartition.fit(BOUNDS, 0)
        with pytest.raises(ConfigurationError):
            KdSplitPartition.fit(Rectangle(Point(0, 0), Point(0, 5)), 4)


@st.composite
def fleet_actions(draw):
    """A partition with an arbitrary *valid* split/merge history applied.

    Splits pick any shard; merges pick any sibling pair (the only legal
    merges).  The result is whatever layout an elastic controller could
    reach, including uniform grids converted onto the kd representation by
    their first split."""
    partition = draw(partitions())
    sample = draw(samples())
    for is_split, selector in draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=2**20)),
            max_size=8,
        )
    ):
        pairs = partition.mergeable_pairs()
        if is_split or not pairs:
            partition = partition.split(selector % partition.num_shards, sample)
        else:
            a, b = pairs[selector % len(pairs)]
            partition = partition.merge(a, b)
    return partition


class TestElasticActions:
    """Satellite properties: the elastic ``split``/``merge`` operations keep
    every invariant the router's exactness contract rests on."""

    @given(
        fleet_actions(),
        st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_plane_cover_survives_arbitrary_histories(self, partition, points):
        for x, y in points:
            shard_id = partition.shard_id_of(Point(x, y))
            assert 0 <= shard_id < partition.num_shards
            clamped = clamp(Point(x, y), partition.bounds)
            assert partition.shard_bounds(shard_id).contains_point(clamped)

    @given(fleet_actions())
    @settings(max_examples=100, deadline=None)
    def test_cells_still_tile_the_bounds(self, partition):
        total = sum(
            partition.shard_bounds(shard_id).area
            for shard_id in range(partition.num_shards)
        )
        assert total == pytest.approx(partition.bounds.area, rel=1e-9)
        for shard_id in range(partition.num_shards):
            cell = partition.shard_bounds(shard_id)
            assert cell.width > 0.0 and cell.height > 0.0
            assert partition.shard_id_of(cell.center) == shard_id

    @given(partitions(), samples(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_split_is_independent_of_sample_order(self, partition, sample, seed):
        shard_id = seed % partition.num_shards
        shuffled = list(sample)
        random.Random(seed).shuffle(shuffled)
        assert (
            partition.split(shard_id, shuffled).describe()
            == partition.split(shard_id, sample).describe()
        )

    @given(partitions(), samples(), st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=100, deadline=None)
    def test_split_touches_only_the_split_cell(self, partition, sample, selector):
        """Deterministic shard ids depend on this: every other shard keeps
        its id *and* its bounds, and the two halves tile the split cell
        exactly (the new shard takes the next free id)."""
        shard_id = selector % partition.num_shards
        grown = partition.split(shard_id, sample)
        new_id = partition.num_shards
        assert grown.num_shards == partition.num_shards + 1
        for other in range(partition.num_shards):
            if other != shard_id:
                assert grown.shard_bounds(other) == partition.shard_bounds(other)
        halves = (grown.shard_bounds(shard_id), grown.shard_bounds(new_id))
        assert halves[0].area + halves[1].area == pytest.approx(
            partition.shard_bounds(shard_id).area, rel=1e-9
        )

    @given(partitions(), samples(), st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=100, deadline=None)
    def test_split_then_merge_round_trips(self, partition, sample, selector):
        kd = partition if partition.kind == "kd" else partition.to_kd()
        shard_id = selector % kd.num_shards
        grown = kd.split(shard_id, sample)
        assert grown.merge(shard_id, kd.num_shards).describe() == kd.describe()

    @given(fleet_actions(), st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=100, deadline=None)
    def test_merge_only_touches_the_siblings(self, partition, selector):
        pairs = partition.mergeable_pairs()
        assume(pairs)
        a, b = pairs[selector % len(pairs)]
        merged = partition.merge(a, b)
        assert merged.num_shards == partition.num_shards - 1
        union_area = partition.shard_bounds(a).area + partition.shard_bounds(b).area
        assert merged.shard_bounds(a).area == pytest.approx(union_area, rel=1e-9)
        # Survivors keep their cells; ids above the dropped one shift down.
        for old_id in range(partition.num_shards):
            if old_id in (a, b):
                continue
            new_id = old_id - 1 if old_id > b else old_id
            assert merged.shard_bounds(new_id) == partition.shard_bounds(old_id)

    def test_non_sibling_merges_are_rejected(self):
        partition = KdSplitPartition.fit(BOUNDS, 4)
        siblings = set(partition.mergeable_pairs())
        assert siblings  # the balanced fit must expose at least one pair
        rejected = 0
        for a in range(4):
            for b in range(4):
                if a == b or (min(a, b), max(a, b)) in siblings:
                    continue
                with pytest.raises(ConfigurationError):
                    partition.merge(a, b)
                rejected += 1
        assert rejected > 0
        with pytest.raises(ConfigurationError):
            partition.merge(0, 0)
        with pytest.raises(ConfigurationError):
            partition.merge(0, 99)
        with pytest.raises(ConfigurationError):
            partition.split(99)


class TestCreatePartition:
    def test_kinds_round_trip(self):
        for kind in PARTITION_KINDS:
            partition = create_partition(kind, BOUNDS, 6)
            assert partition.kind == kind
            assert partition.num_shards == 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            create_partition("voronoi", BOUNDS, 4)

    def test_uniform_matches_shard_grid_layout(self):
        partition = create_partition("uniform", BOUNDS, 4)
        assert (partition.rows, partition.cols) == shard_layout(4)
