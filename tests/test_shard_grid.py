"""The fixed shard grid and the shard-label statistics.

Four layers:

* :class:`TestPlaneCover` / :class:`TestOverlapQueries` — hypothesis
  properties of :class:`~repro.coordinator.partition.ShardGrid`: every point
  has exactly one owner whose cell contains it, the cells tile the bounds,
  and region queries never miss an owner; :class:`TestShardLayout` pins the
  R x C factorisation, prime counts (1 x 3, 1 x 7 stripes) included;
* :class:`TestShardStatistics` / :class:`TestStatisticsSchema` — a record
  counts once, for the owner of its start vertex (a boundary-straddling path
  is never double-counted), and ``shard_statistics()`` has one exact key set
  on every shard count;
* :class:`TestSingleShardDeltaStatistics` — the delta counters of
  ``shard_statistics()`` mean the same thing at every shard count;
* :class:`TestExpiryDrain` — over long windowed replays the statistics count
  the live records only: an expired straddling path never lingers.

``tests/test_one_index.py`` holds the differential of the on-demand
statistics against a from-scratch recount.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.partition import ShardGrid, shard_layout

from differential import synthetic_stream

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))

coordinates = st.floats(min_value=-200.0, max_value=1200.0)
shard_counts = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16])


def make_coordinator(num_shards: int = 4, window: int = 60, **kwargs) -> Coordinator:
    return Coordinator(
        CoordinatorConfig(
            bounds=BOUNDS, window=window, cells_per_axis=32, num_shards=num_shards, **kwargs
        )
    )


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
def grids(draw):
    """The router's layout for a shard count, or any R x C grid."""
    if draw(st.booleans()):
        return ShardGrid(BOUNDS, *shard_layout(draw(shard_counts)))
    return ShardGrid(
        BOUNDS, draw(st.integers(min_value=1, max_value=9)), draw(st.integers(min_value=1, max_value=9))
    )


#: A rectangle whose equal y bounds are zeros of opposite sign (``sorted``
#: keeps ``0.0`` before ``-0.0``), which ``st.floats`` refuses as a range.
NEGATIVE_ZERO_REGION = Rectangle(Point(-0.0, 0.0), Point(5.0, -0.0))


def cell_bounds(grid: ShardGrid, shard_id: int) -> Rectangle:
    """The cell of ``shard_id``; the last row and column end exactly on the bounds."""
    row, col = divmod(shard_id, grid.cols)
    width, height = grid.bounds.width / grid.cols, grid.bounds.height / grid.rows
    low = Point(grid.bounds.low.x + col * width, grid.bounds.low.y + row * height)
    high = Point(
        grid.bounds.high.x if col == grid.cols - 1 else low.x + width,
        grid.bounds.high.y if row == grid.rows - 1 else low.y + height,
    )
    return Rectangle(low, high)


class TestPlaneCover:
    @given(grids(), st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_every_point_has_exactly_one_owner_whose_cell_contains_it(self, grid, points):
        for x, y in points:
            shard_id = grid.shard_id_of(Point(x, y))
            assert 0 <= shard_id < grid.num_shards
            cell = cell_bounds(grid, shard_id)
            clamped = clamp(Point(x, y), grid.bounds)
            assert cell.contains_point(clamped), (
                f"shard {shard_id} cell {cell} does not contain clamped point {clamped}"
            )

    @given(grids())
    @settings(max_examples=100, deadline=None)
    def test_cells_tile_the_bounds(self, grid):
        total_area = sum(
            cell_bounds(grid, shard_id).area for shard_id in range(grid.num_shards)
        )
        assert total_area == pytest.approx(grid.bounds.area, rel=1e-9)
        for shard_id in range(grid.num_shards):
            cell = cell_bounds(grid, shard_id)
            # Positive extent on both axes (what GridConfig needs to seat a
            # per-shard index), and the centre routes home.
            assert cell.width > 0.0 and cell.height > 0.0, (
                f"shard {shard_id} has a degenerate cell"
            )
            assert grid.shard_id_of(cell.center) == shard_id


class TestOverlapQueries:
    @given(grids(), probed_rectangles())
    @example(
        ShardGrid(BOUNDS, 2, 2),
        (NEGATIVE_ZERO_REGION, [(0.0, 0.0), (-0.0, -0.0), (5.0, 0.0), (2.5, -0.0), (0.0, -0.0)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_overlap_set_contains_every_interior_owner(self, grid, probed):
        region, inside = probed
        overlapping = list(grid.shard_ids_overlapping(region))
        assert overlapping == sorted(set(overlapping))  # ascending, duplicate-free
        for x, y in inside:
            assert region.contains_point(Point(x, y))
            assert grid.shard_id_of(Point(x, y)) in overlapping

    @given(points_inside(NEGATIVE_ZERO_REGION))
    @settings(max_examples=10, deadline=None)
    def test_points_can_be_drawn_from_a_negative_zero_region(self, inside):
        """The draw itself used to die (``InvalidArgument``) on this region."""
        assert all(NEGATIVE_ZERO_REGION.contains_point(Point(x, y)) for x, y in inside)

    @given(grids(), rectangles())
    @settings(max_examples=200, deadline=None)
    def test_overlapping_cells_really_intersect_the_region(self, grid, region):
        clamped = Rectangle(clamp(region.low, grid.bounds), clamp(region.high, grid.bounds))
        for shard_id in grid.shard_ids_overlapping(region):
            cell = cell_bounds(grid, shard_id)
            assert (
                cell.low.x <= clamped.high.x
                and clamped.low.x <= cell.high.x
                and cell.low.y <= clamped.high.y
                and clamped.low.y <= cell.high.y
            ), f"shard {shard_id} cell {cell} does not touch clamped region {clamped}"


class TestShardLayout:
    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=200, deadline=None)
    def test_layout_is_the_most_square_factorisation(self, num_shards):
        rows, cols = shard_layout(num_shards)
        assert rows * cols == num_shards and rows <= cols
        # No divisor lies strictly between ``rows`` and the square root.
        assert not any(
            num_shards % divisor == 0
            for divisor in range(rows + 1, math.isqrt(num_shards) + 1)
        )

    @pytest.mark.parametrize("num_shards", [2, 3, 7, 13])
    def test_a_prime_count_is_a_row_of_full_height_stripes(self, num_shards):
        grid = make_coordinator(num_shards).router.grid
        assert (grid.rows, grid.cols) == (1, num_shards)
        cells = [cell_bounds(grid, shard_id) for shard_id in range(num_shards)]
        for cell in cells:
            assert (cell.low.y, cell.high.y) == (0.0, 1000.0)
        assert cells[-1].high.x == 1000.0
        assert [cell.width for cell in cells] == pytest.approx(
            [1000.0 / num_shards] * num_shards
        )

    def test_bad_counts_are_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_layout(0)
        with pytest.raises(ConfigurationError):
            ShardGrid(BOUNDS, 0, 3)


#: Every key ``shard_statistics()`` reports, on every shard count.
STATISTICS_KEYS = {
    "num_shards",
    "total_records",
    "max_shard_records",
    "min_shard_records",
    "mean_shard_records",
    "imbalance",
    "straddling_paths",
    "pools_total",
    "pools_reused",
    "pools_rebuilt",
    "chains_rewelded",
    "chains_reused",
    "fragments_added",
    "fragments_removed",
    "expiry_coalesced",
    "corridors_patched",
    "corridors_reused",
}


class TestStatisticsSchema:
    @pytest.mark.parametrize("epoch_mode", ["delta", "full"])
    @pytest.mark.parametrize("num_shards", [1, 3, 4, 7, 16])
    def test_the_key_set_is_exact(self, num_shards, epoch_mode):
        coordinator = make_coordinator(num_shards, epoch_mode=epoch_mode)
        try:
            for boundary, states in synthetic_stream(5, epochs=3, per_epoch=16):
                for state in states:
                    coordinator.submit_state(state)
                coordinator.run_epoch(boundary)
            stats = coordinator.shard_statistics()
        finally:
            coordinator.close()
        assert coordinator.router.grid.num_shards == num_shards
        assert sorted(stats) == sorted(STATISTICS_KEYS)
        assert stats["num_shards"] == num_shards
        assert stats["total_records"] == coordinator.index_size() > 0


class TestSingleShardDeltaStatistics:
    """The delta counters of ``shard_statistics()`` are the pool cache's and
    the stitcher's live lifetime totals, the same at every shard count — not
    hardcoded zeros (and ``total_records`` is an int, not a float)."""

    @staticmethod
    def _stream() -> List[Tuple[int, List[ObjectState]]]:
        def state(object_id: int, x: float, y: float, t_end: int) -> ObjectState:
            return ObjectState(
                object_id,
                Point(x, y),
                t_end - 5,
                Point(x - 40.0, y - 40.0),
                Point(x + 40.0, y + 40.0),
                t_end,
            )

        first = [state(1, 200.0, 200.0, 10), state(2, 230.0, 230.0, 10)]
        # Epoch 2 repeats epoch 1's FSA pool verbatim (cache hit); epoch 3
        # extends it with one more reporter (a miss); epoch 4 is new.
        second = [state(1, 200.0, 200.0, 20), state(2, 230.0, 230.0, 20)]
        third = second + [state(3, 215.0, 215.0, 20)]
        fourth = [state(4, 700.0, 700.0, 30)]
        return [(10, first), (20, second), (30, [s for s in third]), (40, fourth)]

    def test_counters_match_a_one_shard_fleet(self):
        coordinator = make_coordinator(1, epoch_mode="delta")
        fleet = make_coordinator(16, epoch_mode="delta")
        for boundary, states in self._stream():
            for state in states:
                coordinator.submit_state(state)
                fleet.submit_state(state)
            coordinator.run_epoch(boundary)
            fleet.run_epoch(boundary)

        single = coordinator.shard_statistics()
        sharded = fleet.shard_statistics()
        for key in ("pools_total", "pools_reused", "pools_rebuilt"):
            assert single[key] == sharded[key], key
            assert isinstance(single[key], int), key
        # The stream above must actually exercise both outcomes — a counter
        # stuck at zero would satisfy equality vacuously.  Epoch 4's lone
        # reporter overlaps nothing, so it is a singleton, not a pool.
        assert single["pools_total"] == 3
        assert single["pools_reused"] == 1
        assert single["pools_rebuilt"] == 2

    def test_fallback_schema_types_match_the_sharded_path(self):
        coordinator = make_coordinator(1, epoch_mode="delta")
        for boundary, states in self._stream():
            for state in states:
                coordinator.submit_state(state)
            coordinator.run_epoch(boundary)
        stats = coordinator.shard_statistics()
        for key in ("num_shards", "total_records", "max_shard_records", "min_shard_records"):
            assert isinstance(stats[key], int), key
        assert isinstance(stats["mean_shard_records"], float)
        assert stats["total_records"] == len(coordinator.index)
        assert stats["mean_shard_records"] == float(len(coordinator.index))

    def test_full_mode_single_shard_reports_zero_pool_counters(self):
        coordinator = make_coordinator(1, epoch_mode="full")
        for boundary, states in self._stream():
            for state in states:
                coordinator.submit_state(state)
            coordinator.run_epoch(boundary)
        stats = coordinator.shard_statistics()
        assert stats["pools_total"] == 0
        assert stats["pools_reused"] == 0


class TestShardStatistics:
    """Satellite audit: straddling paths are counted once."""

    def test_straddling_paths_are_not_double_counted(self):
        coordinator = make_coordinator(4)
        # Three straddling paths (across the 2x2 borders), two local ones.
        straddling = [
            MotionPath(Point(100.0, 100.0), Point(900.0, 100.0)),
            MotionPath(Point(100.0, 900.0), Point(900.0, 900.0)),
            MotionPath(Point(100.0, 100.0), Point(900.0, 900.0)),
        ]
        local = [
            MotionPath(Point(50.0, 50.0), Point(150.0, 150.0)),
            MotionPath(Point(850.0, 850.0), Point(950.0, 950.0)),
        ]
        for path in straddling + local:
            coordinator.index.insert(path.start, path.end)
        stats = coordinator.shard_statistics()
        # Every path contributes exactly one record, to its start owner.
        assert stats["total_records"] == 5
        assert (stats["min_shard_records"], stats["max_shard_records"]) == (0, 3)
        assert stats["straddling_paths"] == 3

    def test_imbalance_signal_reflects_skew(self):
        coordinator = make_coordinator(4)
        rng = random.Random(3)
        for _ in range(30):
            start = Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
            end = Point(start.x + 5.0, start.y + 5.0)
            coordinator.index.insert(start, end)
        stats = coordinator.shard_statistics()
        assert stats["imbalance"] == pytest.approx(4.0)  # all load on one of 4 shards
        assert make_coordinator(4).shard_statistics()["imbalance"] == 1.0


class TestExpiryDrain:
    """Expiry leaves nothing behind in the labels: the diagnostics count the
    live records only, over long windowed replays."""

    @pytest.mark.parametrize("num_shards", [3, 4, 7, 16])
    def test_no_straddler_outlives_its_expiry_over_long_replays(self, num_shards):
        """After every epoch of a long windowed replay, ``straddling_paths``
        and ``total_records`` count exactly the live paths, tracked here from
        each epoch's inserted and deleted ids — an expired straddler must
        never linger (it would inflate imbalance and the stitch report)."""
        coordinator = make_coordinator(num_shards, window=30, epoch_mode="delta")
        grid = coordinator.router.grid
        live = {}
        expired_total = 0
        saw_straddling = False
        try:
            for boundary, states in synthetic_stream(19, epochs=25, per_epoch=16):
                for state in states:
                    coordinator.submit_state(state)
                outcome = coordinator.run_epoch(boundary)
                expired_total += outcome.paths_expired
                for path_id in outcome.delta.deleted:
                    del live[path_id]
                for path_id in outcome.delta.inserted:
                    live[path_id] = coordinator.index.get(path_id)
                straddling = sum(
                    grid.shard_id_of(path.start) != grid.shard_id_of(path.end)
                    for path in live.values()
                )
                stats = coordinator.shard_statistics()
                assert (stats["total_records"], stats["straddling_paths"]) == (
                    len(live),
                    straddling,
                ), f"a label leaked at epoch boundary {boundary}"
                saw_straddling = saw_straddling or straddling > 0
        finally:
            coordinator.close()
        assert expired_total > 0, "window never slid — the regression is vacuous"
        assert saw_straddling, "no straddling path ever existed — vacuous"

    def test_everything_expired_means_no_straddlers(self):
        """Once the stream stops and the window passes, nothing is labelled."""
        coordinator = make_coordinator(4, window=20)
        try:
            for boundary, states in synthetic_stream(23, epochs=5, per_epoch=16):
                for state in states:
                    coordinator.submit_state(state)
                coordinator.run_epoch(boundary)
            assert coordinator.shard_statistics()["straddling_paths"] > 0
            coordinator.run_epoch(10_000)  # slide the window past everything
            stats = coordinator.shard_statistics()
            assert (stats["total_records"], stats["straddling_paths"]) == (0, 0)
            assert coordinator.index_size() == 0
            assert coordinator.hot_corridors() == []
            assert coordinator.router.stitch_stats["boundary_welds"] == 0
        finally:
            coordinator.close()
