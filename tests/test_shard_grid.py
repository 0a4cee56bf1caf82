"""The fixed shard grid, shard statistics and boundary-ledger regressions.

Four layers:

* :class:`TestPlaneCover` / :class:`TestOverlapQueries` — hypothesis
  properties of :class:`~repro.coordinator.partition.ShardGrid` the router's
  exactness contract rests on: every point has exactly one owner whose cell
  contains it, the cells tile the bounds, and region queries never miss an
  owner; :class:`TestShardLayout` pins the R x C factorisation, prime counts
  (1 x 3, 1 x 7 stripes) included;
* :class:`TestShardStatistics` / :class:`TestStatisticsSchema` — per-shard
  load counts never double-count boundary-straddling paths (visible from
  both endpoint shards via ``boundary_ledger_of``), and ``shard_statistics()``
  has one exact key set on the single-shard fallback and on every fleet;
* :class:`TestSingleShardDeltaStatistics` — the fallback's delta counters
  reconcile with a 1-shard fleet's;
* :class:`TestLedgerDrain` — window slides that expire straddling paths must
  drop their ledger entries in the same epoch's deferred drain, over long
  replays (a leak inflates imbalance statistics and stitch work).
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
from repro.coordinator.sharding import ShardRouter

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))

coordinates = st.floats(min_value=-200.0, max_value=1200.0)
shard_counts = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16])


def make_router(num_shards: int = 4, window: int = 60, **kwargs) -> ShardRouter:
    return ShardRouter(
        CoordinatorConfig(
            bounds=BOUNDS, window=window, cells_per_axis=32, num_shards=num_shards, **kwargs
        )
    )


def live_straddling(router: ShardRouter) -> List[int]:
    """Ground truth: live paths whose endpoints have different owners."""
    return sorted(
        path_id
        for path_id, shard in router.owners.items()
        if router.shard_of(shard.index.get(path_id).path.end) is not shard
    )


def ledger_paths(router: ShardRouter) -> List[int]:
    return sorted(
        path_id for entries in router.boundary_ledger.values() for path_id in entries
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


class TestPlaneCover:
    @given(grids(), st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_every_point_has_exactly_one_owner_whose_cell_contains_it(self, grid, points):
        for x, y in points:
            shard_id = grid.shard_id_of(Point(x, y))
            assert 0 <= shard_id < grid.num_shards
            cell = grid.shard_bounds(shard_id)
            clamped = clamp(Point(x, y), grid.bounds)
            assert cell.contains_point(clamped), (
                f"shard {shard_id} cell {cell} does not contain clamped point {clamped}"
            )

    @given(grids())
    @settings(max_examples=100, deadline=None)
    def test_cells_tile_the_bounds(self, grid):
        total_area = sum(
            grid.shard_bounds(shard_id).area for shard_id in range(grid.num_shards)
        )
        assert total_area == pytest.approx(grid.bounds.area, rel=1e-9)
        for shard_id in range(grid.num_shards):
            cell = grid.shard_bounds(shard_id)
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
            cell = grid.shard_bounds(shard_id)
            assert (
                cell.low.x <= clamped.high.x
                and clamped.low.x <= cell.high.x
                and cell.low.y <= clamped.high.y
                and clamped.low.y <= cell.high.y
            ), f"shard {shard_id} cell {cell} does not touch clamped region {clamped}"

    @given(grids(), rectangles())
    @settings(max_examples=200, deadline=None)
    def test_single_shard_fast_path_matches_overlap_set(self, grid, region):
        single = grid.single_shard_of(region)
        overlapping = list(grid.shard_ids_overlapping(region))
        if single is not None:
            assert overlapping == [single]
        else:
            assert grid.num_shards > 1


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
        router = make_router(num_shards)
        assert (router.grid.rows, router.grid.cols) == (1, num_shards)
        for shard in router.shards:
            assert (shard.bounds.low.y, shard.bounds.high.y) == (0.0, 1000.0)
            # One row: every stripe keeps the global grid's resolution.
            assert shard.index.config.cells_per_axis == 32
        assert router.shards[-1].bounds.high.x == 1000.0
        assert [shard.bounds.width for shard in router.shards] == pytest.approx(
            [1000.0 / num_shards] * num_shards
        )

    def test_bad_counts_are_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_layout(0)
        with pytest.raises(ConfigurationError):
            ShardGrid(BOUNDS, 0, 3)


#: Every key ``shard_statistics()`` reports, on the fallback and on a fleet.
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
    "pools_prefix_reused",
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
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS,
                window=60,
                cells_per_axis=32,
                num_shards=num_shards,
                epoch_mode=epoch_mode,
            )
        )
        try:
            for boundary, states in TestLedgerDrain.feedback_stream(seed=5, epochs=3):
                for state in states:
                    coordinator.submit_state(state)
                coordinator.run_epoch(boundary)
            stats = coordinator.shard_statistics()
        finally:
            coordinator.close()
        assert (coordinator.router is None) == (num_shards == 1)
        assert sorted(stats) == sorted(STATISTICS_KEYS)
        assert stats["num_shards"] == num_shards
        assert stats["total_records"] == coordinator.index_size() > 0


class TestSingleShardDeltaStatistics:
    """Satellite regression: the single-shard ``shard_statistics`` fallback
    must reconcile the delta counters with the sharded path.

    A single-shard coordinator runs its overlap pools through the same
    :class:`~repro.coordinator.overlaps.OverlapPoolCache` resolve/store
    protocol a fleet uses, so its ``pools_*`` counters must
    equal a 1-shard fleet's over the same stream — previously they were
    hardcoded zeros (and ``total_records`` leaked out as a float).
    """

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
        # extends it with one more reporter (prefix hit); epoch 4 is new.
        second = [state(1, 200.0, 200.0, 20), state(2, 230.0, 230.0, 20)]
        third = second + [state(3, 215.0, 215.0, 20)]
        fourth = [state(4, 700.0, 700.0, 30)]
        return [(10, first), (20, second), (30, [s for s in third]), (40, fourth)]

    def test_counters_match_a_one_shard_fleet(self):
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS, window=60, cells_per_axis=32, epoch_mode="delta"
            )
        )
        fleet = make_router(1)
        for boundary, states in self._stream():
            for state in states:
                coordinator.submit_state(state)
            coordinator.run_epoch(boundary)
            for path_id in fleet.hotness.advance_time(boundary):
                if path_id in fleet.index:
                    fleet.index.delete(path_id)
            fleet.pipeline.process_epoch(states)

        single = coordinator.shard_statistics()
        sharded = fleet.shard_statistics()
        for key in (
            "pools_total",
            "pools_reused",
            "pools_prefix_reused",
            "pools_rebuilt",
        ):
            assert single[key] == sharded[key], key
            assert isinstance(single[key], int), key
        # The stream above must actually exercise all three outcomes — a
        # counter stuck at zero would satisfy equality vacuously.  Epoch 4's
        # lone reporter overlaps nothing, so it is a singleton, not a pool.
        assert single["pools_total"] == 3
        assert single["pools_reused"] >= 1
        assert single["pools_prefix_reused"] >= 1
        assert single["pools_rebuilt"] >= 1
        assert (
            single["pools_total"]
            == single["pools_reused"]
            + single["pools_prefix_reused"]
            + single["pools_rebuilt"]
        )

    def test_fallback_schema_types_match_the_sharded_path(self):
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS, window=60, cells_per_axis=32, epoch_mode="delta"
            )
        )
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
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS, window=60, cells_per_axis=32, epoch_mode="full"
            )
        )
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
        router = make_router(4)
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
            router.insert(path)
        stats = router.shard_statistics()
        # Every path contributes exactly one record to exactly one shard,
        # even though the end owner of a straddler also indexes an entry.
        assert stats["total_records"] == 5
        assert sum(len(shard.index) for shard in router.shards) == 5
        assert stats["straddling_paths"] == 3
        assert len(live_straddling(router)) == 3
        # Both endpoint shards see a straddler through the ledger view —
        # the sum over per-shard views is 2x the ledger, never the stats.
        views = sum(len(router.boundary_ledger_of(s.shard_id)) for s in router.shards)
        assert views == 2 * stats["straddling_paths"]

    def test_imbalance_signal_reflects_skew(self):
        router = make_router(4)
        rng = random.Random(3)
        for _ in range(30):
            start = Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
            end = Point(start.x + 5.0, start.y + 5.0)
            router.insert(MotionPath(start, end))
        stats = router.shard_statistics()
        assert stats["imbalance"] == pytest.approx(4.0)  # all load on one of 4 shards
        empty = make_router(4)
        assert empty.shard_statistics()["imbalance"] == 1.0


class TestLedgerDrain:
    """Satellite leak regression: expiry must drain straddling ledger entries."""

    @staticmethod
    def feedback_stream(seed: int, epochs: int, per_epoch: int = 16):
        """States whose FSAs hop across the grid borders so the decided
        paths straddle often; objects re-report from fresh spots, so old
        paths go cold and expire as the window slides."""
        rng = random.Random(seed)
        stream = []
        for epoch in range(1, epochs + 1):
            boundary = epoch * 10
            states = []
            for _ in range(per_epoch):
                start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
                centre = Point(
                    start.x + rng.uniform(-260.0, 260.0),
                    start.y + rng.uniform(-260.0, 260.0),
                )
                fsa = Rectangle.from_center(centre, rng.uniform(10.0, 120.0))
                t_end = boundary - rng.randrange(10)
                states.append(
                    ObjectState(
                        rng.randrange(per_epoch * 2),
                        start,
                        max(0, t_end - 5),
                        fsa.low,
                        fsa.high,
                        t_end,
                    )
                )
            stream.append((boundary, states))
        return stream

    @pytest.mark.parametrize("num_shards", [3, 4, 7, 16])
    def test_no_ledger_leak_over_long_replays(self, num_shards):
        """After every epoch of a long windowed replay, the ledger holds
        exactly the live straddling paths — an expired straddler must never
        linger (leaks inflate imbalance statistics and stitch work)."""
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS,
                window=30,
                cells_per_axis=32,
                num_shards=num_shards,
            )
        )
        router = coordinator.router
        expired_total = 0
        saw_straddling = False
        for boundary, states in self.feedback_stream(seed=19, epochs=25):
            for state in states:
                coordinator.submit_state(state)
            outcome = coordinator.run_epoch(boundary)
            expired_total += outcome.paths_expired
            assert ledger_paths(router) == live_straddling(router), (
                f"ledger leaked at epoch boundary {boundary}"
            )
            saw_straddling = saw_straddling or bool(ledger_paths(router))
        assert expired_total > 0, "window never slid — the regression is vacuous"
        assert saw_straddling, "no straddling path ever existed — vacuous"
        coordinator.close()

    def test_everything_expired_means_empty_ledger(self):
        """Once the stream stops and the window passes, the ledger is empty."""
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=20, cells_per_axis=32, num_shards=4)
        )
        for boundary, states in self.feedback_stream(seed=23, epochs=5):
            for state in states:
                coordinator.submit_state(state)
            coordinator.run_epoch(boundary)
        coordinator.run_epoch(10_000)  # slide the window past everything
        assert coordinator.router.boundary_ledger == {}
        assert coordinator.router.shard_statistics()["straddling_paths"] == 0
        assert coordinator.index_size() == 0
        coordinator.close()
