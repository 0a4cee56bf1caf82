"""Rebalance-protocol and shard-statistics/ledger regression suite.

Three layers:

* :class:`TestRebalanceMigration` — the migration itself preserves every
  observable (records, ids, hotness counters, pending expiry events,
  boundary ledgers) while moving state onto the new partition and skips
  no-op refits;
* :class:`TestShardStatistics` — the satellite audit: per-shard load counts
  never double-count boundary-straddling paths (visible from both endpoint
  shards via ``boundary_ledger_of``);
* :class:`TestLedgerDrain` — the satellite leak regression: window slides
  that expire straddling paths must drop their ledger entries in the same
  epoch's deferred drain, over long replays and forced rebalances (a leak
  inflates imbalance statistics and stitch work).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.partition import KdSplitPartition, UniformGridPartition
from repro.coordinator.sharding import ShardRouter

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


def make_router(num_shards: int = 4, window: int = 60, **kwargs) -> ShardRouter:
    return ShardRouter(
        CoordinatorConfig(
            bounds=BOUNDS, window=window, cells_per_axis=32, num_shards=num_shards, **kwargs
        )
    )


def insert_walk(router: ShardRouter, seed: int, walks: int = 12, steps: int = 6) -> None:
    """Chained random-walk paths crossing shard borders, with crossings."""
    rng = random.Random(seed)
    timestamp = 0
    for _walk in range(walks):
        point = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        for _step in range(steps):
            target = Point(
                min(max(point.x + rng.uniform(-300.0, 300.0), 0.0), 1000.0),
                min(max(point.y + rng.uniform(-300.0, 300.0), 0.0), 1000.0),
            )
            if target == point:
                continue
            record = router.insert(MotionPath(point, target), created_at=timestamp)
            router.hotness.record_crossing(record.path_id, timestamp)
            point = target
        timestamp += 1


def router_snapshot(router: ShardRouter) -> Dict:
    """Canonical partition-independent snapshot of all router state."""
    return {
        "records": sorted(
            (record.path_id, record.path.start.as_tuple(), record.path.end.as_tuple(), record.created_at)
            for record in router.index.records
        ),
        "hotness": sorted(router.hotness.items()),
        "pending_events": router.hotness.pending_events,
        "owners": sorted(router.owners),
    }


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


class TestRebalanceMigration:
    def test_migration_preserves_every_observable(self):
        router = make_router(4)
        insert_walk(router, seed=3)
        before = router_snapshot(router)
        straddling_before = live_straddling(router)
        partition = KdSplitPartition.fit(BOUNDS, 4, router._endpoint_samples())
        assert router.rebalance(partition) is True
        assert router.grid is partition
        assert router.rebalances == 1
        assert router_snapshot(router) == before
        # The ledger is *recomputed*, not preserved: same straddling set
        # under the new ownership geometry.
        assert ledger_paths(router) == live_straddling(router)
        # Straddling ground truth is partition-dependent, but every
        # pre-migration path is still resolvable from both endpoint shards.
        for path_id in straddling_before:
            assert path_id in router.owners

    def test_migrated_fleet_keeps_serving_epochs(self):
        router = make_router(4)
        insert_walk(router, seed=5)
        router.rebalance(KdSplitPartition.fit(BOUNDS, 4, router._endpoint_samples()))
        states = [
            ObjectState(7, Point(100.0, 100.0), 0, Point(60.0, 60.0), Point(140.0, 140.0), 5),
            ObjectState(9, Point(900.0, 150.0), 0, Point(860.0, 110.0), Point(940.0, 190.0), 6),
        ]
        result = router.pipeline.process_epoch(states)
        assert len(result.responses) == 2

    def test_hotness_and_expiry_survive_migration(self):
        """Counters and pending events follow their path's new owner, and the
        window keeps sliding correctly after the move."""
        router = make_router(4, window=10)
        first = router.insert(MotionPath(Point(100.0, 100.0), Point(600.0, 600.0)))
        second = router.insert(MotionPath(Point(800.0, 800.0), Point(900.0, 900.0)))
        router.hotness.record_crossing(first.path_id, 1)   # expires at 11
        router.hotness.record_crossing(first.path_id, 5)   # expires at 15
        router.hotness.record_crossing(second.path_id, 2)  # expires at 12
        router.rebalance(KdSplitPartition.fit(BOUNDS, 4, router._endpoint_samples()))
        assert router.hotness.hotness(first.path_id) == 2
        assert router.hotness.hotness(second.path_id) == 1
        assert router.hotness.pending_events == 3
        assert sorted(router.hotness.advance_time(12)) == [second.path_id]
        assert router.hotness.hotness(first.path_id) == 1
        assert sorted(router.hotness.advance_time(20)) == [first.path_id]

    def test_orphan_hotness_stays_with_its_shard(self):
        """A hotness entry without a live record (direct index manipulation)
        must survive migration so its expiry events keep draining."""
        router = make_router(4, window=10)
        record = router.insert(MotionPath(Point(100.0, 100.0), Point(150.0, 150.0)))
        router.hotness.record_crossing(record.path_id, 1)
        router.index.delete(record.path_id)  # hotness entry now orphaned
        router.rebalance(KdSplitPartition.fit(BOUNDS, 4, [(100.0, 100.0)]))
        # The facade reports 0 for ownerless paths (pre-existing semantics),
        # but the counter and its event must still live on *some* shard so
        # the expiry pop pairs up instead of raising.
        assert sum(s.hotness.hotness(record.path_id) for s in router.shards) == 1
        assert router.hotness.pending_events == 1
        assert sorted(router.hotness.advance_time(30)) == [record.path_id]

    def test_orphan_expiry_survives_back_to_back_elastic_shrinks(self):
        """Satellite regression: an orphaned hotness entry (no live record)
        whose fallback owner changes *twice* across back-to-back migrations
        — each a shrink that removes the entry's previous shard position —
        must keep its counter and pending expiry event paired on one shard
        so the window keeps draining.  The old fallback indexed
        ``shards[previous_shard]`` verbatim, an IndexError once the fleet
        shrank below that position."""
        router = make_router(4, window=10, elastic="auto")
        live = router.insert(MotionPath(Point(100.0, 100.0), Point(900.0, 900.0)))
        router.hotness.record_crossing(live.path_id, 2)
        # Orphan on the top-right shard: position 3 of the 2x2 layout.
        orphan = router.insert(MotionPath(Point(900.0, 900.0), Point(950.0, 950.0)))
        router.hotness.record_crossing(orphan.path_id, 1)
        router.index.delete(orphan.path_id)
        # Shrink 4 -> 3: position 3 is gone, the orphan clamps to shard 2.
        assert router.rebalance(UniformGridPartition(BOUNDS, 3, 1)) is True
        # Shrink 3 -> 2 back-to-back: position 2 is gone again.
        assert router.rebalance(UniformGridPartition(BOUNDS, 2, 1)) is True
        assert len(router.shards) == 2
        assert sum(s.hotness.hotness(orphan.path_id) for s in router.shards) == 1
        assert router.hotness.hotness(live.path_id) == 1
        assert router.hotness.pending_events == 2
        # Both expiry pops pair with their counters instead of raising.
        assert sorted(router.hotness.advance_time(30)) == sorted(
            [live.path_id, orphan.path_id]
        )
        assert router.hotness.pending_events == 0

    def test_orphan_expiry_survives_a_budgeted_shrink_handoff(self):
        """Same regression through the *incremental* path: the handoff of a
        budgeted shrink re-homes orphans with the same clamped fallback."""
        router = make_router(4, window=10, elastic="auto", migration_budget=2)
        rng = random.Random(41)
        for _ in range(6):  # enough records that warming spans boundaries
            start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            router.insert(MotionPath(start, Point(start.x + 5.0, start.y + 5.0)))
        orphan = router.insert(MotionPath(Point(900.0, 900.0), Point(950.0, 950.0)))
        router.hotness.record_crossing(orphan.path_id, 1)
        router.index.delete(orphan.path_id)
        assert router.rebalance(UniformGridPartition(BOUNDS, 2, 1)) is True
        assert router._migration is not None  # in flight, old fleet serving
        boundaries = 0
        while router._migration is not None:
            router.maybe_rebalance()
            boundaries += 1
            assert boundaries < 50, "budgeted shrink never handed off"
        assert boundaries > 1  # the budget actually spread the migration
        assert len(router.shards) == 2
        assert sum(s.hotness.hotness(orphan.path_id) for s in router.shards) == 1
        assert router.hotness.pending_events == 1
        assert sorted(router.hotness.advance_time(30)) == [orphan.path_id]

    def test_noop_refit_is_skipped(self):
        router = make_router(4, partition="kd")
        insert_walk(router, seed=7)
        partition = router.grid
        fitted = KdSplitPartition.fit(BOUNDS, 4, router._endpoint_samples())
        if fitted.describe() == partition.describe():
            assert router.rebalance() is False
            assert router.grid is partition
            assert router.rebalances == 0
        else:
            assert router.rebalance() is True
            # A second refit from the unchanged density must now be a no-op.
            assert router.rebalance() is False

    def test_rebalance_keeps_the_shard_count(self):
        router = make_router(4)
        with pytest.raises(ConfigurationError):
            router.rebalance(KdSplitPartition.fit(BOUNDS, 8))

    def test_mismatched_partition_bounds_rejected(self):
        other = Rectangle(Point(0.0, 0.0), Point(500.0, 500.0))
        router = make_router(4)
        with pytest.raises(ConfigurationError):
            router.rebalance(KdSplitPartition.fit(other, 4))

    def test_maybe_rebalance_only_fires_on_skewed_kd_fleets(self):
        uniform = make_router(4)
        insert_walk(uniform, seed=11)
        assert uniform.maybe_rebalance() is False  # uniform never auto-rebalances
        # ... not even after a manual migration put kd splits in place: the
        # configured layout, not the active partition, opts into auto mode.
        uniform.rebalance()
        assert uniform.grid.kind == "kd"
        assert uniform.maybe_rebalance() is False

        kd = make_router(4, partition="kd", rebalance_threshold=1.1)
        assert kd.maybe_rebalance() is False  # empty fleet: nothing to balance
        rng = random.Random(13)
        for _ in range(40):  # skewed: everything downtown
            start = Point(rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0))
            end = Point(rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0))
            if start != end:
                kd.insert(MotionPath(start, end))
        before = kd.shard_statistics()["imbalance"]
        assert before > 1.1
        assert kd.maybe_rebalance() is True
        after = kd.shard_statistics()["imbalance"]
        assert after < before

    def test_noop_refits_back_off_exponentially(self, monkeypatch):
        """A point mass keeps imbalance above any threshold but can never be
        split further: after the first rejected refit, subsequent epoch
        boundaries must skip the O(records log records) fit with an
        exponentially growing backoff instead of refitting every time."""
        router = make_router(4, partition="kd", rebalance_threshold=1.1)
        for _ in range(20):  # unsplittable: identical start vertices
            router.insert(MotionPath(Point(400.0, 400.0), Point(410.0, 410.0)))
        fits = []
        original_fit = KdSplitPartition.fit.__func__

        def counting_fit(cls, bounds, num_shards, points=()):
            fits.append(len(points))
            return original_fit(cls, bounds, num_shards, points)

        monkeypatch.setattr(KdSplitPartition, "fit", classmethod(counting_fit))
        assert router.shard_statistics()["imbalance"] > 1.1
        outcomes = [router.maybe_rebalance() for _ in range(16)]
        # The first boundary may genuinely migrate (density fit != the fresh
        # midpoint layout); every later refit reproduces the active splits.
        assert not any(outcomes[1:])
        assert router.rebalances <= 1
        # Backoff 1, 2, 4, 8 after each rejected fit: 16 boundaries see a
        # handful of fits instead of 16.
        assert 1 <= len(fits) <= 6

    def test_manual_rebalance_leaves_the_corridor_report_valid(self):
        """A migration moves state, never corridors: the report cached before
        a manual rebalance() is still the report of the migrated fleet."""
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS,
                window=10**6,
                cells_per_axis=32,
                num_shards=4,
                partition="kd",
            )
        )
        router = coordinator.router
        rng = random.Random(31)
        point = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        for _step in range(30):  # one long chain crossing many boundaries
            target = Point(
                min(max(point.x + rng.uniform(-250.0, 250.0), 0.0), 1000.0),
                min(max(point.y + rng.uniform(-250.0, 250.0), 0.0), 1000.0),
            )
            if target == point:
                continue
            record = router.insert(MotionPath(point, target))
            router.hotness.record_crossing(record.path_id, 0)
            point = target
        before = coordinator.hot_corridors()
        assert coordinator.hot_corridors() is before  # cached
        assert router.rebalance(
            KdSplitPartition.fit(BOUNDS, 4, router._endpoint_samples())
        )
        assert coordinator.hot_corridors() is before  # still cached ...
        assert [c.path_ids for c in router.stitch_epoch()] == [  # ... and still right
            c.path_ids for c in before
        ]
        coordinator.close()

    def test_coordinator_config_validates_partition_knobs(self):
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(bounds=BOUNDS, partition="voronoi")
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(bounds=BOUNDS, partition="kd", rebalance_threshold=1.0)

    def test_single_shard_statistics_report_partition_fields(self):
        coordinator = Coordinator(CoordinatorConfig(bounds=BOUNDS))
        stats = coordinator.shard_statistics()
        assert stats["imbalance"] == 1.0
        assert stats["rebalances"] == 0


class TestSingleShardDeltaStatistics:
    """Satellite regression: the single-shard ``shard_statistics`` fallback
    must reconcile the delta counters with the sharded path.

    A single-shard coordinator runs its one overlap pool per epoch through
    the same :class:`~repro.coordinator.overlaps.OverlapPoolCache`
    resolve/store protocol a fleet uses, so its ``pools_*`` counters must
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
        # counter stuck at zero would satisfy equality vacuously.
        assert single["pools_total"] == 4
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
        """States whose FSAs hop across the 2x2/4x4 borders so the decided
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

    @pytest.mark.parametrize("partition", ["uniform", "kd"])
    def test_no_ledger_leak_over_long_replays(self, partition):
        """After every epoch of a long windowed replay, the ledger holds
        exactly the live straddling paths — an expired straddler must never
        linger (leaks inflate imbalance statistics and stitch work)."""
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS,
                window=30,
                cells_per_axis=32,
                num_shards=4,
                partition=partition,
                rebalance_threshold=1.2,
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

    def test_ledger_drains_across_a_forced_rebalance(self):
        """Expiry after a migration drains entries keyed under the *new*
        partition's ownership pairs."""
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS, window=30, cells_per_axis=32, num_shards=4, partition="kd"
            )
        )
        router = coordinator.router
        stream = self.feedback_stream(seed=29, epochs=12)
        for index, (boundary, states) in enumerate(stream):
            for state in states:
                coordinator.submit_state(state)
            coordinator.run_epoch(boundary)
            if index == 5:
                router.rebalance(
                    KdSplitPartition.fit(BOUNDS, 4, router._endpoint_samples())
                )
            assert ledger_paths(router) == live_straddling(router)
        coordinator.run_epoch(10_000)
        assert router.boundary_ledger == {}
        coordinator.close()
