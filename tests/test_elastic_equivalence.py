"""Differential harness for the elastic shard fleet (``--elastic auto``).

The elastic controller may grow, shrink or refit the fleet at any epoch
boundary — and with ``--migration-budget`` it spreads each migration over
several boundaries, double-reading from the outgoing fleet while the
incoming one warms.  None of that may ever change an answer: **placement is
an implementation detail**, so every elastic run must stay bit-for-bit
equal to the seed single-shard coordinator.  Three layers:

* :class:`TestElasticMatrix` — the acceptance matrix: forced grow (split
  the hottest shard) and forced shrink (merge a sibling pair) mid-replay,
  stop-the-world *and* budgeted, across all execution backends, both epoch
  modes and both geometry kernels, every epoch compared exactly against the
  seed trace — plus a worker kill while a budgeted migration is in flight;
* :class:`TestCostModel` — the controller's decisions: split/merge
  hysteresis (two consecutive boundaries of evidence), the unconditional
  grow-to-the-``min_shards``-floor, and cap/floor enforcement;
* :class:`TestBudgetedMigration` — the protocol itself: bounded warming
  per boundary, convergence in ``ceil(records / budget)`` boundaries even
  under insert churn, deletions unwinding warmed records, and the
  handed-off state being *identical* to what a stop-the-world migration to
  the same partition produces.

Streams reuse the sharding-equivalence generators (8 epochs x 30 states).
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.sharding import ShardRouter
from test_sharding_equivalence import (
    BOUNDS,
    drive,
    index_snapshot,
    make_coordinator,
    skewed_stream,
    synthetic_stream,
)

GROW_AT, SHRINK_AT = 2, 5


def make_elastic_coordinator(
    num_shards: int = 4,
    backend: str = "serial",
    epoch_mode: str = "delta",
    kernel: str = "columnar",
    migration_budget: int = 0,
    min_shards: int = None,
    max_shards: int = 9,
    partition: str = "uniform",
) -> Coordinator:
    return Coordinator(
        CoordinatorConfig(
            bounds=BOUNDS,
            window=60,
            cells_per_axis=32,
            num_shards=num_shards,
            backend=backend,
            partition=partition,
            epoch_mode=epoch_mode,
            kernel=kernel,
            elastic="auto",
            migration_budget=migration_budget,
            min_shards=min_shards,
            max_shards=max_shards,
        )
    )


def drive_elastic(coordinator: Coordinator, stream, fault=None):
    """Like the sharding harness's ``drive``, plus per-epoch faults and the
    final shard statistics (read before the coordinator closes)."""
    trace = []
    stats: Dict = {}
    try:
        for index, (boundary, states) in enumerate(stream):
            if fault is not None:
                fault(coordinator, index)
            for state in states:
                coordinator.submit_state(state)
            outcome = coordinator.run_epoch(boundary)
            trace.append(
                {
                    "responses": outcome.responses,
                    "states_processed": outcome.states_processed,
                    "paths_inserted": outcome.paths_inserted,
                    "paths_reused": outcome.paths_reused,
                    "paths_expired": outcome.paths_expired,
                    "snapshot": index_snapshot(coordinator),
                }
            )
        stats.update(coordinator.shard_statistics())
    finally:
        coordinator.close()
    return trace, stats


def grow_and_shrink(coordinator: Coordinator, index: int) -> None:
    """The forced elastic actions of the acceptance matrix."""
    router = coordinator.router
    if index == GROW_AT:
        # Forced elastic action: split the hottest shard (chaos
        # force_rebalance takes exactly this path).
        assert router.rebalance() is True
    elif index == SHRINK_AT:
        if router._migration is not None:
            router._complete_migration()
        pairs = router.grid.mergeable_pairs()
        assert pairs, "a grown fleet must expose sibling pairs"
        assert router.rebalance(router.grid.merge(*pairs[0])) is True


@pytest.fixture(scope="module")
def seed_trace():
    """The seed single-shard trace every elastic run must reproduce."""
    return drive(make_coordinator(1), skewed_stream(seed=42))


class TestElasticMatrix:
    """Acceptance: elastic grow + shrink forced mid-replay stays bit-for-bit
    equal to the seed across backends x epoch modes x kernels."""

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("epoch_mode", ["full", "delta"])
    @pytest.mark.parametrize("kernel", ["object", "columnar"])
    @pytest.mark.parametrize("budget", [0, 7])
    def test_grow_and_shrink_mid_replay(
        self, backend, epoch_mode, kernel, budget, seed_trace
    ):
        trace, stats = drive_elastic(
            make_elastic_coordinator(
                backend=backend,
                epoch_mode=epoch_mode,
                kernel=kernel,
                migration_budget=budget,
            ),
            skewed_stream(seed=42),
            fault=grow_and_shrink,
        )
        for epoch, (actual, expected) in enumerate(zip(trace, seed_trace)):
            assert actual == expected, (
                f"elastic fleet diverged from seed at epoch {epoch} "
                f"(backend={backend}, epoch_mode={epoch_mode}, "
                f"kernel={kernel}, budget={budget})"
            )
        # The run really migrated: the forced grow and shrink both landed
        # (auto cost-model actions may add more on this skewed stream).
        assert stats["rebalances"] >= 2 or stats["elastic_migrations"] >= 2
        if budget:
            assert stats["elastic_migrations"] >= 1
            assert stats["records_migrated"] > 0

    def test_worker_kill_during_inflight_budgeted_migration(self, seed_trace):
        """A process worker dies while the incoming fleet is still warming:
        its replacement needs nothing of either fleet and the replay stays
        exact."""
        observed = {"active_when_killed": False}

        def fault(coordinator: Coordinator, index: int) -> None:
            router = coordinator.router
            if index == GROW_AT:
                assert router.rebalance() is True
                assert router._migration is not None  # budgeted: in flight
            elif index == GROW_AT + 1:
                observed["active_when_killed"] = router._migration is not None
                backend = router.pipeline.backend
                backend.kill_worker(0)
                assert not backend.workers_alive()[0]

        trace, stats = drive_elastic(
            make_elastic_coordinator(backend="processes", migration_budget=5),
            skewed_stream(seed=42),
            fault=fault,
        )
        assert observed["active_when_killed"], (
            "migration finished before the kill — the scenario is vacuous"
        )
        assert trace == seed_trace
        assert stats["elastic_migrations"] >= 1

    @pytest.mark.parametrize("budget", [0, 10])
    def test_grow_to_floor_on_the_uniform_stream(self, budget):
        """``min_shards`` above the boot count: the controller grows the
        fleet unconditionally, one split per boundary, without perturbing
        any answer on the boundary-stressing synthetic stream."""
        stream = synthetic_stream(seed=13)
        expected = drive(make_coordinator(1), stream)
        trace, stats = drive_elastic(
            make_elastic_coordinator(
                num_shards=4, min_shards=6, migration_budget=budget
            ),
            stream,
        )
        for epoch, (actual, exp) in enumerate(zip(trace, expected)):
            assert actual == exp, f"grow-to-floor diverged at epoch {epoch}"
        if budget:
            # One budgeted migration per proposal: by stream end the fleet
            # has grown at least once and is either at the floor or still
            # warming toward it — never stuck.
            assert stats["num_shards"] >= 5
            assert stats["num_shards"] == 6 or stats["migration_active"]
        else:
            assert stats["num_shards"] == 6


class TestCostModel:
    """The controller's split/merge/grow decisions, in isolation."""

    @staticmethod
    def make_router(num_shards: int = 4, **kwargs) -> ShardRouter:
        return ShardRouter(
            CoordinatorConfig(
                bounds=BOUNDS, window=60, cells_per_axis=32, num_shards=num_shards,
                elastic="auto", **kwargs
            )
        )

    @staticmethod
    def load_downtown(router: ShardRouter, count: int = 30, seed: int = 3) -> None:
        rng = random.Random(seed)
        for _ in range(count):
            start = Point(rng.uniform(0.0, 240.0), rng.uniform(0.0, 240.0))
            router.insert(MotionPath(start, Point(start.x + 5.0, start.y + 5.0)))

    def test_hot_shard_splits_only_after_patience(self):
        router = self.make_router(max_shards=9, rebalance_threshold=1.5)
        self.load_downtown(router)
        # Hysteresis: one over-threshold boundary is not evidence enough.
        assert router.maybe_rebalance() is False
        assert len(router.shards) == 4
        assert router.maybe_rebalance() is True
        assert len(router.shards) == 5
        assert router.grid.kind == "kd"  # first split converts uniform -> kd

    def test_split_respects_the_shard_cap(self):
        router = self.make_router(max_shards=4, min_shards=4, rebalance_threshold=1.5)
        self.load_downtown(router)
        for _ in range(4):
            assert router.maybe_rebalance() is False
        assert len(router.shards) == 4

    def test_cold_siblings_merge_only_after_patience(self):
        # At the cap, so the hot downtown shard cannot split; the empty
        # sibling pair on the cold side must merge instead.
        router = self.make_router(max_shards=4)
        self.load_downtown(router)
        assert router.maybe_rebalance() is False
        assert len(router.shards) == 4
        assert router.maybe_rebalance() is True
        assert len(router.shards) == 3
        # Every record survived the shrink.
        assert sum(len(shard.index) for shard in router.shards) == 30

    def test_merge_respects_the_shard_floor(self):
        router = self.make_router(max_shards=4, min_shards=4)
        self.load_downtown(router)
        for _ in range(4):
            assert router.maybe_rebalance() is False
        assert len(router.shards) == 4

    def test_grow_to_floor_is_unconditional(self):
        router = self.make_router(num_shards=2, min_shards=4)
        router.insert(MotionPath(Point(100.0, 100.0), Point(120.0, 120.0)))
        # One split per boundary, no patience, no load threshold.
        assert router.maybe_rebalance() is True
        assert len(router.shards) == 3
        assert router.maybe_rebalance() is True
        assert len(router.shards) == 4

    def test_empty_fleet_proposes_nothing(self):
        router = self.make_router(min_shards=6)
        for _ in range(3):
            assert router.maybe_rebalance() is False
        assert len(router.shards) == 4  # nothing to split against yet

    def test_decisions_ignore_wall_clock_noise(self):
        """Two routers fed identical streams but wildly different measured
        epoch seconds must make identical decisions: the cost model reads
        only stream-deterministic signals."""
        decisions = []
        for noise in (0.001, 37.0):
            router = self.make_router(max_shards=9, rebalance_threshold=1.5)
            self.load_downtown(router)
            outcome = []
            for _ in range(4):
                router.note_epoch_seconds(noise)
                outcome.append((router.maybe_rebalance(), router.grid.describe()))
            decisions.append(outcome)
        assert decisions[0] == decisions[1]

    def test_epoch_seconds_surface_in_statistics(self):
        router = self.make_router(max_shards=9)
        self.load_downtown(router, count=5)
        router.note_epoch_seconds(0.25)
        stats = router.shard_statistics()
        assert stats["max_shard_epoch_seconds"] > 0.0
        assert stats["mean_shard_epoch_seconds"] > 0.0
        assert stats["max_shard_epoch_seconds"] >= stats["mean_shard_epoch_seconds"]


def fleet_state(router: ShardRouter) -> Dict:
    """Canonical snapshot including *placement* (shard-by-shard contents)."""
    return {
        "grid": router.grid.describe(),
        "owners": sorted(
            (path_id, shard.shard_id) for path_id, shard in router.owners.items()
        ),
        "per_shard": [
            sorted(record.path_id for record in shard.index.records)
            for shard in router.shards
        ],
        "records": sorted(
            (
                record.path_id,
                record.path.start.as_tuple(),
                record.path.end.as_tuple(),
                record.created_at,
            )
            for record in router.index.records
        ),
        "hotness": sorted(router.hotness.items()),
        "pending_events": router.hotness.pending_events,
        "ledger": {
            key: sorted(entries) for key, entries in router.boundary_ledger.items()
        },
    }


class TestBudgetedMigration:
    """The incremental protocol: bounded, convergent, and handoff-exact."""

    @staticmethod
    def seeded_router(migration_budget: int) -> ShardRouter:
        router = ShardRouter(
            CoordinatorConfig(
                bounds=BOUNDS, window=60, cells_per_axis=32, num_shards=4,
                elastic="auto", migration_budget=migration_budget, max_shards=9,
            )
        )
        rng = random.Random(11)
        for step in range(24):
            start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            end = Point(
                min(max(start.x + rng.uniform(-300.0, 300.0), 0.0), 1000.0),
                min(max(start.y + rng.uniform(-300.0, 300.0), 0.0), 1000.0),
            )
            if end == start:
                continue
            record = router.insert(MotionPath(start, end))
            router.hotness.record_crossing(record.path_id, step % 5)
        return router

    def test_budget_bounds_the_per_boundary_work_and_converges(self):
        router = self.seeded_router(migration_budget=5)
        records = len(router.owners)
        assert router.rebalance() is True  # starts the migration
        assert router.migrations_started == 1
        assert router._migration is not None
        assert router.rebalances == 0  # not handed off yet
        boundaries = 0
        while router._migration is not None:
            router.maybe_rebalance()
            assert router.last_migration_moved <= 5  # no inserts: budget only
            boundaries += 1
            assert boundaries <= -(-records // 5), "missed the convergence bound"
        assert router.rebalances == 1
        assert len(router.shards) == 5
        assert router.records_migrated_total == records
        assert router.shard_statistics()["migration_active"] == 0.0

    def test_handoff_state_equals_stop_the_world(self):
        """The whole correctness argument in one assertion: after handoff,
        the budgeted fleet is *identical* — placement included — to a
        stop-the-world migration onto the same partition."""
        budgeted = self.seeded_router(migration_budget=4)
        immediate = self.seeded_router(migration_budget=0)
        target = budgeted.grid.split(2, budgeted._endpoint_samples())
        assert budgeted.rebalance(target) is True
        while budgeted._migration is not None:
            budgeted.maybe_rebalance()
        assert immediate.rebalance(target) is True
        assert fleet_state(budgeted) == fleet_state(immediate)

    def test_deletions_unwind_warmed_records(self):
        """Deleting a record mid-migration must remove it from the shadow
        fleet too — otherwise the handoff resurrects it."""
        router = self.seeded_router(migration_budget=6)
        assert router.rebalance() is True
        router.maybe_rebalance()  # warm one boundary's worth
        migration = router._migration
        assert migration is not None and migration.shadow_owners
        warmed_id = next(iter(migration.shadow_owners))
        survivors = len(router.owners) - 1
        router.delete(warmed_id)
        assert warmed_id not in migration.shadow_owners
        while router._migration is not None:
            router.maybe_rebalance()
        assert len(router.owners) == survivors
        assert warmed_id not in router.owners
        assert sorted(r.path_id for r in router.index.records) == sorted(
            router.owners
        )

    def test_churn_cannot_stall_the_migration(self):
        """Inserts during the migration are warmed *on top of* the budget
        (the churn top-up), so a stream inserting faster than the budget
        still converges within the pre-migration backlog bound."""
        router = self.seeded_router(migration_budget=3)
        backlog = len(router.owners)
        assert router.rebalance() is True
        rng = random.Random(23)
        boundaries = 0
        while router._migration is not None:
            for _ in range(8):  # churn well above the budget of 3
                start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
                router.insert(MotionPath(start, Point(start.x + 3.0, start.y + 3.0)))
            router.maybe_rebalance()
            boundaries += 1
            assert boundaries <= -(-backlog // 3), "churn stalled the migration"
        assert router.rebalances == 1

    def test_second_rebalance_force_completes_the_inflight_migration(self):
        router = self.seeded_router(migration_budget=4)
        assert router.rebalance() is True
        router.maybe_rebalance()
        assert router._migration is not None
        grown = router._migration.target.num_shards
        assert router.rebalance() is True  # completes, then starts/applies next
        assert len(router.shards) >= grown
        assert router.rebalances >= 1

    def test_migration_counters_flow_into_the_epoch_delta(self):
        """``EpochDelta.records_migrated``/``migration_active`` reflect the
        boundary's warming progress through a full coordinator."""
        coordinator = make_elastic_coordinator(migration_budget=4)
        stream = skewed_stream(seed=7, epochs=5)
        migrated, active_epochs = 0, 0
        try:
            for index, (boundary, states) in enumerate(stream):
                if index == 1:
                    assert coordinator.router.rebalance() is True
                for state in states:
                    coordinator.submit_state(state)
                outcome = coordinator.run_epoch(boundary)
                delta = outcome.delta
                if delta is not None:
                    migrated += delta.records_migrated
                    active_epochs += int(delta.migration_active)
        finally:
            coordinator.close()
        assert migrated > 0
        assert active_epochs >= 1
