"""Tests for :mod:`repro.coordinator.execution`.

Three layers:

* property tests of :func:`conflict_groups` — the partition must be exactly
  the connected components of the "shard footprints intersect or object ids
  collide" relation, so no two conflicting states ever commit concurrently;
* unit tests of backend selection, pool lifecycle and
  :meth:`HotnessTracker.flush_deferred`;
* a regression differential driving the ``threads`` and ``processes``
  backends with a boundary-stressing stream (shared starts, FSAs straddling
  shard borders, duplicate object ids, out-of-order timestamps) and asserting
  bit-for-bit equality with the ``serial`` backend.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.columnar import HAVE_NUMPY
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.execution import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    conflict_groups,
    create_backend,
)
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.sharding import ShardGrid

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
GRID = ShardGrid(BOUNDS, 4, 4)

# Coordinates collide with the 4x4 shard borders (multiples of 250) and fall
# outside the bounds, so footprints routinely share border shards.
coordinate_pool = st.sampled_from(
    [-40.0, 0.0, 100.0, 249.9, 250.0, 500.0, 625.0, 750.0, 999.0, 1000.0, 1100.0]
)
half_extents = st.sampled_from([1.0, 30.0, 130.0, 300.0])


@st.composite
def object_states(draw) -> ObjectState:
    object_id = draw(st.integers(min_value=0, max_value=8))
    start = Point(draw(coordinate_pool), draw(coordinate_pool))
    centre = Point(draw(coordinate_pool), draw(coordinate_pool))
    half = draw(half_extents)
    fsa = Rectangle.from_center(centre, half)
    t_end = draw(st.integers(min_value=1, max_value=50))
    return ObjectState(object_id, start, 0, fsa.low, fsa.high, t_end)


def footprint(state: ObjectState) -> set:
    shards = {GRID.shard_id_of(state.start)}
    shards.update(GRID.shard_ids_overlapping(state.fsa))
    return shards


class TestConflictGroups:
    @given(st.lists(object_states(), min_size=0, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_groups_partition_positions(self, states):
        groups = conflict_groups(states, GRID)
        flattened = sorted(position for group in groups for position in group)
        assert flattened == list(range(len(states)))
        for group in groups:
            assert group == sorted(group)  # submission order within each group

    @given(st.lists(object_states(), min_size=2, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_conflicting_states_share_a_group(self, states):
        """Any two states sharing a shard (or an object id) land in one group."""
        groups = conflict_groups(states, GRID)
        group_of = {
            position: index for index, group in enumerate(groups) for position in group
        }
        for a in range(len(states)):
            for b in range(a + 1, len(states)):
                shared_shard = footprint(states[a]) & footprint(states[b])
                same_object = states[a].object_id == states[b].object_id
                if shared_shard or same_object:
                    assert group_of[a] == group_of[b], (
                        f"states {a} and {b} conflict "
                        f"(shards {shared_shard}, same_object={same_object}) "
                        "but were placed in different groups"
                    )

    @given(st.lists(object_states(), min_size=2, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_groups_are_deterministic(self, states):
        assert conflict_groups(states, GRID) == conflict_groups(states, GRID)

    def test_disjoint_states_split_into_groups(self):
        """Far-apart states must NOT collapse into one group (parallelism exists)."""
        states = [
            ObjectState(1, Point(50.0, 50.0), 0, Point(40.0, 40.0), Point(60.0, 60.0), 5),
            ObjectState(2, Point(900.0, 900.0), 0, Point(880.0, 880.0), Point(920.0, 920.0), 5),
        ]
        assert conflict_groups(states, GRID) == [[0], [1]]


class TestBackendSelection:
    def test_create_backend_names(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("threads"), ThreadBackend)
        assert isinstance(create_backend("processes"), ProcessBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            create_backend("asyncio")

    def test_coordinator_config_validates_backend(self):
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(bounds=BOUNDS, backend="not-a-backend")

    def test_backend_names_cover_all_backends(self):
        assert set(BACKEND_NAMES) == {"serial", "threads", "processes"}

    def test_single_shard_ignores_backend(self):
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, num_shards=1, backend="threads")
        )
        assert coordinator.router is None
        coordinator.close()  # must be a safe no-op

    def test_sharded_coordinator_uses_requested_backend(self):
        for name in BACKEND_NAMES:
            coordinator = Coordinator(
                CoordinatorConfig(bounds=BOUNDS, num_shards=4, backend=name)
            )
            assert coordinator.router.pipeline.backend.name == name
            coordinator.close()


class TestHotnessDeferral:
    def test_flush_renames_counts_and_buffered_events(self):
        tracker = HotnessTracker(window=10)
        tracker.begin_deferred()
        tracker.record_crossing(100, t_end=1)  # provisional id
        tracker.record_crossing(100, t_end=2)
        tracker.record_crossing(7, t_end=3)    # pre-existing id, untouched
        assert tracker.pending_events == 0     # pushes are buffered
        tracker.flush_deferred({100: 5})
        assert tracker.hotness(100) == 0
        assert tracker.hotness(5) == 2
        assert tracker.hotness(7) == 1
        assert tracker.pending_events == 3
        # Expiry events follow the rename: the window closes on the new id.
        vanished = tracker.advance_time(20)
        assert sorted(vanished) == [5, 7]
        assert len(tracker) == 0

    def test_counters_visible_while_deferred(self):
        tracker = HotnessTracker(window=10)
        tracker.begin_deferred()
        tracker.record_crossing(3, t_end=1)
        assert tracker.hotness(3) == 1  # same-epoch reads see the crossing
        tracker.flush_deferred({})
        assert tracker.hotness(3) == 1
        assert tracker.pending_events == 1

    def test_flush_without_begin_is_harmless(self):
        tracker = HotnessTracker(window=10)
        tracker.flush_deferred({3: 4})
        assert tracker.hotness(4) == 0
        assert tracker.pending_events == 0


def boundary_stream(seed: int, epochs: int = 6, per_epoch: int = 24):
    """States engineered to stress shard boundaries and duplicate reporters."""
    rng = random.Random(seed)
    start_pool = [
        Point(rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0)) for _ in range(8)
    ] + [
        Point(250.0, 250.0),   # 4x4 shard corner
        Point(500.0, 500.0),   # centre corner of the 2x2 layout
        Point(750.0, 10.0),    # on a 4x4 vertical border
        Point(-30.0, 980.0),   # clamped into a border shard
    ]
    stream = []
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        states = []
        for _ in range(per_epoch):
            start = rng.choice(start_pool)
            centre = Point(
                start.x + rng.uniform(-250.0, 250.0), start.y + rng.uniform(-250.0, 250.0)
            )
            fsa = Rectangle.from_center(centre, rng.uniform(5.0, 150.0))
            t_end = boundary - rng.randrange(10)
            states.append(
                ObjectState(
                    rng.randrange(per_epoch),  # duplicates likely
                    start,
                    max(0, t_end - 5),
                    fsa.low,
                    fsa.high,
                    t_end,
                )
            )
        stream.append((boundary, states))
    return stream


def drive(coordinator: Coordinator, stream, close_before_epoch: int = -1) -> List[dict]:
    """Feed the stream epoch by epoch, snapshotting the full state after each.

    ``close_before_epoch`` closes the coordinator's worker pool just before
    that epoch runs, forcing a parallel backend to revive it mid-stream.
    """
    trace = []
    try:
        for index, (boundary, states) in enumerate(stream):
            if index == close_before_epoch:
                coordinator.close()
            for state in states:
                coordinator.submit_state(state)
            outcome = coordinator.run_epoch(boundary)
            trace.append(
                {
                    "responses": outcome.responses,
                    "inserted": outcome.paths_inserted,
                    "reused": outcome.paths_reused,
                    "expired": outcome.paths_expired,
                    "records": sorted(
                        (r.path_id, r.path.start.as_tuple(), r.path.end.as_tuple(), r.created_at)
                        for r in coordinator.index.records
                    ),
                    "hotness": sorted(coordinator.hotness.items()),
                    "top_k": coordinator.top_k(10),
                }
            )
    finally:
        coordinator.close()
    return trace


class TestBackendRegression:
    """``threads`` and ``processes`` must match ``serial`` on stress streams."""

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("num_shards", [4, 16])
    def test_parallel_backend_matches_serial(self, backend, num_shards):
        def make(backend_name):
            return Coordinator(
                CoordinatorConfig(
                    bounds=BOUNDS,
                    window=40,
                    cells_per_axis=32,
                    num_shards=num_shards,
                    backend=backend_name,
                )
            )

        stream = boundary_stream(seed=17)
        expected = drive(make("serial"), stream)
        actual = drive(make(backend), stream)
        for epoch, (exp, act) in enumerate(zip(expected, actual)):
            assert act == exp, f"{backend} diverged from serial at epoch {epoch}"

    def test_process_workers_revive_from_snapshot_after_close(self):
        """Closing mid-stream forces a respawn: fresh workers must bootstrap
        their replicas from the live-record snapshot (the journal prefix they
        never saw has been truncated) and stay bit-for-bit exact."""
        stream = boundary_stream(seed=31, epochs=6)
        serial = drive(
            Coordinator(
                CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
            ),
            stream,
        )
        revived = drive(
            Coordinator(
                CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="processes")
            ),
            stream,
            close_before_epoch=3,
        )
        assert revived == serial

    def test_journal_only_recorded_for_process_backend(self):
        """serial/threads never consume the journal, so it must stay empty."""
        stream = boundary_stream(seed=7, epochs=2)
        for backend, journal_expected in (("serial", False), ("threads", False)):
            coordinator = Coordinator(
                CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend=backend)
            )
            drive(coordinator, stream)
            assert bool(coordinator.router.journal) == journal_expected, backend

    def test_more_workers_than_shards_is_clamped_and_exact(self):
        """Satellite regression: ``workers > num_shards`` used to spawn
        workers with empty shard sets that replayed empty journals forever.
        The pool must clamp to the shard count, and the results must stay
        bit-for-bit identical."""
        stream = boundary_stream(seed=13, epochs=4)
        serial = drive(
            Coordinator(
                CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
            ),
            stream,
        )
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
        )
        # Swap in an oversized process pool directly (the CLI has no worker
        # knob, but the backend API does).
        backend = ProcessBackend(workers=9)
        coordinator.router.pipeline.backend = backend
        coordinator.router._journal_enabled = True
        try:
            oversized = drive(coordinator, stream)
            assert oversized == serial
            assert len(backend._processes) == 0  # drive() closed the pool
        finally:
            backend.close()

    def test_oversized_pool_spawns_at_most_one_worker_per_shard(self):
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
        )
        backend = ProcessBackend(workers=9)
        coordinator.router.pipeline.backend = backend
        coordinator.router._journal_enabled = True
        try:
            for state in boundary_stream(seed=13, epochs=1)[0][1]:
                coordinator.submit_state(state)
            coordinator.run_epoch(10)
            assert len(backend._processes) == 4
            # Every shard is assigned, and every spawned worker holds >= 1 shard.
            assert sorted(backend._assignment) == [0, 1, 2, 3]
            assert set(backend._assignment.values()) == set(range(4))
        finally:
            backend.close()
            coordinator.close()

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(workers=0)
        with pytest.raises(ConfigurationError):
            ThreadBackend(workers=-1)
        with pytest.raises(ConfigurationError):
            create_backend("processes", workers=0)
        with pytest.raises(ConfigurationError):
            ProcessBackend.assign_shards([5, 3], workers=0)


    def test_parallel_path_ids_match_serial_allocation(self):
        """Renumbering reproduces the exact ids the serial replay allocates."""
        stream = boundary_stream(seed=23, epochs=4)
        serial = drive(
            Coordinator(
                CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
            ),
            stream,
        )
        threaded = drive(
            Coordinator(
                CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="threads")
            ),
            stream,
        )
        for exp, act in zip(serial, threaded):
            assert [r[0] for r in act["records"]] == [r[0] for r in exp["records"]]


class TestLoadAwareAssignment:
    """``ProcessBackend.assign_shards``: deterministic LPT balancing."""

    def test_heaviest_shards_spread_across_workers(self):
        assignment = ProcessBackend.assign_shards([100, 90, 1, 2], workers=2)
        # The two hot shards must not share a worker.
        assert assignment[0] != assignment[1]
        loads = {}
        for shard_id, worker in assignment.items():
            loads[worker] = loads.get(worker, 0) + [100, 90, 1, 2][shard_id]
        assert max(loads.values()) <= 102

    def test_assignment_is_deterministic(self):
        loads = [5, 30, 30, 1, 17, 0, 8, 2]
        reference = ProcessBackend.assign_shards(loads, workers=3)
        for _ in range(5):
            assert ProcessBackend.assign_shards(loads, workers=3) == reference

    def test_every_shard_gets_a_worker(self):
        assignment = ProcessBackend.assign_shards([0] * 16, workers=5)
        assert sorted(assignment) == list(range(16))
        assert set(assignment.values()) <= set(range(5))

    def test_previous_pins_are_honoured(self):
        """Pinned shards stay on their workers; the rest LPT-balance around
        the pinned totals."""
        loads = [50, 1, 1, 1]
        assignment = ProcessBackend.assign_shards(
            loads, workers=4, previous={1: 3, 2: 2}
        )
        assert assignment[1] == 3
        assert assignment[2] == 2
        assert sorted(assignment) == [0, 1, 2, 3]
        # The heavy unpinned shard lands on an idle worker, not a pinned one.
        assert assignment[0] in (0, 1)

    def test_out_of_range_pins_are_ignored(self):
        assignment = ProcessBackend.assign_shards(
            [5, 5], workers=2, previous={7: 0, 0: 9}
        )
        assert sorted(assignment) == [0, 1]
        assert set(assignment.values()) <= {0, 1}

    def test_reassignment_is_stable_under_unchanged_load(self):
        """Satellite regression: re-running the assignment with the old map
        pinned must reproduce it exactly — the from-scratch LPT used to
        reshuffle shards (and so retire replicas) even when nothing moved."""
        loads = [30, 20, 10, 5, 5]
        first = ProcessBackend.assign_shards(loads, workers=3)
        assert ProcessBackend.assign_shards(loads, workers=3, previous=first) == first

    def test_skewed_loads_beat_the_old_modulo_split(self):
        """The motivating case: hot downtown shards used to collide on the
        same modulo worker.  With shard loads concentrated on shards 0 and
        4 (which share ``shard_id % 4 == 0``), LPT must separate them."""
        loads = [80, 1, 1, 1, 70, 1, 1, 1]
        assignment = ProcessBackend.assign_shards(loads, workers=4)
        assert assignment[0] != assignment[4]
        per_worker = {}
        for shard_id, worker in assignment.items():
            per_worker[worker] = per_worker.get(worker, 0) + loads[shard_id]
        # Old modulo split would put 150 on one worker; LPT caps near max load.
        assert max(per_worker.values()) <= 81


class TestReplicaReuse:
    """Satellite regression: a migration that leaves a worker's shard set
    untouched must keep its process (and warmed replicas) alive — the old
    ``on_rebalance`` tore the whole fleet down on every migration."""

    def test_elastic_split_reuses_untouched_workers(self):
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS,
                window=200,
                cells_per_axis=32,
                num_shards=4,
                backend="serial",
                elastic="auto",
                max_shards=6,
                # Quiet threshold: only the *forced* split below migrates —
                # the post-split kd fleet must not auto-refit at the next
                # boundary (that would legitimately re-stale every worker).
                rebalance_threshold=6.0,
            )
        )
        router = coordinator.router
        # Pin the worker count below any clamp crossing (4 workers serve
        # both the 4- and the 5-shard fleet), as the oversized-pool tests do.
        backend = ProcessBackend(workers=4)
        router.pipeline.backend = backend
        router._journal_enabled = True
        try:
            rng = random.Random(5)
            states = []
            for i in range(40):  # downtown: shard 0 of the 2x2 layout
                x, y = rng.uniform(10.0, 400.0), rng.uniform(10.0, 400.0)
                states.append(
                    ObjectState(
                        i, Point(x, y), 0, Point(x - 20, y - 20), Point(x + 20, y + 20), 5
                    )
                )
            for offset, (cx, cy) in enumerate(
                [(700.0, 200.0), (200.0, 700.0), (700.0, 700.0)]
            ):
                states.append(
                    ObjectState(
                        100 + offset,
                        Point(cx, cy),
                        0,
                        Point(cx - 20, cy - 20),
                        Point(cx + 20, cy + 20),
                        5,
                    )
                )
            for state in states:
                coordinator.submit_state(state)
            coordinator.run_epoch(10)
            assert len(backend._processes) == 4
            assert backend.workers_reused == 0
            # Forced elastic action: split the hot downtown shard (4 -> 5).
            # Shards 1-3 keep their bounds and records; with one shard per
            # worker, the downtown worker must rebuild (its shard split) and
            # one cold worker inherits the spilled half — the other two keep
            # their exact sets and must survive untouched.
            assert router.rebalance() is True
            assert len(router.shards) == 5
            assert backend.workers_reused == 2
            stale = set(backend._stale_workers)
            assert len(stale) == 2
            # The next epoch touches every shard: exactly the stale workers
            # respawn lazily; nothing counts as a crash restart.
            followup = [
                (200 + i, x, y)
                for i, (x, y) in enumerate(
                    [(30.0, 30.0), (480.0, 100.0), (700.0, 200.0), (200.0, 700.0), (700.0, 700.0)]
                )
            ]
            for object_id, x, y in followup:
                coordinator.submit_state(
                    ObjectState(
                        object_id,
                        Point(x, y),
                        10,
                        Point(x - 15, y - 15),
                        Point(x + 15, y + 15),
                        15,
                    )
                )
            coordinator.run_epoch(20)
            assert backend.workers_respawned == len(stale)
            assert backend.worker_restarts == 0
            assert not backend._stale_workers
            assert len(backend._processes) == 4
        finally:
            coordinator.close()

    def test_stop_the_world_fallback_without_fleet_update(self):
        """``on_rebalance(None)`` (or before any fleet exists) still means
        full retirement — the legacy contract."""
        backend = ProcessBackend(workers=2)
        backend.on_rebalance(None)  # no fleet: harmless no-op shutdown
        assert backend.workers_reused == 0
        assert backend.workers_respawned == 0
        backend.close()


class TestWorkerFaultRecovery:
    """Kill-and-restart of process workers must be answer-invariant.

    ``restart_worker`` is the explicit recovery path (callable from outside
    ``on_rebalance`` — the kill-worker fault injection depends on it); the
    pipeline's dead-worker detection is the implicit one.  Both respawn from
    a live-state snapshot and must stay bit-for-bit equal to serial.
    """

    @staticmethod
    def make(backend_name: str) -> Coordinator:
        return Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend=backend_name)
        )

    @staticmethod
    def drive_with_fault(coordinator: Coordinator, stream, fault) -> List[dict]:
        """Like :func:`drive`, but calls ``fault(coordinator, index)`` before
        each epoch's submissions."""
        trace = []
        try:
            for index, (boundary, states) in enumerate(stream):
                fault(coordinator, index)
                for state in states:
                    coordinator.submit_state(state)
                outcome = coordinator.run_epoch(boundary)
                trace.append(
                    {
                        "responses": outcome.responses,
                        "records": sorted(
                            (r.path_id, r.path.start.as_tuple(), r.path.end.as_tuple())
                            for r in coordinator.index.records
                        ),
                        "hotness": sorted(coordinator.hotness.items()),
                        "top_k": coordinator.top_k(10),
                    }
                )
        finally:
            coordinator.close()
        return trace

    def test_explicit_restart_after_kill_is_exact(self):
        """The regression this satellite exists for: ``restart_worker`` used
        to be reachable only through ``on_rebalance``; killed workers now
        recover eagerly between epochs without perturbing any answer."""
        stream = boundary_stream(seed=23, epochs=6)
        expected = self.drive_with_fault(self.make("serial"), stream, lambda c, i: None)

        def kill_then_restart(coordinator: Coordinator, index: int) -> None:
            if index not in (2, 4):
                return
            backend = coordinator.router.pipeline.backend
            shard_id = index % len(coordinator.router.shards)
            worker = backend.worker_for_shard(shard_id)
            backend.kill_worker(worker)
            assert not backend.workers_alive()[worker]
            assert backend.restart_worker(coordinator.router, shard_id) == worker
            assert backend.workers_alive()[worker]

        coordinator = self.make("processes")
        backend = coordinator.router.pipeline.backend
        actual = self.drive_with_fault(coordinator, stream, kill_then_restart)
        assert backend.worker_restarts == 2
        assert actual == expected

    def test_dead_worker_is_detected_and_respawned_mid_pipeline(self):
        """A worker that dies *without* an explicit restart: the next pipeline
        round trip must detect the corpse, respawn from snapshot and retry —
        still bit-for-bit equal to serial."""
        stream = boundary_stream(seed=23, epochs=6)
        expected = self.drive_with_fault(self.make("serial"), stream, lambda c, i: None)

        def kill_only(coordinator: Coordinator, index: int) -> None:
            if index == 3:
                coordinator.router.pipeline.backend.kill_worker(0)

        coordinator = self.make("processes")
        backend = coordinator.router.pipeline.backend
        actual = self.drive_with_fault(coordinator, stream, kill_only)
        assert backend.worker_restarts >= 1
        assert actual == expected

    def test_restart_worker_spawns_the_fleet_when_cold(self):
        """Before the first epoch there is no fleet; restart_worker must
        bring one up rather than index into an empty pool."""
        coordinator = self.make("processes")
        try:
            backend = coordinator.router.pipeline.backend
            assert backend.worker_count == 0
            worker = backend.restart_worker(coordinator.router, shard_id=0)
            assert backend.worker_count > 0
            assert backend.workers_alive()[worker]
        finally:
            coordinator.close()

    def test_fault_hooks_validate_their_targets(self):
        coordinator = self.make("processes")
        try:
            backend = coordinator.router.pipeline.backend
            assert backend.worker_for_shard(0) is None  # fleet not spawned yet
            with pytest.raises(ConfigurationError):
                backend.kill_worker(0)
            coordinator.submit_state(boundary_stream(seed=1, epochs=1)[0][1][0])
            coordinator.run_epoch(10)
            with pytest.raises(ConfigurationError):
                backend.kill_worker(backend.worker_count)
            with pytest.raises(ConfigurationError):
                backend.restart_worker(coordinator.router, shard_id=999)
        finally:
            coordinator.close()


_OWNERSHIP_SCRIPT = """
import multiprocessing, os, sys
from repro.coordinator.columnar import ShipmentRing, decode_work_shipment

def attach(header):
    ops, tasks, pools = decode_work_shipment(header, {})
    assert tasks == [(0, 1, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)], tasks

ring = ShipmentRing()
header = ring.pack([], [(0, 1, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)], [])
worker = multiprocessing.get_context("fork").Process(target=attach, args=(header,))
worker.start()
worker.join(30)
assert worker.exitcode == 0, worker.exitcode
print(header[1], flush=True)
if sys.argv[1] == "die":
    os._exit(0)  # the parent dies abnormally: no close, no unlink
ring.close(unlink=True)
"""


@pytest.mark.skipif(
    not (HAVE_NUMPY and sys.platform.startswith("linux")),
    reason="shared-memory shipments need numpy; fork and /dev/shm need Linux",
)
class TestSharedMemoryOwnership:
    """A worker's attach must leave the parent's resource-tracker entry alone.

    Forked workers share the parent's tracker process, so the old
    register-then-unregister attach removed the *parent's* registration: its
    ``unlink()`` then made the tracker print a ``KeyError`` traceback per
    ring, and nothing reclaimed the block if the parent died first.
    """

    @staticmethod
    def run_script(mode: str) -> subprocess.CompletedProcess:
        environment = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.run(
            [sys.executable, "-c", _OWNERSHIP_SCRIPT, mode],
            capture_output=True, text=True, timeout=120, env=environment,
        )

    def test_unlink_after_a_worker_attach_is_silent(self):
        done = self.run_script("unlink")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert not os.path.exists("/dev/shm/" + done.stdout.strip().lstrip("/"))

    def test_registration_survives_a_worker_attach(self):
        """Parent gone without unlinking: the tracker still knows the block
        is the parent's and reclaims it."""
        done = self.run_script("die")
        assert done.returncode == 0, done.stderr
        block = "/dev/shm/" + done.stdout.strip().lstrip("/")
        try:
            deadline = time.monotonic() + 30
            while os.path.exists(block) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not os.path.exists(block), "the tracker forgot the parent's block"
        finally:
            if os.path.exists(block):
                os.unlink(block)

    def test_a_processes_run_prints_no_tracker_traceback(self):
        environment = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--objects", "40", "--duration", "30",
             "--network-nodes", "6", "--area", "2000", "--shards", "4",
             "--backend", "processes", "--seed", "3"],
            capture_output=True, text=True, timeout=300, env=environment,
        )
        assert done.returncode == 0, done.stderr
        assert "kernel=columnar" in done.stdout
        assert done.stderr == ""
