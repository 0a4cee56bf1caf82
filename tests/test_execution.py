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
  bit-for-bit equality with the ``serial`` backend — including under worker
  kills, a hung worker, and (:class:`TestStatelessWorkers`) every worker
  killed before every epoch across migrations.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import subprocess
import sys
import time
from types import SimpleNamespace
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.client.state import ObjectState
from repro.coordinator import execution
from repro.coordinator.columnar import HAVE_NUMPY
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.overlaps import build_structures
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

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_pool_width_follows_the_affinity_mask_not_the_host(self, monkeypatch):
        """Two usable CPUs on a 64-core host must mean two workers, not eight."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for usable, width in ((1, 2), (2, 2), (5, 5), (64, 8)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, n=usable: set(range(n)))
            assert execution._default_workers() == width
            assert ThreadBackend()._workers == width

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


def epoch_snapshot(coordinator: Coordinator, outcome) -> dict:
    """One epoch's answers plus the full coordinator state after it."""
    return {
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
            trace.append(epoch_snapshot(coordinator, coordinator.run_epoch(boundary)))
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

    def test_process_workers_revive_after_close_and_stay_exact(self):
        """Closing mid-stream retires the pool: the next epoch spawns fresh
        workers (there is nothing to bootstrap) and stays bit-for-bit exact."""
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

    def test_more_workers_than_shards_is_exact(self):
        """Workers build overlap pools, not shards, so the pool is as wide as
        asked: 6 workers on 4 shards all spawn, and the results stay
        bit-for-bit identical to the seed coordinator."""
        stream = boundary_stream(seed=13, epochs=4)
        drive_with_fault = TestWorkerFaultRecovery.drive_with_fault
        seed = drive_with_fault(
            Coordinator(CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=1)),
            stream,
            lambda coordinator, index: None,
        )
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
        )
        # Swap in an oversized process pool directly (the CLI has no worker
        # knob, but the backend API does).
        backend = ProcessBackend(workers=6)
        coordinator.router.pipeline.backend = backend
        widths = []
        try:
            oversized = drive_with_fault(
                coordinator, stream, lambda _c, _index: widths.append(backend.worker_count)
            )
            assert oversized == seed
            assert widths == [0, 6, 6, 6]
            assert backend.worker_count == 0  # drive_with_fault() closed the pool
        finally:
            backend.close()

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(workers=0)
        with pytest.raises(ConfigurationError):
            ThreadBackend(workers=-1)
        with pytest.raises(ConfigurationError):
            create_backend("processes", workers=0)

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


class TestWorkerFaultRecovery:
    """Kill-and-restart of process workers must be answer-invariant.

    ``restart_worker`` is the explicit recovery path (the kill-worker fault
    injection depends on it); the pipeline's dead-worker detection is the
    implicit one.  Both replace the worker with a bare fork and must stay
    bit-for-bit equal to serial.
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
        """Killed workers recover eagerly between epochs without perturbing
        any answer."""
        stream = boundary_stream(seed=23, epochs=6)
        expected = self.drive_with_fault(self.make("serial"), stream, lambda c, i: None)

        def kill_then_restart(coordinator: Coordinator, index: int) -> None:
            if index not in (2, 4):
                return
            backend = coordinator.router.pipeline.backend
            worker = index % backend.worker_count
            backend.kill_worker(worker)
            assert not backend.workers_alive()[worker]
            backend.restart_worker(worker)
            assert backend.workers_alive()[worker]

        coordinator = self.make("processes")
        backend = coordinator.router.pipeline.backend
        actual = self.drive_with_fault(coordinator, stream, kill_then_restart)
        assert backend.worker_restarts == 2
        assert actual == expected

    def test_dead_worker_is_detected_and_respawned_mid_pipeline(self):
        """A worker that dies *without* an explicit restart: the next pipeline
        round trip must detect the corpse and replace it — still bit-for-bit
        equal to serial."""
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

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_hung_worker_is_replaced_within_the_reply_deadline(self, monkeypatch, caplog):
        """A worker that accepts its build and never answers (SIGSTOP) must
        not block the epoch: past the reply deadline it is killed and
        replaced, the parent builds its pools, and nothing changes."""
        monkeypatch.setattr(execution, "_REPLY_DEADLINE_S", 0.2)
        stream = boundary_stream(seed=23, epochs=6)
        expected = self.drive_with_fault(self.make("serial"), stream, lambda c, i: None)
        stopped = []

        def hang(coordinator: Coordinator, index: int) -> None:
            if index == 3:
                process = coordinator.router.pipeline.backend._processes[0]
                os.kill(process.pid, signal.SIGSTOP)
                stopped.append(process)

        coordinator = self.make("processes")
        backend = coordinator.router.pipeline.backend
        with caplog.at_level(logging.WARNING, logger=execution.__name__):
            actual = self.drive_with_fault(coordinator, stream, hang)
        assert actual == expected
        assert backend.worker_restarts == 1
        assert len(caplog.records) == 1 and "no reply" in caplog.records[0].getMessage()
        (process,) = stopped
        assert not process.is_alive()  # killed and reaped, not left stopped

    def test_restart_worker_spawns_the_fleet_when_cold(self):
        """Before the first epoch there is no fleet; restart_worker must
        bring one up rather than index into an empty pool."""
        coordinator = self.make("processes")
        try:
            backend = coordinator.router.pipeline.backend
            assert backend.worker_count == 0
            backend.restart_worker(0)
            assert backend.worker_count > 0
            assert backend.workers_alive()[0]
        finally:
            coordinator.close()

    def test_fault_hooks_validate_their_targets(self):
        coordinator = self.make("processes")
        try:
            backend = coordinator.router.pipeline.backend
            with pytest.raises(ConfigurationError):
                backend.kill_worker(0)  # fleet not spawned yet
            coordinator.submit_state(boundary_stream(seed=1, epochs=1)[0][1][0])
            coordinator.run_epoch(10)
            with pytest.raises(ConfigurationError):
                backend.kill_worker(backend.worker_count)
            with pytest.raises(ConfigurationError):
                backend.restart_worker(backend.worker_count)
        finally:
            coordinator.close()


def pool_of(rng: random.Random, members: int, base_id: int) -> dict:
    """One overlap pool: ``members`` FSAs around a common centre."""
    cx, cy = rng.uniform(100.0, 900.0), rng.uniform(100.0, 900.0)
    return {
        base_id + offset: Rectangle.from_center(
            Point(cx + rng.uniform(-40.0, 40.0), cy + rng.uniform(-40.0, 40.0)),
            rng.uniform(10.0, 90.0),
        )
        for offset in range(members)
    }


KERNELS_AVAILABLE = ["object", "columnar"] if HAVE_NUMPY else ["object"]


class TestStatelessWorkers:
    """Process workers hold no state: they are handed overlap pools and
    return built structures, so any worker is replaceable at any time by a
    bare fork and an idle one is never messaged."""

    #: Fleet shapes whose migrations the kill-everything stream runs across:
    #: a stop-the-world kd refit, an elastic split, a budgeted migration.
    FLEETS = {
        "rebalance": dict(),
        "elastic-split": dict(elastic="auto", max_shards=20),
        "budgeted": dict(elastic="auto", max_shards=20, migration_budget=15),
    }

    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    @pytest.mark.parametrize("kernel", KERNELS_AVAILABLE)
    @pytest.mark.parametrize("num_shards", [4, 16])
    def test_every_worker_killed_before_every_epoch(self, num_shards, kernel, fleet):
        stream = boundary_stream(seed=41, epochs=30)
        seed = drive(
            Coordinator(
                CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=1, kernel=kernel)
            ),
            stream,
        )
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS,
                window=40,
                num_shards=num_shards,
                backend="processes",
                kernel=kernel,
                **self.FLEETS[fleet],
            )
        )
        router = coordinator.router
        backend = router.pipeline.backend
        kills = 0
        trace = []
        try:
            for index, (boundary, states) in enumerate(stream):
                if index in (6, 14, 22):
                    router.rebalance()
                for worker, alive in enumerate(backend.workers_alive()):
                    if alive:
                        backend.kill_worker(worker)
                        kills += 1
                for state in states:
                    coordinator.submit_state(state)
                trace.append(epoch_snapshot(coordinator, coordinator.run_epoch(boundary)))
            assert router.rebalances + router.migrations_started >= 1
            # Every kill is answered by exactly one restart, made when the
            # pipeline next has a pool for that worker — a worker killed
            # while idle stays down until then.
            assert kills >= 29
            assert backend.worker_restarts == kills - backend.workers_alive().count(False)
        finally:
            coordinator.close()
        assert trace == seed

    def test_spawn_time_cannot_change_an_answer(self):
        """A worker forked before the first insert and one forked after
        1 000 live records build the same pools into identical serialized
        structures — there is no bootstrap that could differ."""
        rng = random.Random(9)
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
        )
        router = coordinator.router
        backend = router.pipeline.backend = ProcessBackend(workers=2)
        try:
            backend.restart_worker(1)  # cold: forks the whole fleet, index empty
            for _ in range(1000):
                router.insert(
                    MotionPath(
                        Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
                        Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
                    )
                )
            assert len(router.index) == 1000
            backend.restart_worker(0)  # forked from a parent holding 1 000 records
            pool = pool_of(rng, members=12, base_id=0)
            # Pool i goes to worker i % 2: the same pool, once to each worker.
            _none, (late, early) = backend.map_candidate_buckets(router, {}, [], [pool, pool])
            assert backend.worker_restarts == 2
            reference = build_structures([pool], kernel=router.kernel)[0].serialized()
            assert late.serialized() == early.serialized() == reference
        finally:
            coordinator.close()

    @pytest.mark.parametrize("kernel", KERNELS_AVAILABLE)
    def test_builds_pools_without_a_router(self, kernel):
        """The backend needs nothing of a fleet to do its one job: no
        ``ShardRouter`` exists here, only the kernel name it would carry."""
        rng = random.Random(3)
        pools = [pool_of(rng, members, base_id=100 * i) for i, members in enumerate([1, 7, 3, 12, 2])]
        backend = ProcessBackend(workers=2)
        try:
            per_state, structures = backend.map_candidate_buckets(
                SimpleNamespace(kernel=kernel), {}, [], pools
            )
            assert per_state == []
            assert backend.workers_alive() == [True, True]
            assert [structure.serialized() for structure in structures] == [
                structure.serialized() for structure in build_structures(pools, kernel=kernel)
            ]
        finally:
            backend.close()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="shared-memory shipments need numpy")
    def test_idle_workers_are_not_messaged(self):
        """On a steady stream most epochs miss few pools or none: a worker
        is shipped to exactly when the epoch hands it a missed pool."""
        rng = random.Random(5)
        roster = []
        for object_id in range(12):  # spatially separate: one pool each
            x, y = 80.0 * object_id + 40.0, 500.0
            roster.append(
                ObjectState(object_id, Point(x, y), 0, Point(x - 15, y - 15), Point(x + 15, y + 15), 5)
            )
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
        )
        backend = coordinator.router.pipeline.backend = ProcessBackend(workers=2)
        expected = 0
        missed_per_epoch = []
        try:
            for epoch in range(1, 13):
                # The roster repeats verbatim (cache hits); every third epoch
                # a visitor or three dirties that many pools.
                visitors = [
                    ObjectState(
                        100 + epoch * 10 + v,
                        Point(900.0, 100.0 + 60.0 * v),
                        0,
                        Point(880.0, 85.0 + 60.0 * v + epoch),
                        Point(920.0, 115.0 + 60.0 * v + epoch),
                        5,
                    )
                    for v in range(rng.choice([1, 3]) if epoch % 3 == 0 else 0)
                ]
                for state in roster + visitors:
                    coordinator.submit_state(state)
                coordinator.run_epoch(epoch * 10)
                missed = coordinator.router.last_pool_stats["pools_rebuilt"]
                missed_per_epoch.append(missed)
                expected += min(missed, 2)
            assert 0 in missed_per_epoch and 1 in missed_per_epoch  # idle epochs, idle workers
            assert backend.shm_shipments == expected
            assert backend.shm_fallbacks == 0
        finally:
            coordinator.close()


_OWNERSHIP_SCRIPT = """
import multiprocessing, os, sys
from repro.coordinator.columnar import ShipmentRing, decode_work_shipment

POOLS = [(0, [(7, 1.0, 2.0, 3.0, 4.0), (8, 2.0, 3.0, 5.0, 6.0)])]

def attach(header):
    pools = decode_work_shipment(header, {})
    assert pools == POOLS, pools

ring = ShipmentRing()
header = ring.pack(POOLS)
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
