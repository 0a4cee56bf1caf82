"""Tests for :mod:`repro.coordinator.execution`.

Four layers:

* property tests of :func:`conflict_groups` — the partition must be exactly
  the connected components of the "shard footprints intersect or object ids
  collide" relation (no pipeline stage calls it any more; it stays as long
  as the benchmark trace binds it);
* unit tests of backend selection and pool lifecycle;
* :class:`TestOneDecisionPath` — the work an epoch does in the parent on
  either backend, as exact counts: every insert indexed once, ids allocated
  in submission order, nothing grouped;
* the worker-fault tests: faults injected through the exactness harness's
  per-epoch hook (``tests/differential.py``) into the ``processes`` backend
  on the border scenario, whose every observation must equal the
  reference's — a closed and revived pool, an oversized pool, worker kills,
  a hung worker and (:class:`TestStatelessWorkers`) every worker killed
  before every epoch — and a stopped worker handed a share larger than the
  socket buffers;
* :class:`TestExactShipments` — a worker builds what the parent would, down
  to ``repr``: ``int`` bounds, ``int`` bounds beyond 2**53 and ``-0.0``
  cross the pipe as they are.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.client.state import ObjectState
from repro.coordinator import execution, sharding
from repro.coordinator.columnar import EndpointTable
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.overlaps import build_structures
from repro.coordinator.execution import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    conflict_groups,
    create_backend,
)
from repro.coordinator.sharding import ShardGrid

from differential import (
    BORDER_STREAM,
    SCENARIO,
    Run,
    assert_answers_as,
    drive,
    make_coordinator,
    reference_run,
    synthetic_stream,
)

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
        assert isinstance(create_backend("processes"), ProcessBackend)

    def test_unknown_backend_rejected(self):
        for name in ("asyncio", "threads"):
            with pytest.raises(ConfigurationError):
                create_backend(name)

    def test_coordinator_config_validates_backend(self):
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(bounds=BOUNDS, backend="not-a-backend")

    def test_backend_names_cover_all_backends(self):
        assert set(BACKEND_NAMES) == {"serial", "processes"}

    def test_single_shard_uses_requested_backend(self):
        """The backend belongs to the overlap stage, not to a fleet."""
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, num_shards=1, backend="processes")
        )
        assert coordinator.strategy.backend.name == "processes"
        coordinator.close()  # nothing spawned yet: a safe no-op

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_pool_width_follows_the_affinity_mask_not_the_host(self, monkeypatch):
        """Two usable CPUs on a 64-core host must mean two workers, not eight."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for usable, width in ((1, 2), (2, 2), (5, 5), (64, 8)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, n=usable: set(range(n)))
            assert execution._default_workers() == width
            assert ProcessBackend()._workers == width

    def test_sharded_coordinator_uses_requested_backend(self):
        for name in BACKEND_NAMES:
            coordinator = Coordinator(
                CoordinatorConfig(bounds=BOUNDS, num_shards=4, backend=name)
            )
            assert coordinator.strategy.backend.name == name
            coordinator.close()


#: A ``processes`` fleet labelled 2x2: the fault tests' configuration.
PROCESSES = FleetConfig(num_shards=4, backend="processes")


def processes_run(hook=None) -> Run:
    """The border scenario on :data:`PROCESSES`; ``hook(coordinator, index)``
    injects faults before each epoch's submissions."""
    return drive(PROCESSES, BORDER_STREAM, hook=hook)


def answers_as_the_reference(run: Run) -> None:
    assert_answers_as(reference_run(SCENARIO["border"]), run)


class TestBackendRegression:
    """Pool lifecycle faults on the ``processes`` backend, answer-invariant."""

    def test_process_workers_revive_after_close_and_stay_exact(self):
        """Closing mid-stream retires the pool: the next epoch spawns fresh
        workers (there is nothing to bootstrap) and stays bit-for-bit exact."""

        def close_before_the_fourth_epoch(coordinator, index):
            if index == 3:
                coordinator.close()

        answers_as_the_reference(processes_run(close_before_the_fourth_epoch))

    def test_more_workers_than_shards_is_exact(self):
        """Workers build overlap pools, not shards, so the pool is as wide as
        asked: 6 workers on 4 shards all spawn, and the results stay
        bit-for-bit identical to the seed coordinator."""
        # Swap in an oversized process pool directly (the CLI has no worker
        # knob, but the backend API does).
        backend = ProcessBackend(workers=6)
        widths = []

        def oversize(coordinator, index):
            if index == 0:
                coordinator.strategy.backend = backend
            widths.append(backend.worker_count)

        try:
            answers_as_the_reference(drive(FleetConfig(num_shards=4), BORDER_STREAM, hook=oversize))
            assert widths == [0] + [6] * (len(BORDER_STREAM) - 1)
            assert backend.worker_count == 0  # drive() closed the pool
        finally:
            backend.close()

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(workers=0)
        with pytest.raises(ConfigurationError):
            ProcessBackend(workers=-1)


class TestOneDecisionPath:
    """What an epoch does in the parent, as exact counts, on both backends
    and on 2x2, 2x3 and 4x4 grids.

    Every backend replays Algorithm 2 in submission order in the parent, so
    an insert is indexed once — one row of the columnar end table — under
    the id the index's counter hands out next, and an eviction removes that
    row.  Counts, not clocks: they repeat exactly run to run.
    """

    @pytest.mark.parametrize("num_shards", [4, 6, 16])
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_each_insert_is_indexed_once_under_its_final_id(
        self, backend, num_shards, monkeypatch
    ):
        calls = {"add_path": 0, "remove_path": 0, "conflict_groups": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        def counted_on_the_index(name, method):
            # The decisions' insert probe is an end table too: not counted.
            def wrapper(table, *args, **kwargs):
                if table is coordinator.index._table:
                    calls[name] += 1
                return method(table, *args, **kwargs)

            return wrapper

        for name in ("add_path", "remove_path"):
            monkeypatch.setattr(
                EndpointTable, name, counted_on_the_index(name, getattr(EndpointTable, name))
            )
        monkeypatch.setattr(
            sharding, "conflict_groups", counted("conflict_groups", sharding.conflict_groups)
        )
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS, window=20, num_shards=num_shards, backend=backend
            )
        )
        inserted = deleted = 0
        try:
            for boundary, states in synthetic_stream(29, epochs=10, per_epoch=40):
                for state in states:
                    coordinator.submit_state(state)
                first_id = coordinator.index._next_path_id
                for name in calls:
                    calls[name] = 0
                delta = coordinator.run_epoch(boundary).delta
                assert calls["add_path"] == len(delta.inserted)
                assert calls["remove_path"] == len(delta.deleted)
                assert calls["conflict_groups"] == 0
                assert delta.inserted == tuple(range(first_id, first_id + len(delta.inserted)))
                assert delta.renumbered == 0
                inserted += len(delta.inserted)
                deleted += len(delta.deleted)
        finally:
            coordinator.close()
        assert inserted and deleted  # both counts were exercised


class TestWorkerFaultRecovery:
    """Kill-and-restart of process workers must be answer-invariant.

    ``restart_worker`` is the explicit recovery path (the kill-worker fault
    injection depends on it); the pipeline's dead-worker detection is the
    implicit one.  Both replace the worker with a bare fork and must stay
    bit-for-bit equal to serial.
    """

    def test_explicit_restart_after_kill_is_exact(self):
        """Killed workers recover eagerly between epochs without perturbing
        any answer."""

        def kill_then_restart(coordinator: Coordinator, index: int) -> None:
            if index not in (2, 4):
                return
            backend = coordinator.strategy.backend
            worker = index % backend.worker_count
            backend.kill_worker(worker)
            assert not backend.workers_alive()[worker]
            backend.restart_worker(worker)
            assert backend.workers_alive()[worker]

        run = processes_run(kill_then_restart)
        assert run.coordinator.strategy.backend.worker_restarts == 2
        answers_as_the_reference(run)

    def test_dead_worker_is_detected_and_respawned_mid_pipeline(self):
        """A worker that dies *without* an explicit restart: the next pipeline
        round trip must detect the corpse and replace it — still bit-for-bit
        equal to the reference."""

        def kill_only(coordinator: Coordinator, index: int) -> None:
            if index == 3:
                coordinator.strategy.backend.kill_worker(0)

        run = processes_run(kill_only)
        assert run.coordinator.strategy.backend.worker_restarts >= 1
        answers_as_the_reference(run)

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_hung_worker_is_replaced_within_the_reply_deadline(self, monkeypatch, caplog):
        """A worker that accepts its build and never answers (SIGSTOP) must
        not block the epoch: past the reply deadline it is killed and
        replaced, the parent builds its pools, and nothing changes."""
        monkeypatch.setattr(execution, "_REPLY_DEADLINE_S", 0.2)
        stopped = []

        def hang(coordinator: Coordinator, index: int) -> None:
            if index == 3:
                process = coordinator.strategy.backend._processes[0]
                os.kill(process.pid, signal.SIGSTOP)
                stopped.append(process)

        with caplog.at_level(logging.WARNING, logger=execution.__name__):
            run = processes_run(hang)
        answers_as_the_reference(run)
        assert run.coordinator.strategy.backend.worker_restarts == 1
        assert len(caplog.records) == 1 and "no reply" in caplog.records[0].getMessage()
        (process,) = stopped
        assert not process.is_alive()  # killed and reaped, not left stopped

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_stopped_worker_cannot_block_a_large_send(self, monkeypatch, caplog):
        """A share larger than the socket buffers (20 000 members, ~0.8 MB
        pickled) to a stopped worker: the send fails once it has made no
        progress for the deadline, the worker is killed and replaced, and
        the parent builds what the worker was handed."""
        monkeypatch.setattr(execution, "_REPLY_DEADLINE_S", 0.2)
        rng = random.Random(4)
        pools = [pool_of(rng, members=20_000, base_id=0), pool_of(rng, members=5, base_id=10**6)]
        backend = ProcessBackend(workers=2)
        try:
            backend._ensure_workers()
            stopped = backend._processes[0]
            os.kill(stopped.pid, signal.SIGSTOP)
            started = time.monotonic()
            with caplog.at_level(logging.WARNING, logger=execution.__name__):
                _none, structures = backend.build_overlaps(pools, lambda: None)
            # The deadline, a 20 000-member build in the parent and a fork.
            assert time.monotonic() - started < 30 * execution._REPLY_DEADLINE_S
            assert backend.worker_restarts == 1
            assert backend.shipments == 1  # only worker 1 took its share
            assert len(caplog.records) == 1 and "could not take" in caplog.records[0].getMessage()
            assert not stopped.is_alive()
            assert [repr(structure.serialized()) for structure in structures] == [
                repr(structure.serialized()) for structure in build_structures(pools)
            ]
        finally:
            backend.close()

    def test_restart_worker_spawns_the_fleet_when_cold(self):
        """Before the first epoch there is no fleet; restart_worker must
        bring one up rather than index into an empty pool."""
        coordinator = make_coordinator(PROCESSES)
        try:
            backend = coordinator.strategy.backend
            assert backend.worker_count == 0
            backend.restart_worker(0)
            assert backend.worker_count > 0
            assert backend.workers_alive()[0]
        finally:
            coordinator.close()

    def test_fault_hooks_validate_their_targets(self):
        coordinator = make_coordinator(PROCESSES)
        try:
            backend = coordinator.strategy.backend
            with pytest.raises(ConfigurationError):
                backend.kill_worker(0)  # fleet not spawned yet
            # Two overlapping reporters: a pool to build, so the fleet spawns
            # (a lone FSA is no pool and would leave the workers unforked).
            for object_id, x in ((1, 400.0), (2, 420.0)):
                low, high = Point(x - 30, 370.0), Point(x + 30, 430.0)
                coordinator.submit_state(ObjectState(object_id, Point(x, 400.0), 0, low, high, 5))
            coordinator.run_epoch(10)
            assert backend.worker_count > 0
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


class TestStatelessWorkers:
    """Process workers hold no state: they are handed overlap pools and
    return built structures, so any worker is replaceable at any time by a
    bare fork and an idle one is never messaged."""

    def test_every_worker_killed_before_every_epoch(self, monkeypatch):
        kills = []
        down_at_close = []

        def kill_every_live_worker(coordinator: Coordinator, _index: int) -> None:
            backend = coordinator.strategy.backend
            for worker, alive in enumerate(backend.workers_alive()):
                if alive:
                    backend.kill_worker(worker)
                    kills.append(worker)

        close = ProcessBackend.close

        def closing(backend):
            down_at_close.append(backend.workers_alive().count(False))
            close(backend)

        monkeypatch.setattr(ProcessBackend, "close", closing)
        run = processes_run(kill_every_live_worker)
        answers_as_the_reference(run)
        # Every kill is answered by exactly one restart, made when the
        # pipeline next has a pool for that worker — a worker killed while
        # idle stays down until then.
        assert len(kills) >= len(BORDER_STREAM) - 1
        assert run.coordinator.strategy.backend.worker_restarts == len(kills) - down_at_close[0]

    def test_epochs_message_the_workers(self):
        """The border scenario hands the workers pools, and nothing falls
        back: there is one transport."""
        backend = processes_run().coordinator.strategy.backend
        assert backend.shipments > 0
        assert backend.shm_fallbacks == 0

    def test_spawn_time_cannot_change_an_answer(self):
        """A worker forked before the first insert and one forked after
        1 000 live records build the same pools into identical serialized
        structures — there is no bootstrap that could differ."""
        rng = random.Random(9)
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
        )
        backend = coordinator.strategy.backend = ProcessBackend(workers=2)
        try:
            backend.restart_worker(1)  # cold: forks the whole fleet, index empty
            for _ in range(1000):
                coordinator.index.insert(
                    MotionPath(
                        Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
                        Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
                    )
                )
            assert len(coordinator.index) == 1000
            backend.restart_worker(0)  # forked from a parent holding 1 000 records
            pool = pool_of(rng, members=12, base_id=0)
            # Pool i goes to worker i % 2: the same pool, once to each worker.
            _none, (late, early) = backend.build_overlaps([pool, pool], lambda: None)
            assert backend.worker_restarts == 2
            reference = build_structures([pool])[0].serialized()
            assert late.serialized() == early.serialized() == reference
        finally:
            coordinator.close()

    def test_builds_pools_without_a_router(self):
        """The backend needs nothing of a coordinator to do its one job: the
        pools and the parent's pass to run meanwhile (no kernel)."""
        rng = random.Random(3)
        pools = [pool_of(rng, members, base_id=100 * i) for i, members in enumerate([1, 7, 3, 12, 2])]
        backend = ProcessBackend(workers=2)
        try:
            alongside, structures = backend.build_overlaps(pools, lambda: "parent")
            assert alongside == "parent"
            assert backend.workers_alive() == [True, True]
            assert [structure.serialized() for structure in structures] == [
                structure.serialized() for structure in build_structures(pools)
            ]
            assert backend.shipments == 2
        finally:
            backend.close()

    def test_idle_workers_are_not_messaged(self):
        """On a steady stream most epochs miss few pools or none: a worker
        is shipped to exactly when the epoch hands it a missed pool."""
        rng = random.Random(5)
        roster = []
        for object_id in range(12):  # spatially separate pairs: one pool each
            x, y = 150.0 * (object_id // 2) + 60.0 + 10.0 * (object_id % 2), 500.0
            roster.append(
                ObjectState(object_id, Point(x, y), 0, Point(x - 15, y - 15), Point(x + 15, y + 15), 5)
            )
        coordinator = Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=40, num_shards=4, backend="serial")
        )
        backend = coordinator.strategy.backend = ProcessBackend(workers=2)
        expected = 0
        missed_per_epoch = []
        try:
            for epoch in range(1, 13):
                # The roster repeats verbatim (cache hits); every third epoch
                # a visiting pair or three dirties that many pools (a lone
                # FSA is no pool, so a visitor brings a companion).
                visitors = [
                    ObjectState(
                        100 + epoch * 10 + 2 * v + twin,
                        Point(900.0, 100.0 + 60.0 * v),
                        0,
                        Point(880.0, 85.0 + 60.0 * v + epoch + 5.0 * twin),
                        Point(920.0, 115.0 + 60.0 * v + epoch + 5.0 * twin),
                        5,
                    )
                    for v in range(rng.choice([1, 3]) if epoch % 3 == 0 else 0)
                    for twin in (0, 1)
                ]
                for state in roster + visitors:
                    coordinator.submit_state(state)
                coordinator.run_epoch(epoch * 10)
                missed = coordinator.strategy.last_pool_stats["pools_rebuilt"]
                missed_per_epoch.append(missed)
                expected += min(missed, 2)
            assert 0 in missed_per_epoch and 1 in missed_per_epoch  # idle epochs, idle workers
            assert backend.shipments == expected
        finally:
            coordinator.close()


#: Two FSAs whose x bounds are ``int`` beyond 2**53, where the equal
#: ``float`` is a different number: the overlap region's centre, the epoch's
#: endpoint, depends on which of the two the build saw.
_BEYOND_2_53 = [
    ObjectState(1, Point(2**53, 10.0), 0, Point(2**53 + 1, 0.0), Point(2**53 + 2, 20.0), 5),
    ObjectState(2, Point(2**53, 12.0), 0, Point(2**53 + 1, 5.0), Point(2**53 + 5, 25.0), 5),
]

#: Overlap pools whose bounds a lossy transport would change without
#: changing ``==``.
EXACT_POOLS = {
    "int": [
        {1: Rectangle(Point(0, 0), Point(10, 10)), 2: Rectangle(Point(5, 5), Point(20, 15))},
        {3: Rectangle(Point(100, 100), Point(130, 120)), 4: Rectangle(Point(110, 90), Point(140, 110)),
         5: Rectangle(Point(120, 95), Point(125, 130))},
    ],
    "int_beyond_2_53": [
        {1: Rectangle(Point(2**53 + 1, 0), Point(2**53 + 2, 20)),
         2: Rectangle(Point(2**53 + 1, 5), Point(2**53 + 5, 25))},
        {3: Rectangle(Point(-(2**60) - 3, 1), Point(2**60 + 7, 9)),
         4: Rectangle(Point(2**60 + 1, -(2**55) - 1), Point(2**61 + 3, 3))},
    ],
    "negative_zero": [
        {1: Rectangle(Point(-0.0, -0.0), Point(2.0, 2.0)), 2: Rectangle(Point(-1.0, -0.0), Point(-0.0, 3.0))},
        {3: Rectangle(Point(-0.0, 1.0), Point(4.0, 5.0)), 4: Rectangle(Point(0.0, 2.0), Point(3.0, 4.0))},
    ],
}


class TestExactShipments:
    """A pickled share carries every bound as the parent holds it, so a
    worker's structure equals the serial build by ``repr``, not only by ``==``."""

    @pytest.mark.parametrize("bounds", sorted(EXACT_POOLS))
    def test_worker_builds_equal_the_serial_build_by_repr(self, bounds):
        pools = EXACT_POOLS[bounds]
        backend = ProcessBackend(workers=2)
        try:
            _none, structures = backend.build_overlaps(pools, lambda: None)
            assert backend.shipments == 2
        finally:
            backend.close()
        assert [repr(structure.serialized()) for structure in structures] == [
            repr(structure.serialized()) for structure in build_structures(pools)
        ]

    def test_endpoints_beyond_2_53_equal_serial(self):
        """The two-FSA epoch above: ``processes`` answers what ``serial``
        answers, endpoint x 2**53 + 2 included."""
        runs = [drive(FleetConfig(backend=backend), [(10, _BEYOND_2_53)]) for backend in BACKEND_NAMES]
        assert runs[1].coordinator.strategy.backend.shipments == 1
        serial, processes = (repr(run.outcomes[0].responses) for run in runs)
        assert processes == serial
        assert "x=9007199254740994.0" in serial


class TestProcessesRun:
    def test_stdout_is_the_serial_runs_and_stderr_is_empty(self):
        """``repro run --backend processes`` prints what ``--backend serial``
        prints, apart from the timing and backend lines, and nothing on
        stderr."""
        environment = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        outputs = []
        for backend in BACKEND_NAMES:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "run", "--objects", "40", "--duration", "30",
                 "--network-nodes", "6", "--area", "2000", "--shards", "4",
                 "--backend", backend, "--seed", "3"],
                capture_output=True, text=True, timeout=300, env=environment,
            )
            assert done.returncode == 0, done.stderr
            assert done.stderr == ""
            assert "kernel=columnar" in done.stdout
            outputs.append(done.stdout)
        serial, processes = (
            [line for line in output.splitlines() if backend not in line and "time per epoch" not in line]
            for output, backend in zip(outputs, BACKEND_NAMES)
        )
        assert processes == serial
