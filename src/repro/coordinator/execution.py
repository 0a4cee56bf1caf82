"""Execution backends: where the epoch's cache-missed overlap components are built.

:class:`~repro.coordinator.single_path.SinglePathStrategy` splits an epoch
into a *candidate stage* (read-only) and a *decision stage* (mutating).  The
decision stage is Algorithm 2's sequential loop: later objects see the paths
and crossings earlier objects produced, so it runs in the calling process in
submission order on every backend.  Every index read stays there too: the
Case 1 candidate pass is one dict probe per state under the columnar kernel
(the paper's constant-time hash of Section 5.1), cheaper than any hand-off.
What a backend decides is where the epoch's overlap components are *built*,
while the parent runs that candidate pass (:meth:`ExecutionBackend.build_overlaps`):

* :class:`SerialBackend` — the reference: every build runs inline on the
  calling thread.
* :class:`ProcessBackend` — builds run in persistent, *stateless* worker
  processes: a worker receives component FSA pools and returns built
  structures as ordered region lists, nothing else, so it is replaced after a
  crash or a missed reply deadline with no bootstrap.

Neither backend knows the kernel.  A built structure carries none (its
single and batched queries each have one path), so a backend is handed the
pools and the parent's pass, and the process backend sends each worker its
share as one pickled ``("work", share)`` message over the worker's pipe.  A
send has the deadline a reply has (:data:`_REPLY_DEADLINE_S`), so a worker
that stops draining its pipe cannot block the epoch either way.

The backend is a property of the overlap stage, not of a shard layout: every
``num_shards`` runs the same strategy on the same one index, so
``--shards 1 --backend processes`` ships exactly what ``--shards 16`` does.

**Delta shipping.**  Under the default ``delta`` epoch mode the strategy's
cross-epoch :class:`~repro.coordinator.overlaps.OverlapPoolCache` resolves
each epoch's overlap components first, and only the cache-missed (dirtied)
pools reach the backend: an unchanged pool is reused parent-side and never
crosses the pipe again, and a worker that is handed no pool gets no message
that epoch.  An FSA that overlaps no other one is never a pool (its structure
is its singleton region, placed by the merge), so an epoch of isolated
reporters messages no worker at all.  Pool identity is content-addressed
(fingerprint of the member ``(object_id, FSA)`` tuples in pool order), so
reuse survives worker respawns untouched.
"""

from __future__ import annotations

import logging
import os
import socket
import struct
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.overlaps import FsaOverlapStructure, build_structures

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "create_backend",
    "conflict_groups",
]

#: Names accepted by :func:`create_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES: Tuple[str, ...] = ("serial", "processes")

#: The component pools of one epoch's overlap plan that need building.
OverlapPools = Sequence[Mapping[int, Rectangle]]

#: What the parent computes while the pools are built.
Alongside = TypeVar("Alongside")


#: How long the parent waits for one worker reply, or for a worker to take a
#: message, before it replaces the worker and does the work itself.  A
#: constant, not a knob: it only has to be far above any real build and
#: finite.
_REPLY_DEADLINE_S = 60.0

_log = logging.getLogger(__name__)


def _default_workers() -> int:
    """Pool width: one slot per core this process may run on (the affinity
    mask, where the platform has one — ``os.cpu_count()`` is the host's count,
    and a container pinned to two CPUs of a 64-core host must not fork eight
    workers), but at least two so the concurrent code paths are genuinely
    exercised even on single-core containers."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS, Windows
        cores = os.cpu_count() or 1
    return max(2, min(8, cores))


# ---------------------------------------------------------------------------
# Conflict grouping (no pipeline stage calls it)
# ---------------------------------------------------------------------------


def conflict_groups(states: Sequence[ObjectState], grid) -> List[List[int]]:
    """Partition an epoch's states into the components of their shard footprints.

    ``grid`` is the router's :class:`~repro.coordinator.partition.ShardGrid`.
    Two states land in the same group when their shard footprints (owner of
    the SSA start plus all shards overlapped by the FSA) intersect, or when
    they report the same object id.  Groups list member positions in
    submission order; the group list itself is ordered by first member, so
    the partition is deterministic.  Decisions replay global submission
    order, so nothing groups them any more; kept only because
    ``bench/trace.py`` binds ``sharding.conflict_groups`` (``bench/`` does
    not change with ``src/``) — delete it with that binding.
    """
    parent: Dict[int, int] = {}

    def find(shard_id: int) -> int:
        root = shard_id
        while parent[root] != root:
            root = parent[root]
        while parent[shard_id] != root:
            parent[shard_id], shard_id = root, parent[shard_id]
        return root

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    anchors: List[int] = []
    object_anchor: Dict[int, int] = {}
    for position, state in enumerate(states):
        anchor = grid.shard_id_of(state.start)
        shard_ids = {anchor}
        shard_ids.update(grid.shard_ids_overlapping(state.fsa))
        for shard_id in shard_ids:
            parent.setdefault(shard_id, shard_id)
        for shard_id in shard_ids:
            union(anchor, shard_id)
        previous = object_anchor.get(state.object_id)
        if previous is not None:
            union(anchor, previous)
        object_anchor[state.object_id] = anchor
        anchors.append(anchor)

    groups: Dict[int, List[int]] = {}
    for position, anchor in enumerate(anchors):
        groups.setdefault(find(anchor), []).append(position)
    return sorted(groups.values(), key=lambda group: group[0])


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ExecutionBackend(ABC):
    """Where the overlap stage builds the epoch's cache-missed components.

    :meth:`build_overlaps` builds one FSA overlap structure per pool it is
    handed (the strategy pre-filters to the cache-missed pools, so a backend
    always builds exactly what it gets) and runs the parent's read-only
    ``alongside`` pass — the Case 1 candidate loop — meanwhile.  The decision
    stage is not a backend's business: the strategy replays submission order
    inline on every backend.
    """

    name: str = "abstract"
    #: Never called: bench/ (which does not change with src/) looks these up
    #: here.  ``build_overlaps`` is the one stage a backend runs.
    map_candidate_buckets = None
    map_decision_groups = None
    map_stitch_buckets = None

    @abstractmethod
    def build_overlaps(
        self, overlap_pools: OverlapPools, alongside: Callable[[], Alongside]
    ) -> Tuple[Alongside, List[FsaOverlapStructure]]:
        """Return ``alongside()`` and one built structure per pool (by pool index)."""

    def close(self) -> None:
        """Release pool resources; the backend may be lazily revived afterwards."""


class SerialBackend(ExecutionBackend):
    """The reference: every build inline on the calling thread."""

    name = "serial"

    def build_overlaps(self, overlap_pools, alongside):
        return alongside(), build_structures(overlap_pools)


def _bound_sends(connection) -> None:
    """Give ``connection``'s sends the deadline its replies have.

    A POSIX ``Pipe()`` is a socketpair, so ``SO_SNDTIMEO`` applies: a send
    that a stopped worker never drains (a share larger than the socket
    buffers) fails with an ``OSError`` once it has made no progress for
    :data:`_REPLY_DEADLINE_S`, instead of blocking the epoch.  The option is
    set through a duplicate of the descriptor; it belongs to the socket, so
    it holds for the connection's own descriptor too.
    """
    seconds, fraction = divmod(_REPLY_DEADLINE_S, 1.0)
    timeval = struct.pack("ll", int(seconds), int(fraction * 1_000_000))
    with socket.fromfd(connection.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as duplicate:
        duplicate.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


def _process_worker_main(connection) -> None:
    """Worker loop of :class:`ProcessBackend` (runs in the child process).

    Stateless: every message is self-contained and the worker keeps nothing
    between two of them.  A ``("work", share)`` message carries component FSA
    pools (``(pool index, [(object id, lx, ly, hx, hy), ...])`` in pool
    order, the bounds as the parent holds them) and is answered with the
    built structures as serialized region lists — region order is part of
    the answer, because first-encountered tie-breaks in the overlap queries
    depend on it.
    """
    while True:
        message = connection.recv()
        if message[0] == "stop":
            connection.close()
            return
        _kind, overlap_tasks = message
        pools = [
            {
                object_id: Rectangle(Point(f_lx, f_ly), Point(f_hx, f_hy))
                for object_id, f_lx, f_ly, f_hx, f_hy in members
            }
            for _pool_index, members in overlap_tasks
        ]
        connection.send(
            [
                (pool_index, structure.serialized())
                for (pool_index, _members), structure in zip(
                    overlap_tasks, build_structures(pools)
                )
            ]
        )


class ProcessBackend(ExecutionBackend):
    """Process-pool backend: overlap builds in stateless worker processes.

    The one thing this backend takes off the parent is the build of the
    epoch's cache-missed overlap components: pool ``i`` goes to worker
    ``i % workers`` as flat bound tuples in one pickled message, the parent
    runs the candidate loop while the workers build, and the structures come
    back as serialized region lists.  A worker that is handed no pool is not
    messaged.  Workers hold no state, so a dead one — or one that does not
    take its message or answer it within :data:`_REPLY_DEADLINE_S` — is
    replaced by a bare fork, and whatever it owed this epoch is done in the
    parent instead of being re-sent.
    """

    name = "processes"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"worker count must be at least 1, got {workers}")
        self._workers = workers if workers is not None else _default_workers()
        self._processes: List = []
        self._connections: List = []
        #: Workers replaced after dying (killed, crashed, restarted
        #: explicitly) or missing the reply deadline — excludes ordinary
        #: spawns.
        self.worker_restarts = 0
        #: Always 0 (``worker_restarts`` counts every replacement).  Kept only
        #: because ``bench/trace.py`` reads it (``bench/`` is frozen for
        #: source PRs); delete it with that read.
        self.workers_respawned = 0
        #: Build messages sent to workers (one per worker per epoch that
        #: hands it a pool).
        self.shipments = 0

    #: Always 0: the shared-memory transport is gone, so nothing falls back
    #: to the pipe.  Kept only because ``bench/harness.py`` and
    #: ``bench/trace.py`` read it; delete it with those reads.
    shm_fallbacks = 0

    @property
    def shm_shipments(self) -> int:
        """``shipments`` under the name ``bench/trace.py`` reports
        (``execution.shm_shipments``), from when shipments went through
        shared memory; the count is the same one message per worker and
        epoch.  Delete it with that read."""
        return self.shipments

    # -- worker lifecycle -------------------------------------------------------

    @staticmethod
    def _spawn_context():
        """Fork on Linux (fast, and our workers inherit nothing they use);
        the default context elsewhere (fork is unavailable on Windows and
        unsafe under threads on macOS)."""
        import multiprocessing
        import sys

        if sys.platform.startswith("linux"):
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _ensure_workers(self) -> None:
        if self._processes:
            return
        for _ in range(self._workers):
            process, connection = self._spawn()
            self._processes.append(process)
            self._connections.append(connection)

    def _spawn(self):
        """Start one worker process; it needs nothing but its pipe."""
        context = self._spawn_context()
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_process_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        _bound_sends(parent_conn)
        return process, parent_conn

    # -- worker fault handling --------------------------------------------------

    @property
    def worker_count(self) -> int:
        """Number of spawned worker processes (0 before the first epoch)."""
        return len(self._processes)

    def workers_alive(self) -> List[bool]:
        """Liveness of each spawned worker, by worker index."""
        return [process.is_alive() for process in self._processes]

    def _check_worker(self, worker: int) -> None:
        if not 0 <= worker < len(self._processes):
            raise ConfigurationError(
                f"no worker {worker}; fleet has {len(self._processes)} workers"
            )

    def kill_worker(self, worker: int) -> None:
        """Fault-injection hook: hard-kill one worker process, no cleanup.

        Leaves the dead process in the fleet exactly as a crash would — the
        next message meant for it detects the corpse and respawns (or call
        :meth:`restart_worker` to respawn eagerly).
        """
        self._check_worker(worker)
        self._processes[worker].terminate()
        self._processes[worker].join(timeout=5)

    def restart_worker(self, worker: int) -> None:
        """Replace one worker eagerly — the recovery half of kill-worker
        fault injection.  Spawns the whole fleet first when no workers are
        up; safe at any point between two pipeline stages."""
        self._ensure_workers()
        self._check_worker(worker)
        self._respawn_worker(worker)

    def _respawn_worker(self, worker: int) -> None:
        """Replace one worker with a fresh process (there is no state to rebuild)."""
        process = self._processes[worker]
        if process.is_alive():
            # SIGKILL, not SIGTERM: a stopped (hung) process never sees a
            # catchable signal, and a worker has nothing to clean up.
            process.kill()
        process.join(timeout=5)
        try:
            self._connections[worker].close()
        except OSError:  # pragma: no cover - defensive cleanup
            pass
        self._processes[worker], self._connections[worker] = self._spawn()
        self.worker_restarts += 1

    def _send(self, worker: int, message: tuple) -> bool:
        """Deliver ``message``; ``False`` when the worker could not take it —
        its pipe is broken, or it stopped draining the pipe and the send
        missed :data:`_REPLY_DEADLINE_S` (see :func:`_bound_sends`).  The
        worker has then been replaced, and the caller does the work itself."""
        if not self._processes[worker].is_alive():
            self._respawn_worker(worker)
        try:
            self._connections[worker].send(message)
            return True
        except OSError as error:
            _log.warning(
                "process worker %d could not take its share (%s): replaced, and "
                "its share of this epoch is done in the parent",
                worker,
                error,
            )
            self._respawn_worker(worker)
            return False

    def _reply(self, worker: int):
        """The worker's answer to the message just sent, or ``None``.

        ``None`` means the worker died after accepting the message or stayed
        silent past :data:`_REPLY_DEADLINE_S`; it has been replaced, and the
        caller does the work itself this epoch — both passes are read-only
        and pre-commit, and a build that timed out once is not re-sent.
        """
        connection = self._connections[worker]
        try:
            if connection.poll(_REPLY_DEADLINE_S):
                return connection.recv()
            _log.warning(
                "process worker %d sent no reply within %g s: replaced, and its "
                "share of this epoch is done in the parent",
                worker,
                _REPLY_DEADLINE_S,
            )
        except (EOFError, OSError):
            pass
        self._respawn_worker(worker)
        return None

    # -- pipeline stages --------------------------------------------------------

    def build_overlaps(self, overlap_pools, alongside):
        awaited = self._ship_pools(overlap_pools)
        # The parent's pass overlaps the workers' builds.
        result = alongside()
        structures: List[Optional[FsaOverlapStructure]] = [None] * len(overlap_pools)
        for worker in awaited:
            for pool_index, regions in self._reply(worker) or ():
                structures[pool_index] = FsaOverlapStructure.from_serialized(regions)
        # Pools no worker answered for (see ``_send`` / ``_reply``).
        unanswered = [
            pool_index
            for pool_index, structure in enumerate(structures)
            if structure is None
        ]
        if unanswered:
            built = build_structures([overlap_pools[pool_index] for pool_index in unanswered])
            for pool_index, structure in zip(unanswered, built):
                structures[pool_index] = structure
        return result, structures

    def _ship_pools(self, overlap_pools: OverlapPools) -> List[int]:
        """Send every worker its share of the pools as one pickled message;
        returns the workers that now owe a reply."""
        if not overlap_pools:
            return []
        self._ensure_workers()
        shares: List[list] = [[] for _ in self._processes]
        for pool_index, fsa_pool in enumerate(overlap_pools):
            shares[pool_index % len(shares)].append(
                (
                    pool_index,
                    [
                        (object_id, fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y)
                        for object_id, fsa in fsa_pool.items()
                    ],
                )
            )
        awaited: List[int] = []
        for worker, share in enumerate(shares):
            if share and self._send(worker, ("work", share)):
                self.shipments += 1
                awaited.append(worker)
        return awaited

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("stop",))
                connection.close()
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.kill()
        self._processes = []
        self._connections = []


def create_backend(name: str) -> ExecutionBackend:
    """Instantiate an execution backend by name (see :data:`BACKEND_NAMES`)."""
    if name == "serial":
        return SerialBackend()
    if name == "processes":
        return ProcessBackend()
    raise ConfigurationError(
        f"unknown execution backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )
