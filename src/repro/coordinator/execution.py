"""Execution backends for the sharded epoch pipeline.

:class:`~repro.coordinator.sharding.ShardedSinglePath` splits an epoch into a
*candidate stage* (read-only) and a *decision stage* (mutating).  The
decision stage is Algorithm 2's sequential loop: later objects see the paths
and crossings earlier objects produced, so every backend replays global
submission order in the calling process — the one path the bit-for-bit
exactness contract of ``tests/test_sharding_equivalence.py`` pins.  Every
index read stays there too: the Case 1 candidate pass is one dict probe per
state under the columnar kernel (the paper's constant-time hash of Section
5.1), cheaper than any hand-off.  What a backend decides is where the
epoch's cache-missed overlap components are *built*:

* :class:`SerialBackend` — the reference pipeline: every pass runs inline on
  the calling thread.
* :class:`ProcessBackend` — overlap builds run in persistent, *stateless*
  worker processes: a worker receives component FSA pools and returns built
  structures as ordered region lists, nothing else, so it is replaced after a
  crash or a missed reply deadline with no bootstrap.

A third, read-only pass rides the same machinery: the corridor-stitching weld
passes of :meth:`~repro.coordinator.sharding.ShardRouter.stitch_epoch` map
per-shard fragment tasks onto the workers via ``map_stitch_buckets`` (process
workers receive self-contained fragment tuples and return serialized
corridor chains).

**Delta shipping.**  Under the default ``delta`` epoch mode the pipeline
ships workers *deltas*, not full epoch state, through the very same backend
API — no backend needs delta awareness:

* *Overlap pools.*  The router's cross-epoch
  :class:`~repro.coordinator.overlaps.OverlapPoolCache` resolves each epoch's
  overlap components first, and only the cache-missed (dirtied) pools reach
  ``map_candidate_buckets``: an unchanged pool is reused parent-side and
  never crosses the pipe again, and a worker that is handed no pool gets no
  message that epoch.  An FSA that overlaps no other one is never a pool (its
  structure is its singleton region, placed by the merge), so an epoch of
  isolated reporters messages no worker at all.  Pool identity is
  content-addressed (fingerprint of the member ``(object_id, FSA)`` tuples
  in pool order), so reuse survives any layout change and worker respawns
  untouched.
* *Weld passes.*  Delta mode never calls ``map_stitch_buckets`` at all: the
  router's query view (:mod:`repro.coordinator.query_view`) maintains weld
  chains under insert/expire events and answers corridor queries
  parent-side, patching only the chains the epoch's hotness transitions
  touched.  The ``full`` mode path below (and its process-worker ``stitch``
  message) remains the reference implementation the delta answers are pinned
  against bit for bit.
"""

from __future__ import annotations

import logging
import os
from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.columnar import (
    HAVE_NUMPY,
    ShipmentRing,
    close_attachments,
    decode_work_shipment,
)
from repro.coordinator.overlaps import FsaOverlapStructure, build_structures
from repro.coordinator.single_path import CandidatePath
from repro.coordinator.stitching import StitchFragment, weld_runs

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

#: ``(position, state)`` pairs grouped by owning shard id.
Buckets = Dict[int, List[Tuple[int, ObjectState]]]

#: The component pools of one epoch's overlap plan that need building.
OverlapPools = Sequence[Mapping[int, Rectangle]]

#: Per-shard stitch tasks: hot fragments with ownership flags (see
#: :data:`repro.coordinator.stitching.StitchFragment`), grouped by shard id.
StitchTasks = Dict[int, List[StitchFragment]]


#: How long the parent waits for one worker reply before it replaces the
#: worker and does the work itself.  A constant, not a knob: it only has to
#: be far above any real build and finite.
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
    """Where the sharded epoch pipeline builds its overlap components.

    ``map_candidate_buckets`` runs the read-only stage 2: the per-shard
    Case 1 candidate scans — inline on every backend, the serial backend's
    own loop over the authoritative shard indexes, which is the path the
    exactness contract pins — *and* the FSA overlap structure builds, one per
    component pool of the epoch's overlap plan, wherever this backend builds
    them (under ``delta`` epoch mode the pipeline pre-filters this argument
    to the cache-missed pools only, so backends always build exactly what
    they are handed).  The decision stage is not a backend's business: the
    pipeline replays global submission order inline on every backend.
    """

    name: str = "abstract"
    #: Never called: bench/ (which does not change with src/) looks it up here.
    map_decision_groups = None

    @abstractmethod
    def map_candidate_buckets(
        self,
        router,
        buckets: Buckets,
        states: Sequence[ObjectState],
        overlap_pools: OverlapPools = (),
    ) -> Tuple[List[Optional[List[CandidatePath]]], List[FsaOverlapStructure]]:
        """Return every state's candidate set (by position) and one built
        overlap structure per pool (by pool index)."""

    def map_stitch_buckets(self, router, tasks: StitchTasks) -> List[List[int]]:
        """Run the per-shard weld passes of the corridor-stitching merge.

        Each task holds one shard's hot fragments (with ownership flags); the
        pass is read-only and returns every shard's weld runs — serialized
        corridor chains whose consecutive pairs are the shard's welds (see
        :func:`repro.coordinator.stitching.weld_runs`).  The default maps the
        tasks inline; the process backend overrides to spread them over workers.
        """
        runs: List[List[int]] = []
        for shard_id in tasks:
            runs.extend(weld_runs(tasks[shard_id]))
        return runs

    def close(self) -> None:
        """Release pool resources; the backend may be lazily revived afterwards."""

    # -- shared helpers ---------------------------------------------------------

    @staticmethod
    def _candidates_inline(
        router, buckets: Buckets, states: Sequence[ObjectState]
    ) -> List[Optional[List[CandidatePath]]]:
        per_state: List[Optional[List[CandidatePath]]] = [None] * len(states)
        for shard_id, bucket in buckets.items():
            strategy = router.shards[shard_id].strategy
            for position, state in bucket:
                per_state[position] = strategy.candidate_paths(state)
        return per_state


class SerialBackend(ExecutionBackend):
    """The reference pipeline: every pass inline on the calling thread."""

    name = "serial"

    def map_candidate_buckets(self, router, buckets, states, overlap_pools=()):
        per_state = self._candidates_inline(router, buckets, states)
        return per_state, build_structures(
            overlap_pools, kernel=getattr(router, "kernel", "object")
        )


def _process_worker_main(connection) -> None:
    """Worker loop of :class:`ProcessBackend` (runs in the child process).

    Stateless: every message is self-contained and the worker keeps nothing
    between two of them but its shared-memory attachment.  A build message
    carries component FSA pools (flat float tuples in pool order) and is
    answered with the built structures as serialized region lists — region
    order is part of the answer, because first-encountered tie-breaks in the
    overlap queries depend on it.  It arrives either pickled over the pipe
    (``"work"`` with the kernel name, the object-kernel reference transport
    and the shared-memory fallback) or as a ``"work_shm"`` header naming the
    parent's shared-memory block (columnar kernel only), decoded into the
    exact same python shape before the common build below.
    """
    attachments: Dict[str, object] = {}
    while True:
        message = connection.recv()
        kind = message[0]
        if kind == "stop":
            close_attachments(attachments)
            connection.close()
            return
        if kind == "stitch":
            # Stitch tasks are self-contained fragment lists: weld each
            # shard's task, reply with the serialized corridor chains.
            runs = []
            for fragments in message[1]:
                runs.extend(weld_runs(fragments))
            connection.send(runs)
            continue
        if kind == "work_shm":
            kernel, overlap_tasks = "columnar", decode_work_shipment(message, attachments)
        else:
            _kind, kernel, overlap_tasks = message
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
                    overlap_tasks, build_structures(pools, kernel=kernel)
                )
            ]
        )


class ProcessBackend(ExecutionBackend):
    """Process-pool backend: overlap builds in stateless worker processes.

    The one thing this backend takes off the parent is the build of the
    epoch's cache-missed overlap components: pool ``i`` goes to worker
    ``i % workers`` as flat float tuples, the parent runs the candidate loop
    while the workers build, and the structures come back as serialized
    region lists.  A worker that is handed no pool is not messaged.  Workers
    hold no state, so a dead one — or one that misses
    :data:`_REPLY_DEADLINE_S` — is replaced by a bare fork, and whatever it
    owed this epoch is done in the parent instead of being re-sent.
    """

    name = "processes"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"worker count must be at least 1, got {workers}")
        self._workers = workers if workers is not None else _default_workers()
        self._processes: List = []
        self._connections: List = []
        self._rings: List[ShipmentRing] = []
        #: Workers replaced after dying (killed, crashed, restarted
        #: explicitly) or missing the reply deadline — excludes ordinary
        #: spawns.
        self.worker_restarts = 0
        #: Always 0 (``worker_restarts`` counts every replacement).  Kept only
        #: because ``bench/trace.py`` reads it (``bench/`` is frozen for
        #: source PRs); delete it with that read.
        self.workers_respawned = 0
        #: Build shipments delivered through shared memory, and shipments
        #: that fell back to the pickled pipe because the block could not be
        #: (re)allocated.
        self.shm_shipments = 0
        self.shm_fallbacks = 0

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
            self._rings.append(ShipmentRing())

    def _spawn(self):
        """Start one worker process; it needs nothing but its pipe."""
        context = self._spawn_context()
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_process_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
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
        """Deliver ``message``; ``False`` when the worker could not take it
        (it has been replaced, and the caller does the work itself)."""
        if not self._processes[worker].is_alive():
            self._respawn_worker(worker)
        try:
            self._connections[worker].send(message)
            return True
        except (BrokenPipeError, OSError):
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

    def map_candidate_buckets(self, router, buckets, states, overlap_pools=()):
        kernel = getattr(router, "kernel", "object")
        awaited = self._ship_pools(overlap_pools, kernel)
        # The parent's candidate loop overlaps the workers' builds.
        per_state = self._candidates_inline(router, buckets, states)
        structures: List[Optional[FsaOverlapStructure]] = [None] * len(overlap_pools)
        for worker in awaited:
            for pool_index, regions in self._reply(worker) or ():
                structures[pool_index] = FsaOverlapStructure.from_serialized(
                    regions, kernel=kernel
                )
        # Pools no worker answered for (see ``_send`` / ``_reply``).
        unanswered = [
            pool_index
            for pool_index, structure in enumerate(structures)
            if structure is None
        ]
        if unanswered:
            built = build_structures(
                [overlap_pools[pool_index] for pool_index in unanswered], kernel=kernel
            )
            for pool_index, structure in zip(unanswered, built):
                structures[pool_index] = structure
        return per_state, structures

    def _ship_pools(self, overlap_pools: OverlapPools, kernel: str) -> List[int]:
        """Send every worker its share of the pools; returns the workers that
        now owe a reply.  Under the columnar kernel a share is packed into the
        worker's shared block and only a constant-size header crosses the
        pipe (the header send is the happens-before edge; the worker decodes
        before answering, so the block is never read and rewritten
        concurrently)."""
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
        use_shm = HAVE_NUMPY and kernel == "columnar"
        awaited: List[int] = []
        for worker, share in enumerate(shares):
            if not share:
                continue
            message = None
            if use_shm:
                try:
                    message = self._rings[worker].pack(share)
                    self.shm_shipments += 1
                except (OSError, ValueError):
                    # Block (re)allocation failed (e.g. /dev/shm exhausted):
                    # the pickled pipe carries identical content, so degrade
                    # per-shipment and keep counting.
                    self.shm_fallbacks += 1
            if message is None:
                message = ("work", kernel, share)
            if self._send(worker, message):
                awaited.append(worker)
        return awaited

    def map_stitch_buckets(self, router, tasks):
        """Weld passes in the worker processes, one round trip per epoch.

        Shard ``s`` goes to worker ``s % workers``.  Fragments are shipped
        whole (id, endpoints, ownership flags); workers answer with their
        shards' weld runs.
        """
        self._ensure_workers()
        shares: List[list] = [[] for _ in self._processes]
        for shard_id, fragments in tasks.items():
            shares[shard_id % len(shares)].append(fragments)
        awaited = [
            worker
            for worker, share in enumerate(shares)
            if share and self._send(worker, ("stitch", share))
        ]
        runs: List[List[int]] = []
        for worker, share in enumerate(shares):
            reply = self._reply(worker) if worker in awaited else None
            if reply is None:
                reply = [run for fragments in share for run in weld_runs(fragments)]
            runs.extend(reply)
        return runs

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
        for ring in self._rings:
            ring.close(unlink=True)
        self._processes = []
        self._connections = []
        self._rings = []


def create_backend(name: str, workers: Optional[int] = None) -> ExecutionBackend:
    """Instantiate an execution backend by name (see :data:`BACKEND_NAMES`)."""
    if name == "serial":
        return SerialBackend()
    if name == "processes":
        return ProcessBackend(workers)
    raise ConfigurationError(
        f"unknown execution backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )
