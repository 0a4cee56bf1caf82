"""Execution backends for the sharded epoch pipeline, and conflict grouping.

:class:`~repro.coordinator.sharding.ShardedSinglePath` splits an epoch into a
*candidate stage* (read-only) and a *decision stage* (mutating).  Every
index read and every mutation stays in the calling process on every backend:
the Case 1 candidate pass is one dict probe per state under the columnar
kernel (the paper's constant-time hash of Section 5.1), cheaper than any
hand-off, so all backends run the serial backend's own loop over the
authoritative shard indexes.  What a backend decides is where the epoch's
cache-missed overlap components are *built* and how the decisions commit,
without giving up the bit-for-bit exactness contract of
``tests/test_sharding_equivalence.py``:

* :class:`SerialBackend` — the reference pipeline: every pass runs inline on
  the calling thread, decisions replay global submission order directly.
* :class:`ThreadBackend` — the builds of the epoch's overlap components are
  submitted to a thread pool; decisions commit concurrently, one thread per
  conflict group.
* :class:`ProcessBackend` — overlap builds run in persistent, *stateless*
  worker processes: a worker receives component FSA pools and returns built
  structures as ordered region lists, nothing else, so it is replaced after a
  crash or a missed reply deadline with no bootstrap; decisions commit on an
  in-process thread pool (index mutations must happen where the
  authoritative state lives).

A third, read-only pass rides the same machinery: the corridor-stitching weld
passes of :meth:`~repro.coordinator.sharding.ShardRouter.stitch_epoch` map
per-shard fragment tasks onto the pool via ``map_stitch_buckets`` (process
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
  message that epoch.  Pool identity is content-addressed (fingerprint of
  the member ``(object_id, FSA)`` tuples in pool order), so reuse survives
  any layout change and worker respawns untouched.
* *Weld passes.*  Delta mode never calls ``map_stitch_buckets`` at all: the
  router's query view (:mod:`repro.coordinator.query_view`) maintains weld
  chains under insert/expire events and answers corridor queries
  parent-side, patching only the chains the epoch's hotness transitions
  touched.  The ``full`` mode path below (and its process-worker ``stitch``
  message) remains the reference implementation the delta answers are pinned
  against bit for bit.

**Conflict groups.**  The decision stage of Algorithm 2 is sequential: within
an epoch, later objects observe the paths and crossings earlier objects
produced.  :func:`conflict_groups` partitions the epoch's states so that this
ordering only has to be enforced *within* a group.  The *shard footprint* of a
state is the shard owning its SSA start plus every shard its FSA overlaps;
two states conflict when their footprints intersect (or when they carry the
same object id, because duplicate reporters share one candidate set).  Groups
are the connected components of the conflict relation, computed with a
union-find over shard ids.

**Correctness argument** (why replaying submission order inside each group is
exactly equivalent to replaying it globally): every read and write a decision
performs stays inside the *connected component's* shard set — the union of
its member footprints.  A key lemma covers the one endpoint that can leave
the deciding state's own footprint: the Case 3 fabricated vertex is the
centroid of an overlap region that *intersects* the state's FSA, and that
centroid may lie outside the FSA (``candidate_vertex_for`` deliberately uses
the region's own centroid so co-reporters converge on one vertex).

*Lemma (fabricated centroids stay in the component).*  The region is the
intersection of its member reporters' FSAs, so its centroid ``c`` lies inside
**every** member's FSA, putting ``shard(c)`` in every member's footprint; and
the region intersects the adopter's FSA, so any point of that intersection is
a shard shared between the adopter and every member.  Hence the adopter, the
members, and ``shard(c)`` all sit in one union-find component, and any two
states that can adopt (or probe, or credit a crossing at) the same fabricated
vertex are transitively grouped together.

1. *Writes.*  A decision inserts at most one path ``start -> endpoint`` with
   ``start`` the state's SSA start and ``endpoint`` either a point of the
   state's FSA (Case 2 stored end vertices and every degenerate fall-back)
   or a fabricated centroid covered by the lemma; a Case 1 reuse writes
   nothing.  Grid entries land in the shards owning ``start`` and
   ``endpoint`` — both in the component.  Crossings are recorded with the
   chosen path's owner, which is the shard of the path's start vertex; every
   choosable path starts at the state's own SSA start (Case 1 candidates and
   ``_insert_or_reuse`` both require an exact start match), so hotness
   writes also stay in the component.  With duplicate object ids a state may
   adopt the *other* reporter's candidate set, whose paths start at the
   other state's SSA start; unioning duplicate reporters keeps that shard in
   the component too.
2. *Reads.*  Case 1 candidate sets and their co-occurrence boost are computed
   before any decision runs, from the pre-epoch snapshot — identical in the
   serial and grouped replays.  The epoch's one FSA overlap structure is
   built at the same barrier and is read-only, so grouped and serial replays
   read the same regions.  ``end_vertices_in(fsa)`` touches only
   shards overlapping the FSA, and the ``paths_from_into`` reuse probe
   touches the shard of the probed endpoint (an FSA point or a lemma-covered
   centroid).  The one read that can leave the component... cannot: the
   hotness of a path ending inside the FSA but *owned* (started) elsewhere
   cannot be written by another group in the same epoch, because any writer
   must have chosen that path, which requires the path's end vertex to be
   the writer's chosen endpoint — inside the writer's FSA or a fabricated
   centroid, and in both cases the end vertex is a shard shared (directly or
   through the lemma) with the reader, i.e. the writer is in the same group.
3. *Path ids.*  No decision compares the numeric id of a path inserted in the
   same epoch (intra-epoch paths never appear in Case 1 candidate sets, and
   the reuse probe matches on geometry), so groups commit with provisional
   ids and the router renumbers the epoch's insertions in global submission
   order afterwards — reproducing the exact ids the serial replay allocates.

Maintainers: the grouping must remain *component-based*; replacing it with
per-state footprint locking would break the lemma's transitive coverage of
fabricated centroids and race only probabilistically.

Expiry pops are unaffected: per-shard event heaps receive pushes from a
single group per epoch, and heap pops drain in sorted ``(expiry, path_id)``
order regardless of the internal arrangement a rebuild produces.
"""

from __future__ import annotations

import logging
import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
from repro.coordinator.single_path import CandidatePath, SinglePathDecision
from repro.coordinator.stitching import StitchFragment, weld_runs

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
    "conflict_groups",
]

#: Names accepted by :func:`create_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES: Tuple[str, ...] = ("serial", "threads", "processes")

#: ``(position, state)`` pairs grouped by owning shard id.
Buckets = Dict[int, List[Tuple[int, ObjectState]]]

#: The component pools of one epoch's overlap plan that need building.
OverlapPools = Sequence[Mapping[int, Rectangle]]

#: Per-shard stitch tasks: hot fragments with ownership flags (see
#: :data:`repro.coordinator.stitching.StitchFragment`), grouped by shard id.
StitchTasks = Dict[int, List[StitchFragment]]

#: A conflict group: the positions of its member states, in submission order.
Group = List[int]

#: Decision-stage callback: replays one group, returning ``(position, decision)``.
GroupCommit = Callable[[Group], List[Tuple[int, SinglePathDecision]]]


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


def _chunk(items: list, chunks: int) -> List[list]:
    """Round-robin ``items`` into at most ``chunks`` non-empty lists.

    Worker tasks carry a chunk rather than a single bucket/group: per-task
    pool overhead is paid ``O(workers)`` times per epoch instead of
    ``O(shards + groups)`` times, which matters for the many small epochs a
    live stream produces.
    """
    if not items:
        return []
    buckets = [items[offset::chunks] for offset in range(min(chunks, len(items)))]
    return buckets


# ---------------------------------------------------------------------------
# Conflict grouping
# ---------------------------------------------------------------------------


def conflict_groups(states: Sequence[ObjectState], grid) -> List[Group]:
    """Partition an epoch's states into independently committable groups.

    ``grid`` is the router's :class:`~repro.coordinator.sharding.ShardGrid`.
    Two states land in the same group when their shard footprints (owner of
    the SSA start plus all shards overlapped by the FSA) intersect, or when
    they report the same object id.  Groups list member positions in
    submission order; the group list itself is ordered by first member, so
    the partition is deterministic.
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

    groups: Dict[int, Group] = {}
    for position, anchor in enumerate(anchors):
        groups.setdefault(find(anchor), []).append(position)
    return sorted(groups.values(), key=lambda group: group[0])


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ExecutionBackend(ABC):
    """How the sharded epoch pipeline maps its stages onto workers.

    ``map_candidate_buckets`` runs the read-only stage 2: the per-shard
    Case 1 candidate scans — inline on every backend, the serial backend's
    own loop over the authoritative shard indexes, which is the path the
    exactness contract pins — *and* the FSA overlap structure builds, one per
    component pool of the epoch's overlap plan, wherever this backend builds
    them (under ``delta`` epoch mode the pipeline pre-filters this argument
    to the cache-missed pools only, so backends always build exactly what
    they are handed); ``map_decision_groups`` replays the decision stage
    over conflict groups.  Backends with ``parallel_decisions = False`` never
    receive the latter call — the pipeline replays global submission order
    inline.
    """

    name: str = "abstract"
    parallel_decisions: bool = False

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

    def map_decision_groups(
        self, groups: List[Group], commit: GroupCommit
    ) -> List[List[Tuple[int, SinglePathDecision]]]:
        """Commit every conflict group, returning the per-group decision lists."""
        raise NotImplementedError(f"{self.name} backend does not parallelise decisions")

    def map_stitch_buckets(self, router, tasks: StitchTasks) -> List[List[int]]:
        """Run the per-shard weld passes of the corridor-stitching merge.

        Each task holds one shard's hot fragments (with ownership flags); the
        pass is read-only and returns every shard's weld runs — serialized
        corridor chains whose consecutive pairs are the shard's welds (see
        :func:`repro.coordinator.stitching.weld_runs`).  The default maps the
        tasks inline; pool backends override to spread them over workers.
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
    """The reference pipeline: everything inline, decisions in global order."""

    name = "serial"
    parallel_decisions = False

    def map_candidate_buckets(self, router, buckets, states, overlap_pools=()):
        per_state = self._candidates_inline(router, buckets, states)
        return per_state, build_structures(
            overlap_pools, kernel=getattr(router, "kernel", "object")
        )


class ThreadBackend(ExecutionBackend):
    """Thread-pool backend: chunked overlap builds and conflict groups.

    The builds are read-only; the decision stage relies on the
    conflict-group footprint argument in the module docstring (groups touch
    disjoint shards, and the only shared structures — the owner table and
    per-shard hotness tables — are only ever written for keys no other group
    reads).

    Both stages are pure-Python CPU-bound work, so on a standard CPython
    build the GIL caps this backend at serial throughput — it exists for
    free-threaded (PEP 703) builds, as the decision pool of
    :class:`ProcessBackend`, and as the simplest harness for exercising the
    conflict-group commit machinery.  For multi-core wins on stock CPython
    use ``processes``.
    """

    name = "threads"
    parallel_decisions = True

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"worker count must be at least 1, got {workers}")
        self._workers = workers if workers is not None else _default_workers()
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-epoch"
            )
        return self._pool

    def map_candidate_buckets(self, router, buckets, states, overlap_pools=()):
        pool = self._ensure_pool()
        kernel = getattr(router, "kernel", "object")

        def run_builds(items):
            built = build_structures(
                [fsa_pool for _index, fsa_pool in items], kernel=kernel
            )
            return [(index, structure) for (index, _), structure in zip(items, built)]

        build_futures = [
            pool.submit(run_builds, chunk)
            for chunk in _chunk(list(enumerate(overlap_pools)), self._workers)
        ]
        # The calling thread's candidate loop overlaps the pool's builds
        # (both are read-only).
        per_state = self._candidates_inline(router, buckets, states)
        structures: List[Optional[FsaOverlapStructure]] = [None] * len(overlap_pools)
        for future in build_futures:
            for index, structure in future.result():
                structures[index] = structure
        return per_state, structures

    def map_decision_groups(self, groups, commit):
        pool = self._ensure_pool()

        def run_groups(chunk):
            outcomes = []
            for group in chunk:
                outcomes.extend(commit(group))
            return outcomes

        return list(pool.map(run_groups, _chunk(groups, self._workers)))

    def map_stitch_buckets(self, router, tasks):
        pool = self._ensure_pool()

        def run_tasks(items):
            runs = []
            for _shard_id, fragments in items:
                runs.extend(weld_runs(fragments))
            return runs

        runs: List[List[int]] = []
        for chunk_runs in pool.map(run_tasks, _chunk(list(tasks.items()), self._workers)):
            runs.extend(chunk_runs)
        return runs

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


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
    Decisions commit on an in-process thread pool — they mutate the
    authoritative state, which only exists in the parent.
    """

    name = "processes"
    parallel_decisions = True

    def __init__(self, workers: Optional[int] = None) -> None:
        # The decision pool validates the width and resolves its default.
        self._decision_pool = ThreadBackend(workers)
        self._workers = self._decision_pool._workers
        self._processes: List = []
        self._connections: List = []
        self._rings: List[ShipmentRing] = []
        #: Workers replaced after dying (killed, crashed, restarted
        #: explicitly) or missing the reply deadline — excludes ordinary
        #: spawns.
        self.worker_restarts = 0
        #: Always 0: no migration respawns a stateless worker.  Kept only
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

    def map_decision_groups(self, groups, commit):
        return self._decision_pool.map_decision_groups(groups, commit)

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
        self._decision_pool.close()


def create_backend(name: str, workers: Optional[int] = None) -> ExecutionBackend:
    """Instantiate an execution backend by name (see :data:`BACKEND_NAMES`)."""
    if name == "serial":
        return SerialBackend()
    if name == "threads":
        return ThreadBackend(workers)
    if name == "processes":
        return ProcessBackend(workers)
    raise ConfigurationError(
        f"unknown execution backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )
