"""Execution backends for the sharded epoch pipeline, and conflict grouping.

:class:`~repro.coordinator.sharding.ShardedSinglePath` splits an epoch into a
*candidate stage* (per-shard, read-only) and a *decision stage* (mutating).
This module provides the worker-pool machinery that runs both stages
concurrently without giving up the bit-for-bit exactness contract of
``tests/test_sharding_equivalence.py``:

* :class:`SerialBackend` — the reference pipeline: every pass runs inline on
  the calling thread, decisions replay global submission order directly.
* :class:`ThreadBackend` — per-shard candidate passes and the builds of the
  epoch's overlap components are submitted to a thread pool; decisions commit
  concurrently, one thread per conflict group.
* :class:`ProcessBackend` — candidate passes and overlap builds run in
  persistent worker processes, each holding a replica of every shard's
  start-entry grid index kept in sync through the router's mutation journal
  (component FSA pools are shipped per epoch and built structures return as
  ordered region lists); decisions commit on an in-process thread pool
  (index mutations must happen where the authoritative state lives).

A third, read-only pass rides the same machinery: the corridor-stitching weld
passes of :meth:`~repro.coordinator.sharding.ShardRouter.stitch_epoch` map
per-shard fragment tasks onto the pool via ``map_stitch_buckets`` (process
workers receive self-contained fragment tuples — no replica or journal
involvement — and return serialized corridor chains).

**Delta shipping.**  Under the default ``delta`` epoch mode the pipeline
ships workers *deltas*, not full epoch state, through the very same backend
API — no backend needs delta awareness:

* *Overlap pools.*  The router's cross-epoch
  :class:`~repro.coordinator.overlaps.OverlapPoolCache` resolves each epoch's
  overlap components first, and only the cache-missed (dirtied) pools reach
  ``map_candidate_buckets``.  Process replicas therefore stop receiving full
  per-epoch pool shipments: an unchanged pool is reused parent-side and
  never crosses the pipe again.  Pool identity is content-addressed
  (fingerprint of the member ``(object_id, FSA)`` tuples in pool order), so
  reuse survives any layout change and worker respawns untouched.
* *Weld passes.*  Delta mode never calls ``map_stitch_buckets`` at all: the
  router's :class:`~repro.coordinator.stitching.IncrementalStitcher`
  maintains weld chains under insert/expire events and answers corridor
  queries parent-side, patching only the chains the epoch's membership delta
  touched.  The ``full`` mode path below (and its process-worker ``stitch``
  message) remains the reference implementation the delta answers are pinned
  against bit for bit.
* *Index mutations.*  These were already delta-shipped: the mutation journal
  sends each replica only the insert/delete/renumber ops it is missing.

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

import heapq
import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Rectangle
from repro.client.state import ObjectState
from repro.coordinator.columnar import HAVE_NUMPY, ShipmentRing
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


def _default_workers() -> int:
    """Pool width: one slot per core, but at least two so the concurrent code
    paths are genuinely exercised even on single-core containers."""
    return max(2, min(8, os.cpu_count() or 1))


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

    ``map_candidate_buckets`` runs the read-only stage-2 worker pass: the
    per-shard Case 1 candidate scans *and* the FSA overlap structure builds
    (one per component pool of the epoch's overlap plan — under ``delta``
    epoch mode the pipeline pre-filters this argument to the cache-missed
    pools only, so backends always build exactly what they are handed);
    ``map_decision_groups`` replays the decision stage
    over conflict groups.  Backends with ``parallel_decisions = False`` never receive the
    latter call — the pipeline replays global submission order inline.
    ``needs_journal`` tells the router whether to record its mutation journal
    (only the process backend consumes it).
    """

    name: str = "abstract"
    parallel_decisions: bool = False
    needs_journal: bool = False

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

    def on_rebalance(self, fleet_update: Optional[dict] = None) -> None:
        """The router migrated its fleet to a new partition.

        Backends reading live router state (serial, threads) need no action;
        backends holding replicated state (processes) must react — the shard
        bounds, record placement and load-aware worker assignment may all
        have changed, and the router reset its journal.  ``fleet_update``
        (when provided) describes the migration: ``unchanged`` is the set of
        shard ids whose replica-visible state is identical across it,
        ``num_shards`` the new fleet size and ``loads`` the new per-shard
        record counts — enough for a replicating backend to keep untouched
        replicas alive and respawn or retire the rest lazily.  ``None``
        means "assume everything changed".
        """

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
    """Thread-pool backend: chunked shard buckets and conflict groups.

    The candidate stage is read-only, so per-shard passes are safe to run
    concurrently; the decision stage relies on the conflict-group footprint
    argument in the module docstring (groups touch disjoint shards, and the
    only shared structures — the owner table and per-shard hotness tables —
    are only ever written for keys no other group reads).

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
        per_state: List[Optional[List[CandidatePath]]] = [None] * len(states)
        kernel = getattr(router, "kernel", "object")

        def run_buckets(items):
            answers = []
            for shard_id, bucket in items:
                strategy = router.shards[shard_id].strategy
                answers.extend(
                    (position, strategy.candidate_paths(state)) for position, state in bucket
                )
            return answers

        def run_builds(items):
            built = build_structures(
                [fsa_pool for _index, fsa_pool in items], kernel=kernel
            )
            return [(index, structure) for (index, _), structure in zip(items, built)]

        # Candidate chunks and overlap builds share the pool; both are
        # read-only, so they interleave freely across the workers.
        bucket_futures = [
            pool.submit(run_buckets, chunk)
            for chunk in _chunk(list(buckets.items()), self._workers)
        ]
        build_futures = [
            pool.submit(run_builds, chunk)
            for chunk in _chunk(list(enumerate(overlap_pools)), self._workers)
        ]
        for future in bucket_futures:
            for position, candidates in future.result():
                per_state[position] = candidates
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


def _process_worker_main(connection, shard_configs, snapshot_ops, kernel="object") -> None:
    """Worker loop of :class:`ProcessBackend` (runs in the child process).

    Maintains a replica of the *start-entry* grid index of each shard this
    worker is assigned — the only structure the candidate pass reads —
    bootstrapped from a snapshot of the live records and kept fresh by
    replaying the worker's slice of the router's mutation journal, and
    answers batched ``paths_starting_at`` queries.  It also builds its slice
    of the epoch's overlap components from the FSA pools the
    parent ships (flat float tuples in pool order) and returns them as
    serialized region lists — region order is part of the answer, because
    first-encountered tie-breaks in the overlap queries depend on it.

    Work shipments arrive either pickled over the pipe (``"work"``, the
    object-kernel reference transport) or as a ``"work_shm"`` header naming
    the parent's shared-memory block (columnar kernel), decoded into the
    exact same python shapes before the common loop below — the transport
    is invisible to the replica logic.
    """
    from repro.core.geometry import Point, Rectangle
    from repro.coordinator.columnar import close_attachments, decode_work_shipment
    from repro.coordinator.grid_index import GridConfig, GridIndex
    from repro.coordinator.overlaps import build_structures as _build_structures
    from repro.coordinator.stitching import weld_runs as _weld_runs
    from repro.core.motion_path import MotionPath, MotionPathRecord

    replicas: Dict[int, GridIndex] = {}
    for shard_id, (b_lx, b_ly, b_hx, b_hy), cells in shard_configs:
        bounds = Rectangle(Point(b_lx, b_ly), Point(b_hx, b_hy))
        replicas[shard_id] = GridIndex(GridConfig(bounds, cells), kernel=kernel)
    attachments: Dict[str, object] = {}

    def apply(ops) -> None:
        for op in ops:
            if op[0] == "i":
                _tag, path_id, shard_id, s_x, s_y, e_x, e_y, created_at = op
                record = MotionPathRecord(
                    path_id, MotionPath(Point(s_x, s_y), Point(e_x, e_y)), created_at
                )
                replicas[shard_id].register(record)
                replicas[shard_id].add_entry(record, is_start=True)
            elif op[0] == "d":
                _tag, path_id, shard_id = op
                record = replicas[shard_id].get(path_id)
                replicas[shard_id].remove_entry(path_id, record.path.start, is_start=True)
                replicas[shard_id].unregister(path_id)
            else:  # ("r", provisional_id, final_id, shard_id): commit renumber
                _tag, old_id, new_id, shard_id = op
                replica = replicas[shard_id]
                record = replica.get(old_id)
                replica.remove_entry(old_id, record.path.start, is_start=True)
                replica.unregister(old_id)
                record.path_id = new_id
                replica.register(record)
                replica.add_entry(record, is_start=True)

    apply(snapshot_ops)
    while True:
        message = connection.recv()
        kind = message[0]
        if kind == "stop":
            close_attachments(attachments)
            connection.close()
            return
        if kind == "stitch":
            # Stitch tasks are self-contained fragment lists (no replica or
            # journal involvement): weld each shard's task, reply with the
            # serialized corridor chains.
            runs = []
            for fragments in message[1]:
                runs.extend(_weld_runs(fragments))
            connection.send(runs)
            continue
        if kind == "work_shm":
            ops, tasks, overlap_tasks = decode_work_shipment(message, attachments)
        else:
            _kind, ops, tasks, overlap_tasks = message
        apply(ops)
        answers = []
        for position, shard_id, s_x, s_y, f_lx, f_ly, f_hx, f_hy in tasks:
            records = replicas[shard_id].paths_starting_at(
                Point(s_x, s_y), Rectangle(Point(f_lx, f_ly), Point(f_hx, f_hy))
            )
            answers.append((position, [record.path_id for record in records]))
        pools = [
            {
                object_id: Rectangle(Point(f_lx, f_ly), Point(f_hx, f_hy))
                for object_id, f_lx, f_ly, f_hx, f_hy in members
            }
            for _pool_index, members in overlap_tasks
        ]
        overlap_answers = [
            (pool_index, structure.serialized())
            for (pool_index, _members), structure in zip(
                overlap_tasks, _build_structures(pools, kernel=kernel)
            )
        ]
        connection.send((answers, overlap_answers))


class ProcessBackend(ExecutionBackend):
    """Process-pool backend: candidate passes on replicated shard indexes.

    Each persistent worker owns replicas of the start-entry indexes of its
    assigned shards — assigned load-aware at spawn time
    (:meth:`assign_shards`: heaviest shard onto the least-loaded worker,
    from the same per-shard record counts the rebalance protocol reads) —
    bootstrapped from a snapshot of the live records at spawn time and fed
    its slice of the router's mutation journal at the start of each epoch
    (replication is cheap: one small tuple per insert or delete, partitioned
    across the pool, and the journal prefix every worker has replayed is
    dropped each epoch).  A partition rebalance discards the fleet
    (:meth:`on_rebalance`); the next epoch respawns it against the migrated
    shards with a fresh assignment.  The parent ships each worker its shard buckets as flat float
    tuples and receives candidate *path ids*; records and hotness are
    attached parent-side from the authoritative index, so replicas never
    need the hotness tables.  Decisions commit on an in-process thread pool —
    they mutate the authoritative state, which only exists in the parent.
    """

    name = "processes"
    parallel_decisions = True
    needs_journal = True

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"worker count must be at least 1, got {workers}")
        self._requested_workers = workers
        self._processes: List = []
        self._connections: List = []
        self._journal_seqs: List[int] = []
        self._assignment: Dict[int, int] = {}
        self._decision_pool = ThreadBackend(workers)
        self._rings: List[ShipmentRing] = []
        #: Workers respawned after dying (killed, crashed, or restarted
        #: explicitly) — excludes ordinary spawns and rebalance respawns.
        self.worker_restarts = 0
        #: Rebalance outcomes, worker by worker: ``workers_reused`` counts
        #: workers whose replicas survived a migration untouched (their
        #: assigned shards were unchanged, so the fleet kept them alive);
        #: ``workers_respawned`` counts live workers rebuilt lazily because
        #: a migration changed their shards.  A stop-the-world rebalance
        #: tears the whole fleet down and counts under neither.
        self.workers_reused = 0
        self.workers_respawned = 0
        #: Workers marked stale by :meth:`on_rebalance` — their replicas no
        #: longer match the fleet and they are respawned lazily the next
        #: time the pipeline touches them.
        self._stale_workers: set = set()
        #: Epoch shipments delivered through shared memory, and shipments
        #: that fell back to the pickled pipe because the block could not be
        #: (re)allocated.  Respawn and re-answer sends are always pickled —
        #: they are rare, and inline shipping keeps recovery self-contained.
        self.shm_shipments = 0
        self.shm_fallbacks = 0

    # -- worker lifecycle -------------------------------------------------------

    @staticmethod
    def _spawn_context():
        """Fork on Linux (fast, and our workers inherit nothing they use);
        the default context elsewhere (fork is unavailable on Windows and
        unsafe under threads on macOS).  Workers are fully rebuilt from their
        pickled arguments either way."""
        import multiprocessing
        import sys

        if sys.platform.startswith("linux"):
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    @staticmethod
    def assign_shards(
        loads: Sequence[int],
        workers: int,
        previous: Optional[Mapping[int, int]] = None,
    ) -> Dict[int, int]:
        """Load-aware shard→worker assignment (longest-processing-time greedy).

        ``loads[shard_id]`` is the shard's current record count.  Shards are
        placed heaviest-first onto the least-loaded worker, so one hot
        downtown shard no longer drags its modulo-siblings' replicas behind
        it the way the old static ``shard_id % workers`` split did.  Ties
        break by shard id and worker index, making the assignment a
        deterministic function of the load vector.

        ``previous`` pins shards to their existing workers (stability across
        rebalances): pinned shards keep their worker — seeding that worker's
        load — and only the remaining shards are LPT-placed.  Pins naming a
        shard outside ``loads`` or a worker outside the pool are ignored.
        With identical loads and a full pin set the result is exactly
        ``previous``, which is what lets an elastic migration that left a
        worker's shards untouched keep that worker's replicas alive.
        """
        if workers < 1:
            raise ConfigurationError(f"worker count must be at least 1, got {workers}")
        assignment: Dict[int, int] = {}
        # (total load, shards held, worker): the shard count breaks load
        # ties, so a fresh all-zero fleet still spreads round-robin instead
        # of piling every shard onto worker 0.
        totals = [0] * workers
        held = [0] * workers
        if previous:
            for shard_id, worker in sorted(previous.items()):
                if 0 <= shard_id < len(loads) and 0 <= worker < workers:
                    assignment[shard_id] = worker
                    totals[worker] += loads[shard_id]
                    held[worker] += 1
        worker_loads = [
            (totals[worker], held[worker], worker) for worker in range(workers)
        ]
        heapq.heapify(worker_loads)
        for load, shard_id in sorted(
            (
                (load, shard_id)
                for shard_id, load in enumerate(loads)
                if shard_id not in assignment
            ),
            key=lambda item: (-item[0], item[1]),
        ):
            total, count, worker = heapq.heappop(worker_loads)
            assignment[shard_id] = worker
            heapq.heappush(worker_loads, (total + load, count + 1, worker))
        return assignment

    def _ensure_workers(self, router) -> None:
        if self._processes:
            return
        workers = self._requested_workers
        if workers is None:
            workers = _default_workers()
        # More workers than shards would leave the excess holding no
        # replicas, replaying empty journal slices and answering empty
        # epochs forever — clamp instead of spawning dead processes.
        workers = max(1, min(workers, len(router.shards)))
        # Each worker replicates only its assigned shards, so replica memory
        # and journal replay are partitioned, not multiplied, across the
        # pool.  The assignment is load-aware: it balances the shards'
        # current record counts (the same statistics the rebalance protocol
        # reads) and is recomputed whenever the pool respawns — including
        # after a partition migration.
        self._assignment = self.assign_shards(
            [len(shard.index) for shard in router.shards], workers
        )
        payloads = self._worker_payloads(router, range(workers))
        journal_seq = len(router.journal)
        for worker in range(workers):
            process, connection = self._spawn(router, payloads[worker])
            self._processes.append(process)
            self._connections.append(connection)
            self._journal_seqs.append(journal_seq)
            self._rings.append(ShipmentRing())

    def _worker_payloads(self, router, workers) -> Dict[int, Tuple[list, list]]:
        """Bootstrap ``(shard_configs, snapshot_ops)`` for each of ``workers``.

        One pass over the fleet under the current assignment: spawn asks for
        every worker, respawn for one.  The snapshot holds the live records
        only — replicas never need journal history from before they spawn,
        so the journal can be truncated as soon as every worker has replayed
        it (see ``map_candidate_buckets``).  Snapshot ops are drawn from
        ``router.owners`` in insertion order, which is also the order a
        continuously journal-fed replica ends up holding survivors in — so a
        respawned replica answers identically.
        """
        payloads: Dict[int, Tuple[list, list]] = {worker: ([], []) for worker in workers}
        for shard in router.shards:
            payload = payloads.get(self._assignment[shard.shard_id])
            if payload is not None:
                grid = shard.index.config
                payload[0].append(
                    (
                        shard.shard_id,
                        (
                            grid.bounds.low.x,
                            grid.bounds.low.y,
                            grid.bounds.high.x,
                            grid.bounds.high.y,
                        ),
                        grid.cells_per_axis,
                    )
                )
        for path_id, shard in router.owners.items():
            payload = payloads.get(self._assignment[shard.shard_id])
            if payload is not None:
                record = shard.index.get(path_id)
                payload[1].append(
                    (
                        "i",
                        path_id,
                        shard.shard_id,
                        record.path.start.x,
                        record.path.start.y,
                        record.path.end.x,
                        record.path.end.y,
                        record.created_at,
                    )
                )
        return payloads

    def _spawn(self, router, payload: Tuple[list, list]):
        """Start one worker process from its bootstrap payload."""
        context = self._spawn_context()
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_process_worker_main,
            args=(child_conn, *payload, getattr(router, "kernel", "object")),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _worker_of(self, shard_id: int) -> int:
        return self._assignment[shard_id]

    # -- worker fault handling --------------------------------------------------

    @property
    def worker_count(self) -> int:
        """Number of spawned worker processes (0 before the first epoch)."""
        return len(self._processes)

    def workers_alive(self) -> List[bool]:
        """Liveness of each spawned worker, by worker index."""
        return [process.is_alive() for process in self._processes]

    def worker_for_shard(self, shard_id: int) -> Optional[int]:
        """The worker replicating ``shard_id`` (``None`` before spawn)."""
        return self._assignment.get(shard_id)

    def kill_worker(self, worker: int) -> None:
        """Fault-injection hook: hard-kill one worker process, no cleanup.

        Leaves the dead process in the fleet exactly as a crash would — the
        next pipeline round trip detects it and respawns (or call
        :meth:`restart_worker` to respawn eagerly).
        """
        if not 0 <= worker < len(self._processes):
            raise ConfigurationError(
                f"no worker {worker}; fleet has {len(self._processes)} workers"
            )
        self._processes[worker].terminate()
        self._processes[worker].join(timeout=5)

    def restart_worker(self, router, shard_id: int) -> int:
        """Respawn the worker replicating ``shard_id``; returns its index.

        The explicit recovery path callable from *outside*
        :meth:`on_rebalance` — the prerequisite for kill-worker fault
        injection.  The replacement worker bootstraps from a snapshot of the
        live router state for its assigned shards (the same journal-replay
        ``apply`` machinery a fresh spawn uses — a snapshot is exactly the
        journal with its dead prefix compacted away) and resumes consuming
        the journal from the current position.  Spawns the whole fleet first
        when no workers are up; safe between pipeline stages because the
        candidate and stitch passes are read-only.
        """
        self._ensure_workers(router)
        worker = self._assignment.get(shard_id)
        if worker is None:
            raise ConfigurationError(
                f"no shard {shard_id}; fleet replicates shards "
                f"{sorted(self._assignment)}"
            )
        self._respawn_worker(worker, router)
        return worker

    def _respawn_worker(self, worker: int, router) -> None:
        """Replace one worker with a fresh process snapshotted from live state."""
        process = self._processes[worker]
        # A live worker replaced because a migration changed its shards is a
        # planned refresh (workers_respawned); a dead one is crash recovery
        # (worker_restarts) whether or not a migration also touched it.
        stale_refresh = worker in self._stale_workers and process.is_alive()
        self._stale_workers.discard(worker)
        if process.is_alive():
            process.terminate()
        process.join(timeout=5)
        try:
            self._connections[worker].close()
        except OSError:  # pragma: no cover - defensive cleanup
            pass
        payload = self._worker_payloads(router, [worker])[worker]
        self._processes[worker], self._connections[worker] = self._spawn(router, payload)
        # The snapshot already reflects every journaled mutation, so the new
        # replica resumes from the journal's current tail.
        self._journal_seqs[worker] = len(router.journal)
        if stale_refresh:
            self.workers_respawned += 1
        else:
            self.worker_restarts += 1

    @staticmethod
    def _op_shard(op) -> int:
        """The shard a journal op belongs to (position varies by op tag)."""
        return op[3] if op[0] == "r" else op[2]

    # -- pipeline stages --------------------------------------------------------

    def map_candidate_buckets(self, router, buckets, states, overlap_pools=()):
        self._ensure_workers(router)
        journal = router.journal
        journal_length = len(journal)
        tasks_per_worker: List[list] = [[] for _ in self._processes]
        for shard_id, bucket in buckets.items():
            tasks = tasks_per_worker[self._worker_of(shard_id)]
            for position, state in bucket:
                tasks.append(
                    (
                        position,
                        shard_id,
                        state.start.x,
                        state.start.y,
                        state.fsa_low.x,
                        state.fsa_low.y,
                        state.fsa_high.x,
                        state.fsa_high.y,
                    )
                )
        # Overlap builds ride the same round trip: each component pool is
        # statically assigned to a worker (pool_index % workers) and shipped
        # as flat float tuples; the worker returns the built structure as a
        # serialized region list.
        overlap_tasks_per_worker: List[list] = [[] for _ in self._processes]
        worker_count = len(self._processes)
        for pool_index, fsa_pool in enumerate(overlap_pools):
            overlap_tasks_per_worker[pool_index % worker_count].append(
                (
                    pool_index,
                    [
                        (object_id, fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y)
                        for object_id, fsa in fsa_pool.items()
                    ],
                )
            )
        # One round trip per worker per epoch: every worker receives its
        # slice of the journal suffix it is missing (keeping all replicas
        # fresh even on idle epochs) together with its shard buckets and
        # overlap pools.  A dead worker (killed, crashed) is respawned from
        # a live-state snapshot first — the snapshot subsumes its journal
        # slice, so the replacement is sent an empty one.  Under the
        # columnar kernel the shipment is packed into the worker's shared
        # block and only a constant-size header crosses the pipe (the
        # header send is the happens-before edge; the worker decodes before
        # answering, so the block is never read and rewritten concurrently).
        use_shm = HAVE_NUMPY and getattr(router, "kernel", "object") == "columnar"
        for worker in range(len(self._connections)):
            if worker in self._stale_workers or not self._processes[worker].is_alive():
                self._respawn_worker(worker, router)
                ops = []
            else:
                ops = [
                    op
                    for op in journal[self._journal_seqs[worker] : journal_length]
                    if self._assignment[self._op_shard(op)] == worker
                ]
            payload = None
            if use_shm:
                try:
                    payload = self._rings[worker].pack(
                        ops, tasks_per_worker[worker], overlap_tasks_per_worker[worker]
                    )
                    self.shm_shipments += 1
                except (OSError, ValueError):
                    # Block (re)allocation failed (e.g. /dev/shm exhausted):
                    # the pickled pipe carries identical content, so degrade
                    # per-shipment and keep counting.
                    self.shm_fallbacks += 1
            if payload is None:
                payload = (
                    "work", ops, tasks_per_worker[worker], overlap_tasks_per_worker[worker]
                )
            try:
                self._connections[worker].send(payload)
            except (BrokenPipeError, OSError):
                self._respawn_worker(worker, router)
                self._connections[worker].send(
                    ("work", [], tasks_per_worker[worker], overlap_tasks_per_worker[worker])
                )
            self._journal_seqs[worker] = journal_length
        # Every replica has now replayed its slice of the journal prefix, and
        # freshly spawned workers bootstrap from a snapshot instead of
        # history — so the prefix is dead and the journal stays bounded by
        # epoch churn.
        del journal[:journal_length]
        self._journal_seqs = [seq - journal_length for seq in self._journal_seqs]
        per_state: List[Optional[List[CandidatePath]]] = [None] * len(states)
        structures: List[Optional[FsaOverlapStructure]] = [None] * len(overlap_pools)
        index, hotness = router.index, router.hotness
        kernel = getattr(router, "kernel", "object")
        for worker in range(len(self._connections)):
            try:
                answers, overlap_answers = self._connections[worker].recv()
            except (EOFError, OSError):
                # The worker died after accepting the work message.  The
                # candidate pass is read-only and pre-commit, so a respawn
                # from the live snapshot can safely re-answer the same tasks
                # (its snapshot subsumes the journal slice already sent).
                self._respawn_worker(worker, router)
                self._connections[worker].send(
                    ("work", [], tasks_per_worker[worker], overlap_tasks_per_worker[worker])
                )
                answers, overlap_answers = self._connections[worker].recv()
            for position, path_ids in answers:
                per_state[position] = [
                    CandidatePath(index.get(path_id), hotness.hotness(path_id) + 1)
                    for path_id in path_ids
                ]
            for pool_index, regions in overlap_answers:
                structures[pool_index] = FsaOverlapStructure.from_serialized(
                    regions, kernel=kernel
                )
        return per_state, structures

    def map_decision_groups(self, groups, commit):
        return self._decision_pool.map_decision_groups(groups, commit)

    def map_stitch_buckets(self, router, tasks):
        """Weld passes in the worker processes, one round trip per epoch.

        Shard tasks follow the load-aware shard→worker assignment.  Fragments are
        shipped whole (id, endpoints, ownership flags), so replica freshness
        is irrelevant and the journal is untouched; workers answer with their
        shards' weld runs.
        """
        self._ensure_workers(router)
        worker_count = len(self._processes)
        tasks_per_worker: List[list] = [[] for _ in range(worker_count)]
        for shard_id, fragments in tasks.items():
            tasks_per_worker[self._worker_of(shard_id)].append(fragments)
        for worker in range(worker_count):
            if worker in self._stale_workers or not self._processes[worker].is_alive():
                self._respawn_worker(worker, router)
            try:
                self._connections[worker].send(("stitch", tasks_per_worker[worker]))
            except (BrokenPipeError, OSError):
                self._respawn_worker(worker, router)
                self._connections[worker].send(("stitch", tasks_per_worker[worker]))
        runs: List[List[int]] = []
        for worker in range(worker_count):
            try:
                runs.extend(self._connections[worker].recv())
            except (EOFError, OSError):
                # Stitch tasks are self-contained and read-only: respawn and
                # re-ask the same question.
                self._respawn_worker(worker, router)
                self._connections[worker].send(("stitch", tasks_per_worker[worker]))
                runs.extend(self._connections[worker].recv())
        return runs

    def _shutdown_workers(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("stop",))
                connection.close()
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
        for ring in self._rings:
            ring.close(unlink=True)
        self._processes = []
        self._connections = []
        self._journal_seqs = []
        self._assignment = {}
        self._rings = []
        self._stale_workers = set()

    def on_rebalance(self, fleet_update: Optional[dict] = None) -> None:
        """React to a partition migration without tearing down untouched replicas.

        Without a ``fleet_update`` (stop-the-world rebalance, or no fleet is
        up yet) the whole replica fleet is discarded; the next epoch respawns
        workers from a snapshot of the migrated shards (the router reset its
        journal, so no stale pre-migration op can reach a fresh replica).

        With a ``fleet_update`` (elastic migration handoff) the backend keeps
        every worker whose assigned shard set is exactly its old one and lies
        entirely inside ``fleet_update["unchanged"]`` — those replicas are
        bit-identical to the migrated state, so they merely rewind their
        journal cursor to the cleared journal's start.  Every other worker is
        marked stale and rebuilt lazily on the next pipeline round trip
        (``workers_respawned``); if the worker-count clamp against the new
        shard count changes, the whole fleet is retired instead.  The
        in-process decision pool holds no state and stays up either way.
        """
        if not self._processes or fleet_update is None:
            self._shutdown_workers()
            return
        workers = self._requested_workers
        if workers is None:
            workers = _default_workers()
        workers = max(1, min(workers, fleet_update["num_shards"]))
        if workers != len(self._processes):
            self._shutdown_workers()
            return
        unchanged = fleet_update["unchanged"]
        loads = fleet_update["loads"]
        previous = {
            shard_id: worker
            for shard_id, worker in self._assignment.items()
            if shard_id in unchanged
        }
        old_assignment = self._assignment
        self._assignment = self.assign_shards(loads, workers, previous)
        alive = self.workers_alive()
        self._stale_workers = set()
        for worker in range(workers):
            old_set = {s for s, w in old_assignment.items() if w == worker}
            new_set = {s for s, w in self._assignment.items() if w == worker}
            if alive[worker] and old_set == new_set and new_set <= unchanged:
                # Replicas already match the migrated fleet; the router
                # cleared its journal at handoff, so resume from its start.
                self._journal_seqs[worker] = 0
                self.workers_reused += 1
            else:
                self._stale_workers.add(worker)

    def close(self) -> None:
        self._shutdown_workers()
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
