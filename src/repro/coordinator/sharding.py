"""Sharded coordinator subsystem: horizontal partitioning of the monitored area.

The paper's coordinator is a single process owning one grid index, one hotness
tracker and one SinglePath strategy.  To scale towards millions of objects the
monitored area is partitioned into a fleet of shards — by default a uniform
R x C *shard grid*, optionally a load-adaptive kd-split layout (see the
partition layer in :mod:`repro.coordinator.partition` and the rebalance
protocol below); every shard owns the full coordinator state for its cell:

* a :class:`~repro.coordinator.grid_index.GridIndex` holding the motion-path
  records whose **start** vertex falls in the shard, plus the endpoint entries
  the shard owns;
* a :class:`~repro.coordinator.hotness.HotnessTracker` with the expiry events
  of the paths the shard owns;
* a :class:`~repro.coordinator.single_path.SinglePathStrategy` bound to a
  shard-local index view.

**Endpoint-owner routing.**  A motion path is a segment whose two endpoints
may fall into different shards.  Each endpoint entry is indexed by the shard
that owns the endpoint's location; the record itself (and the path's hotness)
lives with the shard owning the *start* vertex.  A path straddling a shard
boundary therefore has its start entry and record in one shard and its end
entry in the neighbouring shard, which the neighbour resolves through the
router when a query returns that entry.  Point-to-shard assignment is the
active partition's (:attr:`ShardRouter.grid`): total over the plane, so
points outside the monitored area land in border shards, and every query
region fans out to exactly the shards whose cells it overlaps.

**Load-adaptive rebalancing.**  :meth:`ShardRouter.shard_statistics` exposes
how unevenly records spread over the fleet (``imbalance`` = max/mean shard
records); on skewed workloads (hot downtown cells vs. empty suburbs) a
uniform grid concentrates most of the state on a few shards.  With
``partition="kd"`` the router runs an epoch-boundary *rebalance protocol*
(:meth:`ShardRouter.rebalance`, checked by :meth:`maybe_rebalance` after
every epoch): when the imbalance exceeds the configured threshold, a fresh
:class:`~repro.coordinator.partition.KdSplitPartition` is fitted to the
live records' start-vertex density and the fleet *migrates* — grid-index
entries re-route by endpoint ownership, hotness counters and pending expiry
events follow their paths' new owners and boundary ledgers are recomputed;
no execution backend holds fleet state, so none is told.  Migration moves
state, never answers: ids, geometry, counters and event times are preserved
bit for bit, so a rebalanced fleet stays on the differential harness's
exactness contract (``TestRebalanceDifferential``).

**Batched epoch pipeline.**  :class:`ShardedSinglePath` processes an epoch's
submissions in three batched stages instead of per-message dispatch:

1. one pass groups the batch by owning shard (O(batch) dict operations);
2. each shard computes the Case 1 candidate sets for its whole bucket in a
   single pass — candidate paths start at the reporting object's SSA start,
   so the owning shard answers from one local grid cell without touching its
   neighbours;
3. decisions run in global submission order (preserving the sequential
   semantics of Algorithm 2), with Case 2/3 index reads fanning out only to
   the shards actually overlapped by the object's FSA.

Per-shard expiry queues are drained lazily at the epoch boundary (the
*deferred drain*): :meth:`ShardedHotnessTracker.advance_time` sweeps each
shard's event heap once per epoch rather than interleaving expiry work with
message intake.

**Execution backends.**  The builds of the epoch's cache-missed overlap
components are read-only and independent, so a backend may run them off the
parent (see :mod:`repro.coordinator.execution`).  The decision stage never
leaves the parent: every backend replays global submission order there, and
path ids come straight off the router's one counter.

**One overlap structure.**  The epoch's FSA overlap structure (``R_all`` of
Algorithm 2) is not sharded: stage 1 collects the epoch's ``object_id -> FSA``
map, :func:`~repro.coordinator.overlaps.plan_shard_overlaps` splits it into
the connected components of the positive-area intersection graph, the
cross-epoch cache serves the components that repeat, the backend builds the
rest beside the candidate passes, and the merge yields the one structure the
seed coordinator's sequential build produces, region order included (the
argument is in :mod:`repro.coordinator.overlaps`).  Every shard's decisions
and the epoch pass read that structure; the stage never consults the layout.
A saturated region cap makes the stage build the whole map sequentially —
the seed's structure by definition.

**Cross-shard corridor stitching.**  Hot motion paths chain by construction
(the coordinator's response endpoint becomes the reporting object's next SSA
start), and a hot corridor crossing the shard grid is such a chain whose links
are owned by different shards.  :meth:`ShardRouter.stitch_epoch` reassembles
them: every shard decides the *welds* at the vertices it owns (endpoint-owner
routing guarantees it holds every endpoint entry there, including the far
side of straddling paths — tracked per boundary in
:attr:`ShardRouter.boundary_ledger`), the weld passes run as per-shard tasks
on the execution backend, and a merge pass chains the union of welds into
:class:`~repro.coordinator.stitching.CompositeCorridor` objects.  The result
is bit-for-bit the global stitch of the seed coordinator's hot paths (each
vertex has exactly one owner, so the per-shard weld sets partition the global
one; ``tests/test_stitching_equivalence.py``).

**Exactness.**  The sharded coordinator is behaviour-identical to the
single-shard coordinator, not an approximation: path ids come from one global
counter, decisions execute in submission order against the same live state,
every SinglePath tie-break is a total order (independent of candidate
enumeration order), every shard reads the overlap structure the seed builds
(previous paragraph), and the top-k merge ranks the union of per-shard hot
paths with the same total key.
``tests/test_sharding_equivalence.py`` holds the differential harness
asserting bit-for-bit equality on full simulation workloads, for every
execution backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.client.state import ObjectState
from repro.coordinator.execution import ExecutionBackend, SerialBackend, create_backend
# Never called: bench/ (which does not change with src/) binds this name.
from repro.coordinator.execution import conflict_groups  # noqa: F401
from repro.coordinator.columnar import concat_end_tables, resolve_kernel
from repro.coordinator.grid_index import GridConfig, GridIndex
from repro.coordinator.hotness import HotnessDeltaLog, HotnessTracker
from repro.coordinator.overlaps import OverlapPoolCache, plan_shard_overlaps, zero_pool_stats
from repro.coordinator.partition import (
    PARTITION_KINDS,
    KdSplitPartition,
    Partition,
    UniformGridPartition,
    create_partition,
    shard_layout,
)
from repro.coordinator.query_view import HotPathView
from repro.coordinator.stitching import (
    CompositeCorridor,
    StitchFragment,
    build_corridors,
    chain_fragments,
    successors_from_runs,
)
from repro.coordinator.single_path import (
    CandidatePath,
    SinglePathEpochResult,
    SinglePathStrategy,
    VertexPrefetch,
    apply_co_occurrence_boost,
    prefetch_vertex_candidates,
)

if TYPE_CHECKING:  # the coordinator module imports this one
    from repro.coordinator.coordinator import CoordinatorConfig

__all__ = [
    "shard_layout",
    "PARTITION_KINDS",
    "Partition",
    "UniformGridPartition",
    "KdSplitPartition",
    "plan_shard_overlaps",
    "ShardGrid",
    "Shard",
    "ShardRouter",
    "ShardedGridIndex",
    "ShardedHotnessTracker",
    "ShardedSinglePath",
]

#: Backwards-compatible name of the uniform R x C partition (PR 1's only
#: layout); the partition layer itself lives in
#: :mod:`repro.coordinator.partition`.
ShardGrid = UniformGridPartition


@dataclass
class _ShardMigration:
    """State of one in-flight incremental (budgeted) fleet migration.

    The *outgoing* fleet (``ShardRouter.shards``) stays fully authoritative —
    routing, decisions, queries and epoch commits are untouched — while the
    *incoming* ``shadow`` fleet laid out by ``target`` warms a bounded number
    of records per epoch boundary (the double-read of the handoff protocol:
    old owner answers, new owner warms).  ``shadow_owners`` maps every warmed
    path to its incoming start-owner shard and becomes the router's owner
    table verbatim at handoff; ``shadow_ledger`` is the incoming boundary
    ledger, maintained incrementally as straddling records warm and unwound
    when a warmed record is deleted mid-flight.
    """

    target: Partition
    shadow: List["Shard"]
    shadow_owners: Dict[int, "Shard"]
    shadow_ledger: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]]
    #: Epoch boundaries this migration has spanned, and records warmed so far.
    boundaries: int = 0
    moved: int = 0
    #: Router insert-counter reading at the previous boundary: the inserts
    #: since then are the epoch's churn, warmed *on top of* the budget.
    #: Deletions only ever shrink the unwarmed set, so the set loses at
    #: least ``budget`` records every boundary and the migration completes
    #: in at most ``ceil(initial_records / budget)`` boundaries no matter
    #: how fast the stream inserts.
    last_insert_total: int = 0


@dataclass
class Shard:
    """One shard: its sub-area plus the coordinator state it owns.

    Grid coordinates are deliberately absent — a cell's place in the layout
    is the partition's business (:attr:`ShardRouter.grid`), not the
    shard's.  ``bounds`` and ``index`` are replaced in place when the
    rebalance protocol migrates the fleet to a new partition; ``shard_id``,
    ``hotness`` (contents redistributed) and ``strategy`` (bound to a
    router-backed view that reads the live index) survive migrations.
    """

    shard_id: int
    bounds: Rectangle
    index: GridIndex
    hotness: HotnessTracker
    strategy: Optional[SinglePathStrategy]


class _ShardLocalView:
    """Index facade handed to a shard's SinglePath strategy.

    Case 1 candidate scans stay on the shard (the owning shard holds every
    start entry for its vertices); region queries consult the router only when
    the query rectangle actually straddles the shard boundary.
    """

    def __init__(self, router: "ShardRouter", shard_id: int) -> None:
        self._router = router
        self._shard_id = shard_id

    def _local_only(self, region: Rectangle) -> bool:
        return self._router.grid.single_shard_of(region) == self._shard_id

    @property
    def _local_index(self) -> GridIndex:
        return self._router.shards[self._shard_id].index

    def paths_starting_at(self, start: Point, region: Rectangle) -> List[MotionPathRecord]:
        return self._local_index.paths_starting_at(start, region)

    def end_vertices_in(self, region: Rectangle) -> Dict[Point, List[int]]:
        if self._local_only(region):
            return self._local_index.end_vertices_in(region)
        return self._router.index.end_vertices_in(region)

    def paths_from_into(self, start: Point, region: Rectangle) -> List[MotionPathRecord]:
        if self._local_only(region):
            return self._local_index.paths_from_into(start, region)
        return self._router.index.paths_from_into(start, region)

    def insert(self, path: MotionPath, created_at: int = 0) -> MotionPathRecord:
        return self._router.insert(path, created_at)


class ShardedGridIndex:
    """Router-backed facade with the :class:`GridIndex` query/update surface.

    Point operations go straight to the owning shard; region queries fan out
    to the contiguous block of shards the region overlaps and merge the
    per-shard answers.  The merge is exact: endpoint entries are partitioned
    across shards, so concatenation never duplicates an end entry and a seen
    set deduplicates paths whose two endpoints live in different shards.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router
        self.config = router.global_grid_config

    # -- bookkeeping -------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard.index) for shard in self._router.shards)

    def __contains__(self, path_id: int) -> bool:
        return path_id in self._router.owners

    @property
    def records(self) -> Iterable[MotionPathRecord]:
        return chain.from_iterable(shard.index.records for shard in self._router.shards)

    def get(self, path_id: int) -> MotionPathRecord:
        shard = self._router.owners.get(path_id)
        if shard is None:
            raise CoordinatorError(f"motion path {path_id} is not in the index")
        return shard.index.get(path_id)

    # -- insertion / deletion -------------------------------------------------------

    def insert(self, path: MotionPath, created_at: int = 0) -> MotionPathRecord:
        return self._router.insert(path, created_at)

    def delete(self, path_id: int) -> None:
        self._router.delete(path_id)

    @property
    def deletions(self) -> int:
        """Lifetime deletes, fleet-wide (the ``GridIndex.deletions`` surface)."""
        return self._router.deletes_total

    # -- queries ----------------------------------------------------------------------

    def paths_starting_at(self, start: Point, region: Rectangle) -> List[MotionPathRecord]:
        owner = self._router.shard_of(start)
        return owner.index.paths_starting_at(start, region)

    def paths_from_into(self, start: Point, region: Rectangle) -> List[MotionPathRecord]:
        results: List[MotionPathRecord] = []
        for shard in self._router.shards_overlapping(region):
            results.extend(shard.index.paths_from_into(start, region))
        return results

    def end_vertices_in(self, region: Rectangle) -> Dict[Point, List[int]]:
        vertices: Dict[Point, List[int]] = {}
        for shard in self._router.shards_overlapping(region):
            for vertex, path_ids in shard.index.end_vertices_in(region).items():
                vertices.setdefault(vertex, []).extend(path_ids)
        return vertices

    def paths_intersecting(self, region: Rectangle) -> List[MotionPathRecord]:
        seen = set()
        results: List[MotionPathRecord] = []
        for shard in self._router.shards_overlapping(region):
            for record in shard.index.paths_intersecting(region):
                if record.path_id not in seen:
                    seen.add(record.path_id)
                    results.append(record)
        return results

    def end_table(self):
        """Columnar kernel: every shard's end-entry columns, concatenated.

        End entries are partitioned across shards by the owner of the end
        vertex, and any point of a (closed) region is owned by a shard the
        region overlaps, so a scan of the concatenation finds exactly what
        the fan-out of :meth:`end_vertices_in` finds.
        """
        if self._router.kernel != "columnar":
            return None
        return concat_end_tables(
            [shard.index.end_table() for shard in self._router.shards]
        )

    # -- diagnostics --------------------------------------------------------------------------

    def cell_statistics(self) -> Dict[str, float]:
        """Grid occupancy aggregated over every shard's local grid."""
        occupied = 0
        total = 0
        max_entries = 0
        entry_sum = 0.0
        for shard in self._router.shards:
            stats = shard.index.cell_statistics()
            occupied += int(stats["occupied_cells"])
            total += int(stats["total_cells"])
            max_entries = max(max_entries, int(stats["max_entries_per_cell"]))
            entry_sum += stats["mean_entries_per_occupied_cell"] * stats["occupied_cells"]
        return {
            "occupied_cells": occupied,
            "total_cells": total,
            "max_entries_per_cell": max_entries,
            "mean_entries_per_occupied_cell": entry_sum / occupied if occupied else 0.0,
        }


class ShardedHotnessTracker:
    """Hotness facade over the per-shard trackers.

    Crossings are recorded with the shard owning the path; the epoch-boundary
    :meth:`advance_time` performs the deferred drain of every shard's expiry
    heap in one sweep and returns the union of vanished paths.
    """

    def __init__(self, router: "ShardRouter", window: int) -> None:
        self._router = router
        self.window = window

    def record_crossing(self, path_id: int, t_end: int) -> int:
        shard = self._router.owners.get(path_id)
        if shard is None:
            raise CoordinatorError(f"cannot record crossing of unknown path {path_id}")
        return shard.hotness.record_crossing(path_id, t_end)

    def advance_time(self, now: int) -> List[int]:
        vanished: List[int] = []
        for shard in self._router.shards:
            vanished.extend(shard.hotness.advance_time(now))
        return vanished

    def hotness(self, path_id: int) -> int:
        shard = self._router.owners.get(path_id)
        return shard.hotness.hotness(path_id) if shard is not None else 0

    def __contains__(self, path_id: int) -> bool:
        shard = self._router.owners.get(path_id)
        return shard is not None and path_id in shard.hotness

    def __len__(self) -> int:
        return sum(len(shard.hotness) for shard in self._router.shards)

    @property
    def pending_events(self) -> int:
        return sum(shard.hotness.pending_events for shard in self._router.shards)

    def items(self) -> Iterable[Tuple[int, int]]:
        return chain.from_iterable(shard.hotness.items() for shard in self._router.shards)

    def total_crossings(self) -> int:
        return sum(shard.hotness.total_crossings() for shard in self._router.shards)

    def pending_delta_ids(self) -> List[int]:
        """Ids with undrained transitions on any shard (see ``HotnessTracker``)."""
        return [
            path_id
            for shard in self._router.shards
            for path_id in shard.hotness.pending_delta_ids()
        ]

    def drain_delta_log(self) -> HotnessDeltaLog:
        """Union of the per-shard delta logs since the last drain.

        Per-shard logs are chronological for that shard (every crossing is
        recorded by the decision loop, in submission order); the delta
        assembler sorts the merged categories, so the cross-shard
        interleaving here carries no information.
        """
        merged = HotnessDeltaLog()
        for shard in self._router.shards:
            merged.merge_from(shard.hotness.drain_delta_log())
        return merged


class ShardedSinglePath:
    """Batched SinglePath epoch pipeline over the shard fleet.

    Drop-in replacement for :meth:`SinglePathStrategy.process_epoch`: the
    intake is grouped by shard and candidate generation runs as one pass per
    shard beside the execution backend's overlap builds, while the decision
    stage replays global submission order in the calling process on every
    backend, so the outcome is identical to the single-shard strategy.
    """

    def __init__(self, router: "ShardRouter", backend: Optional[ExecutionBackend] = None) -> None:
        self._router = router
        self.backend = backend if backend is not None else SerialBackend()

    def close(self) -> None:
        """Release the backend's worker pool (revived lazily if reused)."""
        self.backend.close()

    def process_epoch(self, states: Sequence[ObjectState]) -> SinglePathEpochResult:
        router = self._router
        # Per-epoch delta diagnostics reset up front so an empty epoch never
        # reports the previous epoch's numbers.
        router.last_pool_stats = zero_pool_stats()
        result = SinglePathEpochResult()
        if not states:
            router._note_epoch_buckets({})
            return result

        # Stage 1: group the batch by owning shard — one dict operation per
        # message — and collect the FSAs for the epoch's overlap structure,
        # split into overlap components and resolved against the cross-epoch
        # cache (delta mode; full mode has no cache and misses everything).
        # Duplicate reporters: like the candidate dict below, ``fsas`` keeps
        # only the *later* state's FSA per object — the overlap structure
        # holds one FSA per object, not per state message, while both state
        # messages are still decided against it.  This mirrors the
        # single-shard strategy bit for bit and is pinned by
        # tests/test_overlaps.py::TestDuplicateReports.
        routed: List[Tuple[ObjectState, Shard]] = []
        buckets: Dict[int, List[Tuple[int, ObjectState]]] = {}
        fsas: Dict[int, Rectangle] = {}
        for position, state in enumerate(states):
            shard = router.shard_of(state.start)
            routed.append((state, shard))
            buckets.setdefault(shard.shard_id, []).append((position, state))
            fsas[state.object_id] = state.fsa
        plan = plan_shard_overlaps(router.kernel, router.pool_cache, fsas)
        router.last_pool_stats = plan.stats
        router._note_epoch_buckets(
            {shard_id: len(bucket) for shard_id, bucket in buckets.items()}
        )

        # Stage 2: per-shard candidate generation, one pass over each bucket,
        # beside the backend's builds of the components the cache missed
        # (both are read-only) — under low churn most components repeat
        # verbatim, so process workers receive a handful of dirtied pools
        # instead of the full epoch shipment.
        # Candidate paths start at the object's SSA start, which the bucket's
        # shard owns, so no cross-shard traffic happens here.  The per-object
        # dict is rebuilt in submission order afterwards: when one object
        # reports twice in an epoch the single-shard strategy keeps the later
        # state's candidates, and bucket order must not change which one wins.
        per_state, built = self.backend.map_candidate_buckets(
            router, buckets, states, plan.missed_pools
        )
        overlaps = plan.merge(built)
        candidate_paths: Dict[int, List[CandidatePath]] = {}
        for position, state in enumerate(states):
            candidate_paths[state.object_id] = per_state[position]
        apply_co_occurrence_boost(candidate_paths)

        # Stage 3: decisions in global submission order.  Sequential order is
        # what makes the pipeline exact: within an epoch, later objects see
        # the paths and crossings earlier objects produced, exactly as the
        # single-shard strategy interleaves them.  Every decision consults
        # the epoch's one overlap structure.  Under the columnar kernel the
        # order-independent part of those reads is computed first, for the
        # whole epoch and across every shard at once
        # (:func:`~repro.coordinator.single_path.prefetch_vertex_candidates`).
        prefetched: Dict[int, VertexPrefetch] = {}
        if router.kernel == "columnar":
            prefetched = prefetch_vertex_candidates(
                router.index.end_table(),
                [
                    (position, state)
                    for position, (state, _shard) in enumerate(routed)
                    if not candidate_paths[state.object_id]
                ],
                overlaps,
            )
        for position, (state, shard) in enumerate(routed):
            result.tally(
                shard.strategy.decide(
                    state,
                    candidate_paths[state.object_id],
                    overlaps,
                    prefetched.get(position),
                )
            )
        return result


class ShardRouter:
    """Owner of the shard fleet: id allocation, routing and the merge views.

    ``index``, ``hotness`` and ``pipeline`` expose the exact interfaces of
    :class:`GridIndex`, :class:`HotnessTracker` and
    :class:`SinglePathStrategy`, so the coordinator runs the same epoch loop
    whether it holds one shard or a fleet.
    """

    #: Never called: bench/ (which does not change with src/) looks it up here.
    finish_parallel_commit = None

    def __init__(self, config: "CoordinatorConfig") -> None:
        #: The validated configuration (area, window, grid and every fleet
        #: knob — :class:`~repro.coordinator.fleet.FleetConfig` documents and
        #: validates them; the router only consults them).
        self.config = config
        self.grid = create_partition(config.partition, config.bounds, config.num_shards)
        # Auto-rebalancing follows the *configured* layout, not the active
        # one: a fleet configured uniform stays a deliberate fixed layout
        # even after a manual rebalance() migrates it onto kd splits.
        self._auto_rebalance = self.grid.kind == "kd"
        #: Number of completed partition migrations (diagnostics).
        self.rebalances = 0
        #: Lifetime record inserts — the in-flight migration protocol reads
        #: the increment between boundaries as the epoch's churn.
        self.inserts_total = 0
        #: Lifetime record deletes (``ShardedGridIndex.deletions``).
        self.deletes_total = 0
        #: In-flight incremental migration, if any (see ``_begin_migration``).
        self._migration: Optional[_ShardMigration] = None
        #: Records warmed at the most recent epoch boundary / whether a
        #: migration was still mid-flight when it ended (delta assembly).
        self.last_migration_moved = 0
        self.last_migration_active = False
        #: Lifetime counters: elastic migrations begun, records warmed.
        self.migrations_started = 0
        self.records_migrated_total = 0
        # Deterministic per-shard load signals for the elastic cost model.
        # ``_activity_ewma`` smooths each shard's epoch bucket size (states
        # routed to the shard) — a pure function of the input stream, so
        # split/merge decisions stay deterministic and backend-independent.
        # ``_epoch_seconds_ewma`` attributes measured wall-clock epoch time
        # across shards proportionally to the same bucket sizes: the
        # *ratios* are deterministic, the scale is diagnostics-only and
        # never consulted by decisions.
        self._last_buckets: Dict[int, int] = {}
        self._activity_ewma: Dict[int, float] = {}
        self._epoch_seconds_ewma: Dict[int, float] = {}
        # Hysteresis: a split/merge condition must hold for this many
        # consecutive epoch boundaries before the fleet acts on it.
        self._elastic_patience = 2
        self._split_streak = 0
        self._merge_streak = 0
        # No-op-refit backoff: a workload the kd tree cannot split further
        # (e.g. a point mass) keeps its imbalance above the threshold
        # forever; after a refit that reproduced the active splits,
        # exponentially more epoch boundaries are skipped before fitting
        # again, bounding the amortised refit cost.  Purely epoch-counted,
        # so the schedule stays deterministic and backend-independent.
        self._refit_backoff = 0
        self._refit_wait = 0
        self.global_grid_config = GridConfig(config.bounds, config.cells_per_axis)
        #: The geometry kernel that actually runs (``columnar`` degrades to
        #: ``object`` without numpy).  Execution backends read this
        #: attribute rather than carrying their own copy.
        self.kernel = resolve_kernel(config.kernel)
        # Delta mode keeps overlap components (:attr:`pool_cache`) and the
        # query view (:attr:`view`: rank tuples and corridor chains) alive
        # across epochs; full mode rebuilds all of it per epoch or query —
        # the differential reference.
        delta_mode = config.epoch_mode == "delta"
        self.pool_cache: Optional[OverlapPoolCache] = (
            OverlapPoolCache(kernel=self.kernel) if delta_mode else None
        )
        #: Pool-cache outcome of the most recent epoch (zeros outside delta
        #: mode and on empty epochs).
        self.last_pool_stats: Dict[str, int] = zero_pool_stats()
        #: Per-boundary ledgers of straddling paths: ``(shard_a, shard_b)``
        #: (sorted pair) -> ``{path_id: (start_shard, end_shard)}``.  A path
        #: whose endpoints are owned by different shards is recorded here on
        #: insert and dropped on delete, so the stitching merge can walk the
        #: boundaries without re-deriving ownership from geometry.  Both
        #: sides of the boundary see the entry (:meth:`boundary_ledger_of`).
        self.boundary_ledger: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
        #: Diagnostics of the most recent :meth:`stitch_epoch` run.
        self.stitch_stats: Dict[str, object] = {}
        shard_cells = self._shard_cells()
        self.owners: Dict[int, Shard] = {}
        self._next_path_id = 0
        self.shards: List[Shard] = []
        for shard_id in range(config.num_shards):
            sub_bounds = self.grid.shard_bounds(shard_id)
            index = GridIndex(
                GridConfig(sub_bounds, shard_cells),
                record_resolver=self._resolve,
                kernel=self.kernel,
            )
            self.shards.append(
                Shard(
                    shard_id=shard_id,
                    bounds=sub_bounds,
                    index=index,
                    hotness=HotnessTracker(config.window),
                    strategy=None,  # bound below, once the router views exist
                )
            )
        if delta_mode:
            for shard in self.shards:
                shard.hotness.enable_delta_log()
        self.index = ShardedGridIndex(self)
        self.hotness = ShardedHotnessTracker(self, config.window)
        #: The fleet's one query view, over the facades — ids and global
        #: hotness are layout-independent, so no migration ever touches it.
        self.view: Optional[HotPathView] = (
            HotPathView(self.index, self.hotness) if delta_mode else None
        )
        self.pipeline = ShardedSinglePath(self, create_backend(config.backend))
        for shard in self.shards:
            shard.strategy = SinglePathStrategy(
                _ShardLocalView(self, shard.shard_id), self.hotness
            )

    # -- partition layer --------------------------------------------------------

    def _shard_cells(self, grid: Optional[Partition] = None) -> int:
        """Per-shard grid resolution under ``grid`` (default: the active partition).

        Shard grids should never be much coarser than the global grid
        (``GridConfig`` is square, shard cells may not be): divide the global
        resolution by the layout's smaller dimension (uniform) or by the
        square root of the fleet size (kd).  Resolution only affects cell
        fan-out cost — every query filters entries exactly — so unequal kd
        cells simply get proportionally finer grids where load is dense.
        """
        grid = self.grid if grid is None else grid
        if isinstance(grid, UniformGridPartition):
            divisor = min(grid.rows, grid.cols)
        else:
            divisor = max(1, math.isqrt(grid.num_shards))
        return max(1, self.global_grid_config.cells_per_axis // divisor)

    # -- load-adaptive rebalancing ----------------------------------------------

    def maybe_rebalance(self) -> bool:
        """Epoch-boundary rebalance check: refit a kd partition when skewed.

        Runs only on fleets *configured* with the kd partition (the uniform
        grid is a deliberate fixed layout — manually migrating one onto kd
        splits does not opt it into automatic rebalancing).  When the
        record-load imbalance (``max / mean`` shard
        records) exceeds ``rebalance_threshold``, the partition is
        refitted to the current endpoint density and the fleet migrates; a
        refit that reproduces the active splits is skipped — and backed off
        exponentially — so a workload the kd tree cannot split further
        (e.g. a point mass) neither thrashes nor pays an O(records log
        records) fit at every epoch boundary.  Returns whether a migration
        happened.

        With ``elastic="auto"`` this is also the elastic controller's tick:
        an in-flight incremental migration advances by one budgeted warming
        step first (returning ``True`` only on the boundary the handoff
        completes); otherwise the cost model proposes a split / merge /
        refit action, and only when it proposes nothing does the legacy
        imbalance-triggered refit below run (on any fleet whose active
        layout is kd, since elastic fleets convert to kd at the first
        split).
        """
        self.last_migration_moved = 0
        self.last_migration_active = False
        if self._migration is not None:
            return self._advance_migration()
        if self.config.elastic == "auto":
            target = self._elastic_proposal()
            if target is not None and self.rebalance(target):
                return True
        auto_refit = self._auto_rebalance or (
            self.config.elastic == "auto" and self.grid.kind == "kd"
        )
        if not auto_refit or len(self.shards) <= 1:
            return False
        if self._refit_wait > 0:
            self._refit_wait -= 1
            return False
        statistics = self.shard_statistics()
        if not statistics["total_records"]:
            return False
        if statistics["imbalance"] <= self.config.rebalance_threshold:
            return False
        migrated = self.rebalance(
            KdSplitPartition.fit(
                self.grid.bounds, len(self.shards), self._endpoint_samples()
            )
        )
        if migrated:
            self._refit_backoff = 0
        else:
            self._refit_backoff = min(64, max(1, self._refit_backoff * 2))
            self._refit_wait = self._refit_backoff
        return migrated

    def rebalance(self, partition: Optional[Partition] = None) -> bool:
        """Refit the partition to the current load and migrate the fleet.

        With ``partition=None`` a :class:`KdSplitPartition` is fitted to the
        start vertices of every live record (record ownership follows the
        start vertex, so balancing start-vertex density balances record
        load), clamped into the monitored bounds exactly as routing clamps
        them.  An explicit ``partition`` migrates to that layout instead
        (it must keep the shard count).  Returns ``False`` without touching
        anything when the new partition routes identically to the active one.

        Migration preserves every observable: records keep their ids,
        geometry, creation times, hotness counters and pending expiry
        events — only *which shard holds them* changes — so a rebalanced
        fleet remains bit-for-bit equivalent to the seed coordinator (the
        differential harness forces migrations mid-replay to prove it).
        Must run at an epoch boundary.

        **Elastic fleets** (``elastic="auto"``) lift the shard-count guard:
        an explicit partition may grow or shrink the fleet, and
        ``partition=None`` asks the cost model for a forced proposal (split
        the hottest shard when the cap allows, refit otherwise) — the path
        chaos ``force_rebalance`` exercises.  With ``migration_budget > 0``
        the migration is *incremental*: this call starts it (returning
        ``True`` — the migration is committed to complete) and subsequent
        :meth:`maybe_rebalance` boundaries warm the incoming fleet until
        handoff.  A second rebalance request while one is in flight
        force-completes the in-flight migration first.
        """
        if self._migration is not None:
            self._complete_migration()
        if partition is None:
            if self.config.elastic == "auto":
                partition = self._forced_elastic_partition()
            else:
                partition = KdSplitPartition.fit(
                    self.grid.bounds, len(self.shards), self._endpoint_samples()
                )
        elif partition.num_shards != len(self.shards) and self.config.elastic != "auto":
            raise ConfigurationError(
                f"rebalance must keep the shard count: fleet has {len(self.shards)}, "
                f"partition has {partition.num_shards}"
            )
        if partition.bounds != self.grid.bounds:
            raise ConfigurationError(
                f"rebalance must keep the monitored bounds: fleet covers "
                f"{self.grid.bounds}, partition covers {partition.bounds}"
            )
        if (
            partition.num_shards == len(self.shards)
            and partition.describe() == self.grid.describe()
        ):
            return False
        if self.config.migration_budget > 0:
            self._begin_migration(partition)
            return True
        self._migrate(partition)
        return True

    def _endpoint_samples(self) -> List[Tuple[float, float]]:
        """Start-vertex density sample for the kd refit, clamped into bounds.

        Uses every live record (deterministic: the fit sorts coordinates, so
        sample order is irrelevant).  Endpoints outside the monitored area
        are clamped in, mirroring how routing assigns them to border shards.
        """
        bounds = self.grid.bounds
        samples = []
        for path_id, shard in self.owners.items():
            start = shard.index.get(path_id).path.start
            samples.append(
                (
                    min(max(start.x, bounds.low.x), bounds.high.x),
                    min(max(start.y, bounds.low.y), bounds.high.y),
                )
            )
        return samples

    # -- elastic cost model -------------------------------------------------------

    def _note_epoch_buckets(self, buckets: Dict[int, int]) -> None:
        """Record the epoch's per-shard routing signal (called by the pipeline).

        ``buckets`` maps each shard to the number of states routed to it this
        epoch — a deterministic function of the input stream, as is the
        activity EWMA maintained here — the property that keeps elastic
        decisions bit-for-bit reproducible across backends and reruns.
        """
        self._last_buckets = buckets
        for shard in self.shards:
            previous = self._activity_ewma.get(shard.shard_id, 0.0)
            self._activity_ewma[shard.shard_id] = (
                0.5 * previous + 0.5 * buckets.get(shard.shard_id, 0)
            )

    def note_epoch_seconds(self, seconds: float) -> None:
        """Attribute one epoch's measured wall-clock across the fleet.

        Called by ``Coordinator.run_epoch`` with the epoch's elapsed seconds.
        Each shard is attributed time proportionally to its bucket share —
        the shards the epoch actually routed work to — and the per-shard EWMA
        is surfaced through :meth:`shard_statistics`
        (``max_shard_epoch_seconds`` / ``mean_shard_epoch_seconds``).  The
        cost model reads only the deterministic *ratios* underlying this
        attribution (the activity EWMA), never the wall-clock scale, so
        timing noise cannot change a fleet decision.
        """
        if not self.shards:
            return
        total = sum(self._last_buckets.values())
        for shard in self.shards:
            if total:
                share = seconds * self._last_buckets.get(shard.shard_id, 0) / total
            else:
                share = seconds / len(self.shards)
            previous = self._epoch_seconds_ewma.get(shard.shard_id)
            self._epoch_seconds_ewma[shard.shard_id] = (
                share if previous is None else 0.5 * previous + 0.5 * share
            )
        live = {shard.shard_id for shard in self.shards}
        for shard_id in [key for key in self._epoch_seconds_ewma if key not in live]:
            del self._epoch_seconds_ewma[shard_id]

    def _elastic_loads(self) -> Dict[int, float]:
        """Combined per-shard load score consumed by the elastic cost model.

        Blends the shard-statistics signals: owned records (state size),
        straddling paths on the shard's boundaries (stitching and ledger
        cost, counted for both endpoint owners) and the activity EWMA (epoch
        routing pressure — the deterministic stand-in for per-shard epoch
        time).  Every term is a deterministic function of the input stream.
        """
        straddling: Dict[int, int] = {}
        for (shard_a, shard_b), entries in self.boundary_ledger.items():
            straddling[shard_a] = straddling.get(shard_a, 0) + len(entries)
            straddling[shard_b] = straddling.get(shard_b, 0) + len(entries)
        loads: Dict[int, float] = {}
        for shard in self.shards:
            shard_id = shard.shard_id
            loads[shard_id] = (
                len(shard.index)
                + 2.0 * straddling.get(shard_id, 0)
                + self._activity_ewma.get(shard_id, 0.0)
            )
        return loads

    def _hottest_shard(self, loads: Dict[int, float]) -> int:
        """Highest-load shard id; load ties break toward the lowest id."""
        return max(loads, key=lambda shard_id: (loads[shard_id], -shard_id))

    def _elastic_proposal(self) -> Optional[Partition]:
        """One elastic controller tick: propose a new partition, or nothing.

        Decision order: grow toward the ``min_shards`` floor unconditionally;
        split the hottest shard when its combined load exceeds
        ``rebalance_threshold`` times the fleet mean (and the cap allows);
        merge the coldest mergeable sibling pair when the merged cell would
        carry at most half the *post-merge* mean load (and the floor
        allows).  Split and merge each require their condition to hold for
        ``_elastic_patience`` consecutive boundaries — hysteresis, so one
        bursty epoch cannot thrash the fleet.  Refit is not proposed here:
        the legacy imbalance-triggered kd refit in :meth:`maybe_rebalance`
        (with its no-op backoff) remains the refit path.
        """
        loads = self._elastic_loads()
        total = sum(loads.values())
        num_shards = len(self.shards)
        min_shards = self.config.min_shards or 1
        if num_shards < min_shards:
            if not self.owners:
                return None  # nothing to split against yet
            try:
                return self.grid.split(
                    self._hottest_shard(loads), self._endpoint_samples()
                )
            except ConfigurationError:
                return None  # degenerate (point-mass) cell: cannot split
        if not total:
            self._split_streak = 0
            self._merge_streak = 0
            return None
        mean = total / num_shards
        at_cap = self.config.max_shards is not None and num_shards >= self.config.max_shards
        hottest = self._hottest_shard(loads)
        if not at_cap and loads[hottest] > self.config.rebalance_threshold * mean:
            self._split_streak += 1
            if self._split_streak >= self._elastic_patience:
                self._split_streak = 0
                try:
                    return self.grid.split(hottest, self._endpoint_samples())
                except ConfigurationError:
                    pass  # degenerate cell: fall through to merge checks
        else:
            self._split_streak = 0
        if num_shards > min_shards:
            best: Optional[Tuple[float, int, int]] = None
            for pair_a, pair_b in self.grid.mergeable_pairs():
                combined = loads.get(pair_a, 0.0) + loads.get(pair_b, 0.0)
                if best is None or combined < best[0]:
                    best = (combined, pair_a, pair_b)
            if best is not None and best[0] <= 0.5 * total / (num_shards - 1):
                self._merge_streak += 1
                if self._merge_streak >= self._elastic_patience:
                    self._merge_streak = 0
                    return self.grid.merge(best[1], best[2])
            else:
                self._merge_streak = 0
        else:
            self._merge_streak = 0
        return None

    def _forced_elastic_partition(self) -> Partition:
        """Partition for a forced (chaos / manual) rebalance under elastic auto.

        Prefers growing the hottest shard — the elastic action worth
        exercising under fault injection — and falls back to a kd refit at
        the current count when the fleet sits at ``max_shards``, holds no
        records, or the hottest cell is degenerate.
        """
        at_cap = self.config.max_shards is not None and len(self.shards) >= self.config.max_shards
        if not at_cap and self.owners:
            try:
                return self.grid.split(
                    self._hottest_shard(self._elastic_loads()),
                    self._endpoint_samples(),
                )
            except ConfigurationError:
                pass
        return KdSplitPartition.fit(
            self.grid.bounds, len(self.shards), self._endpoint_samples()
        )

    # -- incremental migration protocol -------------------------------------------

    def _begin_migration(self, partition: Partition) -> None:
        """Start an incremental migration onto ``partition``.

        Builds the incoming shadow fleet — empty :class:`GridIndex` /
        :class:`HotnessTracker` state laid out by the target partition — and
        leaves the outgoing fleet fully authoritative.  Subsequent
        :meth:`maybe_rebalance` boundaries warm up to ``migration_budget``
        records each (:meth:`_advance_migration`) until everything live is
        warmed, then hand off atomically.
        """
        shard_cells = self._shard_cells(partition)
        window = self.hotness.window
        shadow: List[Shard] = []
        for shard_id in range(partition.num_shards):
            sub_bounds = partition.shard_bounds(shard_id)
            shadow.append(
                Shard(
                    shard_id=shard_id,
                    bounds=sub_bounds,
                    index=GridIndex(
                        GridConfig(sub_bounds, shard_cells),
                        record_resolver=self._resolve,
                        kernel=self.kernel,
                    ),
                    hotness=HotnessTracker(window),
                    strategy=None,  # bound at handoff
                )
            )
        self._migration = _ShardMigration(
            partition, shadow, {}, {}, last_insert_total=self.inserts_total
        )
        self.migrations_started += 1

    def _warm_record(
        self, migration: _ShardMigration, path_id: int, record: MotionPathRecord
    ) -> None:
        """Warm one live record onto the incoming fleet (the double-read write).

        Registers the record and both endpoint entries with its incoming
        owners and mirrors the straddling-path ledger entry.  Records are
        geometrically immutable after insert and keep their ids, so a
        warmed record can go stale in exactly one way — deletion — which
        :meth:`delete` unwinds from the shadow state directly.  The warmed
        hotness counter is provisional (handoff replaces it with the exact
        export/adopt transfer).
        """
        target = migration.target
        start_owner = migration.shadow[target.shard_id_of(record.path.start)]
        end_owner = migration.shadow[target.shard_id_of(record.path.end)]
        start_owner.index.register(record)
        start_owner.index.add_entry(record, is_start=True)
        end_owner.index.add_entry(record, is_start=False)
        old_owner = self.owners[path_id]
        start_owner.hotness.adopt_count(path_id, old_owner.hotness.hotness(path_id))
        migration.shadow_owners[path_id] = start_owner
        if start_owner is not end_owner:
            key = self._boundary_key(start_owner.shard_id, end_owner.shard_id)
            migration.shadow_ledger.setdefault(key, {})[path_id] = (
                start_owner.shard_id,
                end_owner.shard_id,
            )

    def _advance_migration(self) -> bool:
        """Warm one epoch boundary's budget of records; hand off when done.

        Scans the owner table in insertion order (deterministic) and warms
        the first *quota* records not yet warmed, where the quota is the
        ``migration_budget`` plus the number of records inserted since the
        previous boundary — the budget paces the backfill of pre-migration
        records while the churn top-up keeps pace with new inserts
        (deletions only shrink the unwarmed set), so the set loses at least
        the budget every boundary and the migration completes in at most
        ``ceil(initial_records / budget)`` boundaries.  Both terms are
        stream-deterministic.  Returns ``True`` only on the boundary the
        handoff completes — warming boundaries are observable-invisible.
        """
        migration = self._migration
        assert migration is not None
        quota = self.config.migration_budget + (
            self.inserts_total - migration.last_insert_total
        )
        migration.last_insert_total = self.inserts_total
        moved = 0
        for path_id, shard in self.owners.items():
            if moved >= quota:
                break
            if path_id in migration.shadow_owners:
                continue
            self._warm_record(migration, path_id, shard.index.get(path_id))
            moved += 1
        migration.boundaries += 1
        migration.moved += moved
        self.last_migration_moved = moved
        self.records_migrated_total += moved
        if len(migration.shadow_owners) >= len(self.owners):
            self._handoff()
            return True
        self.last_migration_active = True
        return False

    def _complete_migration(self) -> None:
        """Force-complete the in-flight migration: warm the remainder, hand off.

        Used when a new rebalance request arrives mid-flight — the fleet
        cannot track two target layouts, so the committed migration finishes
        (unbudgeted) before the new request is considered.
        """
        migration = self._migration
        assert migration is not None
        moved = 0
        for path_id, shard in self.owners.items():
            if path_id not in migration.shadow_owners:
                self._warm_record(migration, path_id, shard.index.get(path_id))
                moved += 1
        migration.moved += moved
        self.last_migration_moved += moved
        self.records_migrated_total += moved
        self._handoff()

    def _handoff(self) -> None:
        """Atomically promote the warmed shadow fleet to authoritative.

        The promoted state is, by construction, exactly what the
        stop-the-world :meth:`_migrate` would produce at this boundary:
        grid-index contents were warmed record-by-record with endpoint-owner
        routing, the boundary ledger followed the straddling records, and
        hotness is transferred through the same exact export/adopt protocol
        — the provisional warm counters are discarded first, because
        ``adopt_count`` accumulates and would double-count them.  Pending
        delta-log events recorded this epoch by the outgoing trackers are
        absorbed by the incoming fleet so delta assembly loses nothing.
        ``OverlapPoolCache`` entries need no action: pools are
        content-addressed, so cached structures follow their records across
        any layout change.
        """
        migration = self._migration
        assert migration is not None
        window = self.hotness.window
        carried: Optional[HotnessDeltaLog] = None
        if self.config.epoch_mode == "delta":
            carried = HotnessDeltaLog()
            for shard in self.shards:
                carried.merge_from(shard.hotness.drain_delta_log())
        # Discard the provisional warm counters; re-create the incoming
        # trackers fresh for the exact transfer below.
        for shard in migration.shadow:
            shard.hotness = HotnessTracker(window)
            if self.config.epoch_mode == "delta":
                shard.hotness.enable_delta_log()
        exported = [shard.hotness.export_state() for shard in self.shards]
        self.grid = migration.target
        self.shards = migration.shadow
        self.owners = migration.shadow_owners
        self.boundary_ledger = migration.shadow_ledger
        for previous_shard, (counters, events) in enumerate(exported):
            # Orphan rule (hotness without a live record): stay with the
            # previous shard *position*, clamped into the new fleet — a
            # shrink can leave the old position without a successor.
            fallback = self.shards[min(previous_shard, len(self.shards) - 1)]
            for path_id, count in counters.items():
                owner = self.owners.get(path_id, fallback)
                owner.hotness.adopt_count(path_id, count)
            for expiry, path_id in events:
                owner = self.owners.get(path_id, fallback)
                owner.hotness.adopt_event(expiry, path_id)
        if carried is not None:
            self.shards[0].hotness.absorb_delta_log(carried)
        for shard in self.shards:
            shard.strategy = SinglePathStrategy(
                _ShardLocalView(self, shard.shard_id), self.hotness
            )
        self._migration = None
        self._reset_elastic_signals()
        self.rebalances += 1

    def _reset_elastic_signals(self) -> None:
        """Drop per-shard signal state after a layout change (new load profile)."""
        self._last_buckets = {}
        self._activity_ewma = {}
        self._epoch_seconds_ewma = {}
        self._split_streak = 0
        self._merge_streak = 0

    def _migrate(self, partition: Partition) -> None:
        """Move every piece of per-shard state onto ``partition``'s layout.

        GridIndex entries are re-routed by endpoint ownership, hotness
        counters and pending expiry events follow each path's new owner
        (heap order is re-established per shard, and pops drain in sorted
        ``(expiry, path_id)`` order regardless of arrangement, so deferral
        of the rebuild is not observable), and the boundary ledgers are
        recomputed from the migrated records.  Hotness entries whose record
        is gone (possible via direct index manipulation) stay with their
        previous shard id so their expiry events keep draining.
        """
        records = [
            (path_id, shard.index.get(path_id)) for path_id, shard in self.owners.items()
        ]
        migrated_hotness = [shard.hotness.export_state() for shard in self.shards]
        # Elastic migrations may change the fleet size: dropped tail shards'
        # pending delta-log events are carried over (their counters and
        # expiry events migrate through export/adopt below), appended shards
        # start with fresh trackers.
        carried: Optional[HotnessDeltaLog] = None
        if self.config.epoch_mode == "delta" and partition.num_shards < len(self.shards):
            carried = HotnessDeltaLog()
            for shard in self.shards[partition.num_shards :]:
                carried.merge_from(shard.hotness.drain_delta_log())
        window = self.hotness.window
        self.grid = partition
        shard_cells = self._shard_cells()
        del self.shards[partition.num_shards :]
        while len(self.shards) < partition.num_shards:
            hotness = HotnessTracker(window)
            if self.config.epoch_mode == "delta":
                hotness.enable_delta_log()
            self.shards.append(
                Shard(
                    shard_id=len(self.shards),
                    bounds=partition.shard_bounds(len(self.shards)),
                    index=None,  # built in the loop below, like every shard's
                    hotness=hotness,
                    strategy=SinglePathStrategy(
                        _ShardLocalView(self, len(self.shards)), self.hotness
                    ),
                )
            )
        for shard in self.shards:
            shard.bounds = partition.shard_bounds(shard.shard_id)
            shard.index = GridIndex(
                GridConfig(shard.bounds, shard_cells),
                record_resolver=self._resolve,
                kernel=self.kernel,
            )
        self.owners.clear()
        self.boundary_ledger.clear()
        for path_id, record in records:
            start_owner = self.shard_of(record.path.start)
            end_owner = self.shard_of(record.path.end)
            start_owner.index.register(record)
            start_owner.index.add_entry(record, is_start=True)
            end_owner.index.add_entry(record, is_start=False)
            self.owners[path_id] = start_owner
            if start_owner is not end_owner:
                self._ledger_add(path_id, start_owner.shard_id, end_owner.shard_id)
        for previous_shard, (counters, events) in enumerate(migrated_hotness):
            # Orphan rule: hotness without a live record stays with its
            # previous shard *position*, clamped into the new fleet — after
            # a shrink the old position may have no successor, and counters
            # and events must land on the same shard so expiry keeps
            # draining (pinned by tests/test_rebalancing.py's back-to-back
            # migration regression).
            fallback = self.shards[min(previous_shard, len(self.shards) - 1)]
            for path_id, count in counters.items():
                owner = self.owners.get(path_id, fallback)
                owner.hotness.adopt_count(path_id, count)
            for expiry, path_id in events:
                owner = self.owners.get(path_id, fallback)
                owner.hotness.adopt_event(expiry, path_id)
        if carried is not None:
            self.shards[0].hotness.absorb_delta_log(carried)
        self._reset_elastic_signals()
        self.rebalances += 1

    # -- routing -----------------------------------------------------------------

    def shard_of(self, point: Point) -> Shard:
        return self.shards[self.grid.shard_id_of(point)]

    def shards_overlapping(self, region: Rectangle) -> Iterator[Shard]:
        for shard_id in self.grid.shard_ids_overlapping(region):
            yield self.shards[shard_id]

    def _resolve(self, path_id: int) -> Optional[MotionPathRecord]:
        """Foreign-record resolver for per-shard grids (straddling end entries)."""
        shard = self.owners.get(path_id)
        return shard.index.get(path_id) if shard is not None else None

    # -- global record lifecycle ---------------------------------------------------

    def insert(self, path: MotionPath, created_at: int = 0) -> MotionPathRecord:
        """Insert a path: global id, record with the start owner, entries per endpoint."""
        record = MotionPathRecord(self._next_path_id, path, created_at)
        self._next_path_id += 1
        start_owner = self.shard_of(path.start)
        end_owner = self.shard_of(path.end)
        start_owner.index.register(record)
        start_owner.index.add_entry(record, is_start=True)
        end_owner.index.add_entry(record, is_start=False)
        self.owners[record.path_id] = start_owner
        self.inserts_total += 1
        if start_owner is not end_owner:
            self._ledger_add(record.path_id, start_owner.shard_id, end_owner.shard_id)
        return record

    def delete(self, path_id: int) -> None:
        """Remove a path's record and both endpoint entries, wherever they live."""
        owner = self.owners.get(path_id)
        if owner is None:
            raise CoordinatorError(f"motion path {path_id} is not in the index")
        record = owner.index.get(path_id)
        self.shard_of(record.path.start).index.remove_entry(
            path_id, record.path.start, is_start=True
        )
        end_owner = self.shard_of(record.path.end)
        end_owner.index.remove_entry(path_id, record.path.end, is_start=False)
        owner.index.unregister(path_id)
        del self.owners[path_id]
        self.deletes_total += 1
        if owner is not end_owner:
            self._ledger_discard(path_id, owner.shard_id, end_owner.shard_id)
        if self._migration is not None:
            # Deletion is the only way a warmed record can go stale (geometry
            # and ids are immutable): unwind it from the incoming fleet so
            # the handoff state stays exactly what stop-the-world migration
            # would produce.
            migration = self._migration
            shadow_start = migration.shadow_owners.pop(path_id, None)
            if shadow_start is not None:
                target = migration.target
                shadow_end = migration.shadow[target.shard_id_of(record.path.end)]
                shadow_start.index.remove_entry(
                    path_id, record.path.start, is_start=True
                )
                shadow_end.index.remove_entry(path_id, record.path.end, is_start=False)
                shadow_start.index.unregister(path_id)
                if shadow_start is not shadow_end:
                    key = self._boundary_key(
                        shadow_start.shard_id, shadow_end.shard_id
                    )
                    entries = migration.shadow_ledger.get(key)
                    if entries is not None and path_id in entries:
                        del entries[path_id]
                        if not entries:
                            del migration.shadow_ledger[key]

    # -- boundary ledger -------------------------------------------------------------

    @staticmethod
    def _boundary_key(shard_a: int, shard_b: int) -> Tuple[int, int]:
        return (shard_a, shard_b) if shard_a <= shard_b else (shard_b, shard_a)

    def _ledger_add(self, path_id: int, start_shard: int, end_shard: int) -> None:
        key = self._boundary_key(start_shard, end_shard)
        self.boundary_ledger.setdefault(key, {})[path_id] = (start_shard, end_shard)

    def _ledger_discard(self, path_id: int, start_shard: int, end_shard: int) -> None:
        key = self._boundary_key(start_shard, end_shard)
        entries = self.boundary_ledger.get(key)
        if entries is not None and path_id in entries:
            del entries[path_id]
            if not entries:
                del self.boundary_ledger[key]

    def boundary_ledger_of(self, shard_id: int) -> Dict[int, Tuple[int, int]]:
        """One shard's view of the ledgers: every straddling path it co-owns.

        A straddling path is visible from both of its endpoint shards — the
        start owner holds the record, the end owner holds the end entry the
        stitching merge welds against.
        """
        view: Dict[int, Tuple[int, int]] = {}
        for (shard_a, shard_b), entries in self.boundary_ledger.items():
            if shard_id == shard_a or shard_id == shard_b:
                view.update(entries)
        return view

    # -- cross-shard corridor stitching ------------------------------------------------

    def stitch_epoch(self) -> List[CompositeCorridor]:
        """Stitch the current hot paths into composite corridors — the full report.

        Runs on demand after an epoch's stage-3 commit (the coordinator
        invalidates its cached corridor report at every commit and calls
        this on the first ``hot_corridors()`` that follows; the top-k
        queries never come here in delta mode).  Full mode gathers every
        shard's hot fragments — straddling fragments, found by walking the
        per-boundary ledgers, are shipped to *both* endpoint owners — runs
        the per-shard weld passes on the execution backend
        (:meth:`ExecutionBackend.map_stitch_buckets`) and chains the union
        of welds into corridors; delta mode asks the fleet's query view,
        which gathers nothing.  Either way the result is the global stitch
        of the seed coordinator's hot paths bit for bit.  ``stitch_stats``
        records what the merge did, including ``boundary_welds`` — the welds
        whose two fragments have different owners.
        """
        if self.view is not None:
            # The view patches its chains with the ids dirtied since the
            # last query: no backend round trip ships fragment tasks and
            # untouched corridors come from the per-chain cache (exact by the
            # stitcher's argument).  Owners are resolved per call, so kd
            # migrations need no invalidation.
            corridors, self.stitch_stats = self.view.report(
                lambda path_id: self.owners[path_id].shard_id
            )
            return corridors
        straddling: Dict[int, Tuple[int, int]] = {}
        for entries in self.boundary_ledger.values():
            straddling.update(entries)
        #: path_id -> (path, hotness, owner shard id) for every hot fragment.
        info: Dict[int, Tuple[MotionPath, int, int]] = {}
        tasks: Dict[int, List[StitchFragment]] = {}
        for shard in self.shards:
            shard_id = shard.shard_id
            for path_id, hotness in shard.hotness.items():
                if path_id not in self.owners:
                    continue  # hot entry without a live record (mirrors hot_paths())
                path = shard.index.get(path_id).path
                end_shard = straddling.get(path_id, (shard_id, shard_id))[1]
                info[path_id] = (path, hotness, shard_id)
                tasks.setdefault(shard_id, []).append(
                    (
                        path_id,
                        path.start.x,
                        path.start.y,
                        path.end.x,
                        path.end.y,
                        True,
                        end_shard == shard_id,
                    )
                )
                if end_shard != shard_id:
                    tasks.setdefault(end_shard, []).append(
                        (path_id, path.start.x, path.start.y, path.end.x, path.end.y, False, True)
                    )
        runs = self.pipeline.backend.map_stitch_buckets(self, tasks) if tasks else []
        successor = successors_from_runs(runs)
        owner_of = lambda path_id: info[path_id][2]
        chains = chain_fragments(info, successor)
        # Both weld stats count the welds the chaining actually *consumes*
        # (one closing weld per cycle drops out first): that makes ``welds``
        # layout-independent — a cycle broken inside one shard's run and a
        # cycle broken by the merge report the same number — and keeps
        # ``fragments - welds == corridors``.
        welds_used = sum(len(chain) - 1 for chain in chains)
        boundary_welds = sum(
            1
            for chain in chains
            for predecessor_id, successor_id in zip(chain, chain[1:])
            if owner_of(predecessor_id) != owner_of(successor_id)
        )
        corridors = build_corridors(chains, lambda path_id: info[path_id][:2])
        self.stitch_stats = {
            "fragments": len(info),
            "welds": welds_used,
            "boundary_welds": boundary_welds,
            "corridors": len(corridors),
            "multi_segment_corridors": sum(
                1 for corridor in corridors if corridor.num_segments > 1
            ),
        }
        return corridors

    # -- diagnostics ----------------------------------------------------------------

    def delta_statistics(self) -> Dict[str, float]:
        """Lifetime incrementality counters of the delta pipeline.

        All zeros in ``full`` mode (stable schema): ``pools_reused`` /
        ``pools_prefix_reused`` / ``pools_rebuilt`` tally the pool cache's
        outcomes over every epoch, the rest are the incremental stitcher's
        totals — how many corridor chains were re-welded vs. reused, how many
        fragments entered and left the hot set, how many expiry events
        coalesced into a single chain teardown, and how many corridor objects
        were patched vs. served from cache.
        """
        statistics: Dict[str, float] = {
            "pools_total": 0,
            "pools_reused": 0,
            "pools_prefix_reused": 0,
            "pools_rebuilt": 0,
            "chains_rewelded": 0,
            "chains_reused": 0,
            "fragments_added": 0,
            "fragments_removed": 0,
            "expiry_coalesced": 0,
            "corridors_patched": 0,
            "corridors_reused": 0,
        }
        if self.pool_cache is not None:
            statistics["pools_reused"] = self.pool_cache.reused
            statistics["pools_prefix_reused"] = self.pool_cache.prefix_reused
            statistics["pools_rebuilt"] = self.pool_cache.rebuilt
            statistics["pools_total"] = (
                self.pool_cache.reused
                + self.pool_cache.prefix_reused
                + self.pool_cache.rebuilt
            )
        if self.view is not None:
            statistics.update(self.view.stitcher.totals)
        return statistics

    def shard_statistics(self) -> Dict[str, float]:
        """Load-balance diagnostics: how evenly records spread over the fleet.

        Per-shard load is ``len(shard.index)`` — the records the shard
        *owns* (registered with the start owner).  A boundary-straddling
        path contributes exactly one record to exactly one shard: the end
        owner holds only an endpoint entry, never the record, so straddling
        paths are not double-counted even though both endpoint shards can
        see them through :meth:`boundary_ledger_of` (pinned by
        ``tests/test_rebalancing.py::TestShardStatistics``).
        ``straddling_paths`` likewise counts each straddling path once:
        every path lives in exactly one per-boundary ledger (keyed by the
        sorted shard pair).  ``imbalance`` is the ``max / mean`` load ratio
        the rebalance protocol thresholds on (1.0 = perfectly even).
        """
        sizes = [len(shard.index) for shard in self.shards]
        total = sum(sizes)
        mean = total / len(sizes) if sizes else 0.0
        statistics = {
            "num_shards": len(self.shards),
            "total_records": total,
            "max_shard_records": max(sizes) if sizes else 0,
            "min_shard_records": min(sizes) if sizes else 0,
            "mean_shard_records": mean,
            "imbalance": (max(sizes) / mean) if total else 1.0,
            "straddling_paths": sum(
                len(entries) for entries in self.boundary_ledger.values()
            ),
            "rebalances": self.rebalances,
            # Elastic-fleet signals: lifetime migration counters, whether a
            # budgeted migration is mid-flight, and the per-shard epoch-time
            # attribution (measured wall-clock spread over shards by bucket
            # share, EWMA-smoothed; the cost model consumes the underlying
            # deterministic ratios, these keys are the human-readable view).
            "elastic_migrations": self.migrations_started,
            "records_migrated": self.records_migrated_total,
            "migration_active": 1.0 if self._migration is not None else 0.0,
            "max_shard_epoch_seconds": (
                max(self._epoch_seconds_ewma.values())
                if self._epoch_seconds_ewma
                else 0.0
            ),
            "mean_shard_epoch_seconds": (
                sum(self._epoch_seconds_ewma.values()) / len(self._epoch_seconds_ewma)
                if self._epoch_seconds_ewma
                else 0.0
            ),
        }
        statistics.update(self.delta_statistics())
        return statistics
