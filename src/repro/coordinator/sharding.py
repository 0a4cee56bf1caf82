"""Sharded coordinator subsystem: horizontal partitioning of the monitored area.

The paper's coordinator is a single process owning one grid index, one hotness
tracker and one SinglePath strategy.  A sharded coordinator divides the
monitored area into a fixed uniform R x C *shard grid*
(:class:`~repro.coordinator.partition.ShardGrid`); every shard owns the full
coordinator state for its cell:

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
grid's (:attr:`ShardRouter.grid`): total over the plane, so points outside
the monitored area land in border shards, and every query region fans out to
exactly the shards whose cells it overlaps.  The grid is fixed at
construction: no record ever changes shards.
:meth:`ShardRouter.shard_statistics` reports how unevenly records spread over
the fleet (``imbalance`` = max/mean shard records) — a diagnostic only, since
every decision runs in the parent in submission order whatever the spread.

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
the connected components of the positive-area intersection graph (an
isolated FSA is just its singleton box; the rest are pools), the cross-epoch
cache serves the pools that repeat, the backend builds the rest beside the
candidate passes, and the merge yields the one structure the
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

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import CoordinatorError
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
from repro.coordinator.partition import ShardGrid, shard_layout
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
    "plan_shard_overlaps",
    "ShardGrid",
    "Shard",
    "ShardRouter",
    "ShardedGridIndex",
    "ShardedHotnessTracker",
    "ShardedSinglePath",
]


@dataclass
class Shard:
    """One shard: its sub-area plus the coordinator state it owns.

    Grid coordinates are deliberately absent — a cell's place in the layout
    is the grid's business (:attr:`ShardRouter.grid`), not the shard's.
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

    def __init__(self, router: "ShardRouter", shard: Shard) -> None:
        self._router = router
        self._shard_id = shard.shard_id
        self._local_index = shard.index

    def _local_only(self, region: Rectangle) -> bool:
        return self._router.grid.single_shard_of(region) == self._shard_id

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
    #: Never called: bench/ (which does not change with src/) looks it up here.
    maybe_rebalance = None

    def __init__(self, config: "CoordinatorConfig") -> None:
        #: The validated configuration (area, window, grid and every fleet
        #: knob — :class:`~repro.coordinator.fleet.FleetConfig` documents and
        #: validates them; the router only consults them).
        self.config = config
        #: The fixed R x C shard grid (never replaced).
        self.grid = ShardGrid(config.bounds, *shard_layout(config.num_shards))
        #: Lifetime record deletes (``ShardedGridIndex.deletions``).
        self.deletes_total = 0
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
        # Shard grids should never be much coarser than the global grid
        # (``GridConfig`` is square, shard cells may not be): divide the global
        # resolution by the grid's smaller dimension.  Resolution only affects
        # cell fan-out cost — every query filters entries exactly.
        shard_cells = max(1, config.cells_per_axis // min(self.grid.rows, self.grid.cols))
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
        #: The fleet's one query view, over the facades (ids and global
        #: hotness are layout-independent).
        self.view: Optional[HotPathView] = (
            HotPathView(self.index, self.hotness) if delta_mode else None
        )
        self.pipeline = ShardedSinglePath(self, create_backend(config.backend))
        for shard in self.shards:
            shard.strategy = SinglePathStrategy(
                _ShardLocalView(self, shard), self.hotness
            )

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
        if start_owner is not end_owner:
            self._ledger_add(record.path_id, start_owner.shard_id, end_owner.shard_id)
        return record

    def delete(self, path_id: int) -> None:
        """Remove a path's record and both endpoint entries, wherever they live."""
        owner = self.owners.get(path_id)
        if owner is None:
            raise CoordinatorError(f"motion path {path_id} is not in the index")
        record = owner.index.get(path_id)
        owner.index.remove_entry(path_id, record.path.start, is_start=True)
        end_owner = self.shard_of(record.path.end)
        end_owner.index.remove_entry(path_id, record.path.end, is_start=False)
        owner.index.unregister(path_id)
        del self.owners[path_id]
        self.deletes_total += 1
        if owner is not end_owner:
            self._ledger_discard(path_id, owner.shard_id, end_owner.shard_id)

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
            # stitcher's argument).
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
        outcomes over every epoch (pools are components of two or more FSAs;
        isolated FSAs never reach the cache), the rest are the incremental
        stitcher's totals — how many corridor chains were re-welded vs.
        reused, how many fragments entered and left the hot set, how many
        expiry events coalesced into a single chain teardown, and how many
        corridor objects were patched vs. served from cache.
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
        ``tests/test_shard_grid.py::TestShardStatistics``).
        ``straddling_paths`` likewise counts each straddling path once:
        every path lives in exactly one per-boundary ledger (keyed by the
        sorted shard pair).  ``imbalance`` is the ``max / mean`` load ratio
        (1.0 = perfectly even).
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
        }
        statistics.update(self.delta_statistics())
        return statistics
