"""Coordinator facade: message intake, epoch processing and top-k reporting.

The coordinator owns the three structures of Section 5 — the grid index over
motion-path endpoints, the hotness tracker with its expiry event queue and the
SinglePath strategy — and exposes the small protocol surface the simulation
engine (or a real deployment) needs:

* :meth:`submit_state` — accept a state message from a client at any time;
* :meth:`run_epoch` — at an epoch boundary, expire stale crossings, run
  SinglePath over the accumulated batch and return the per-object responses;
* :meth:`top_k` / :meth:`hot_paths` — query the currently hot motion paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Rectangle
from repro.core.motion_path import MotionPathRecord
from repro.core.scoring import ScoredPath, select_top_k, top_k_score
from repro.client.state import CoordinatorResponse, ObjectState
from repro.coordinator.columnar import resolve_kernel
from repro.coordinator.delta import EpochDelta
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.overlaps import OverlapPoolCache
from repro.coordinator.grid_index import GridConfig, GridIndex
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.query_view import HotPathView
from repro.coordinator.sharding import ShardRouter
from repro.coordinator.single_path import SinglePathStrategy
from repro.coordinator.stitching import (
    CompositeCorridor,
    select_top_k_corridors,
    stitch_paths,
)

__all__ = ["CoordinatorConfig", "EpochOutcome", "Coordinator"]


@dataclass(frozen=True)
class _MonitoredArea:
    """The paper's coordinator parameters (Section 5): area, window ``W``, grid."""

    bounds: Rectangle
    window: int = 100
    cells_per_axis: int = 64


@dataclass(frozen=True)
class CoordinatorConfig(FleetConfig, _MonitoredArea):
    """Configuration of the coordinator: the monitored area plus the fleet knobs.

    ``window`` is the sliding-window length ``W`` in time units; ``bounds`` is
    the monitored area used to size the grid index; ``cells_per_axis`` sets the
    grid resolution.  The remaining fields are inherited from
    :class:`~repro.coordinator.fleet.FleetConfig` — the single declaration of
    the topology knobs, tabulated in ``docs/ARCHITECTURE.md`` ("Fleet knobs") —
    so a layer holding a ``fleet`` builds this config with
    ``CoordinatorConfig(bounds=..., window=..., **dataclasses.asdict(fleet))``.
    A single-shard coordinator always runs the paper's inline strategy and
    consults only ``epoch_mode`` and ``kernel``.

    Dataclass fields are collected from the last base first, which is what
    puts the required ``bounds`` ahead of the defaulted knobs without
    ``kw_only`` (Python 3.9 is supported).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")


@dataclass
class EpochOutcome:
    """Result of processing one epoch at the coordinator."""

    timestamp: int
    responses: List[CoordinatorResponse] = field(default_factory=list)
    states_processed: int = 0
    paths_inserted: int = 0
    paths_reused: int = 0
    paths_expired: int = 0
    #: Whether the epoch boundary triggered a shard-partition rebalance
    #: (kd partitions only; never changes any other field of the outcome).
    rebalanced: bool = False
    processing_seconds: float = 0.0
    #: The epoch's first-class change record (``epoch_mode="delta"`` only;
    #: ``None`` in full mode).  Purely observational — no pipeline stage's
    #: correctness depends on it.
    delta: Optional[EpochDelta] = None


class Coordinator:
    """Central coordinator maintaining hot motion paths over a sliding window."""

    def __init__(self, config: CoordinatorConfig) -> None:
        self.config = config
        if config.num_shards == 1:
            kernel = resolve_kernel(config.kernel)
            self.router = None
            self.index = GridIndex(
                GridConfig(config.bounds, config.cells_per_axis), kernel=kernel
            )
            self.hotness = HotnessTracker(config.window)
            # Delta mode runs the single "pool" (the epoch's full FSA map)
            # through the same cross-epoch cache protocol the sharded router
            # uses, so the pools_* delta counters mean the same thing at
            # every fleet size.
            self._pool_cache: Optional[OverlapPoolCache] = (
                OverlapPoolCache(kernel=kernel)
                if config.epoch_mode == "delta"
                else None
            )
            self.strategy = SinglePathStrategy(
                self.index, self.hotness, kernel=kernel, pool_cache=self._pool_cache
            )
            # Delta mode only: the view is fed by the delta log, and full
            # mode is the reference whose queries *are* the oracle scans.
            self._view: Optional[HotPathView] = None
            if config.epoch_mode == "delta":
                self.hotness.enable_delta_log()
                self._view = HotPathView(self.index, self.hotness)
        else:
            # The router views expose the exact GridIndex / HotnessTracker /
            # SinglePathStrategy interfaces, so the epoch loop below is the
            # same code whether the state lives in one shard or a fleet.
            self.router = ShardRouter(config)
            self.index = self.router.index
            self.hotness = self.router.hotness
            self.strategy = self.router.pipeline
            self._pool_cache = None  # the router owns the pool cache
            self._view = self.router.view  # one view for the fleet, not per shard
        self._pending_states: List[ObjectState] = []
        self._corridor_cache: Optional[List[CompositeCorridor]] = None
        self._epochs_processed = 0
        self._total_processing_seconds = 0.0

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the execution backend's worker pool, if any.

        Queries (``top_k``, ``hot_paths`` …) remain valid after closing; a
        subsequent ``run_epoch`` lazily revives the pool.
        """
        if self.router is not None:
            self.router.pipeline.close()

    # -- intake ---------------------------------------------------------------

    def submit_state(self, state: ObjectState) -> None:
        """Queue a state message for processing at the next epoch."""
        self._pending_states.append(state)

    @property
    def pending_states(self) -> int:
        return len(self._pending_states)

    # -- epoch processing -----------------------------------------------------------

    def run_epoch(self, now: int) -> EpochOutcome:
        """Process all queued state messages and expire stale crossings.

        ``now`` is the current timestamp (the epoch boundary).  Returns the
        responses to deliver to the reporting objects along with bookkeeping
        counters used by the evaluation harness.
        """
        started = time.perf_counter()
        outcome = EpochOutcome(timestamp=now)
        self._corridor_cache = None

        expired = self.hotness.advance_time(now)
        deleted: List[int] = []
        for path_id in expired:
            if path_id in self.index:
                self.index.delete(path_id)
                deleted.append(path_id)
        outcome.paths_expired = len(expired)

        states, self._pending_states = self._pending_states, []
        outcome.states_processed = len(states)
        epoch_result = self.strategy.process_epoch(states)
        outcome.responses = epoch_result.responses
        outcome.paths_inserted = epoch_result.paths_inserted
        outcome.paths_reused = epoch_result.paths_reused

        # Epoch-boundary rebalance check: a kd fleet whose record load drifted
        # past the imbalance threshold refits its partition and migrates here,
        # between epochs — behaviour-invisible (state moves, answers don't).
        if self.router is not None:
            outcome.rebalanced = self.router.maybe_rebalance()

        if self.config.epoch_mode == "delta":
            outcome.delta = self._assemble_delta(
                now, deleted, epoch_result, outcome.rebalanced
            )

        elapsed = time.perf_counter() - started
        if self.router is not None:
            # Feed the elastic cost model's *diagnostic* timing signal.  The
            # router attributes the epoch's wall-clock to shards by bucket
            # share; decisions never consume it (wall-clock is not
            # stream-deterministic), it only surfaces in shard_statistics.
            self.router.note_epoch_seconds(elapsed)
        outcome.processing_seconds = elapsed
        self._epochs_processed += 1
        self._total_processing_seconds += outcome.processing_seconds
        return outcome

    def _assemble_delta(
        self,
        now: int,
        deleted: List[int],
        epoch_result,
        rebalanced: bool,
    ) -> EpochDelta:
        """Fold the epoch's change record into a first-class :class:`EpochDelta`.

        Inserted ids come from the decisions (already renumbered to the
        serial allocation on parallel backends, so the tuple is
        backend-independent); hotness transitions are drained from the
        trackers' delta logs, with the merged categories sorted ascending —
        the deterministic encoding of the underlying event sets.
        """
        log = self.hotness.drain_delta_log()
        # All the query view costs an epoch: remember which ids to re-read.
        self._view.note(log, len(deleted))
        inserted = tuple(
            decision.path_id
            for decision in epoch_result.decisions
            if not decision.reused_existing_path
        )
        if self.router is not None:
            pool_stats = self.router.last_pool_stats
            renumbered = self.router.last_renumbered
            records_migrated = self.router.last_migration_moved
            migration_active = self.router.last_migration_active
        else:
            # The single-shard strategy runs its one pool per epoch through
            # the same cache protocol as the sharded pipeline, so its
            # counters slot straight in (serial commits never renumber).
            pool_stats = self.strategy.last_pool_stats
            renumbered = 0
            records_migrated = 0
            migration_active = False
        return EpochDelta(
            timestamp=now,
            inserted=inserted,
            deleted=tuple(sorted(deleted)),
            newly_hot=tuple(sorted(log.newly_hot)),
            touched=tuple(sorted(log.touched)),
            decayed=tuple(sorted(log.decayed)),
            vanished=tuple(sorted(log.vanished)),
            renumbered=renumbered,
            pools_total=pool_stats["pools_total"],
            pools_reused=pool_stats["pools_reused"],
            pools_prefix_reused=pool_stats["pools_prefix_reused"],
            pools_rebuilt=pool_stats["pools_rebuilt"],
            rebalanced=rebalanced,
            records_migrated=records_migrated,
            migration_active=migration_active,
        )

    # -- queries ---------------------------------------------------------------------

    def index_size(self) -> int:
        """Number of motion paths currently stored in the grid index."""
        return len(self.index)

    def shard_statistics(self) -> Dict[str, float]:
        """Load-balance diagnostics; a single-shard coordinator reports one shard."""
        if self.router is not None:
            return self.router.shard_statistics()
        # The single-shard fallback reports the exact schema (and types) of
        # the sharded path: record counts are ints with a float mean, and
        # the delta counters carry the pool cache's and the stitcher's live
        # lifetime totals — the same semantics a 1-shard fleet reports, not
        # hardcoded zeros (pinned by tests/test_rebalancing.py).
        size = len(self.index)
        statistics = {
            "num_shards": 1,
            "total_records": size,
            "max_shard_records": size,
            "min_shard_records": size,
            "mean_shard_records": float(size),
            "imbalance": 1.0,
            "straddling_paths": 0,
            "rebalances": 0,
            "elastic_migrations": 0,
            "records_migrated": 0,
            "migration_active": 0.0,
            "max_shard_epoch_seconds": 0.0,
            "mean_shard_epoch_seconds": 0.0,
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
        if self._pool_cache is not None:
            statistics["pools_reused"] = self._pool_cache.reused
            statistics["pools_prefix_reused"] = self._pool_cache.prefix_reused
            statistics["pools_rebuilt"] = self._pool_cache.rebuilt
            statistics["pools_total"] = (
                self._pool_cache.reused
                + self._pool_cache.prefix_reused
                + self._pool_cache.rebuilt
            )
        if self._view is not None:
            statistics.update(self._view.stitcher.totals)
        return statistics

    def hot_paths(self) -> List[Tuple[MotionPathRecord, int]]:
        """All stored paths with non-zero hotness, as ``(record, hotness)`` pairs."""
        results: List[Tuple[MotionPathRecord, int]] = []
        for path_id, hotness in self.hotness.items():
            if path_id in self.index:
                results.append((self.index.get(path_id), hotness))
        return results

    def top_k(self, k: int, by_score: bool = False) -> List[ScoredPath]:
        """Top-k hottest motion paths (optionally ranked by score instead).

        Always fresh, mutations made directly between epochs included.  In
        delta mode a read of the maintained view (``k`` entries, not a
        re-rank of every hot path); ``select_top_k(hot_paths())`` is the
        oracle it must equal, and the full-mode implementation.
        """
        if self._view is not None:
            return self._view.top_k(k, by_score)
        return select_top_k(self.hot_paths(), k, by_score=by_score)

    def top_k_score(self, k: int) -> float:
        """Average score of the current top-k set (paper's quality metric)."""
        return top_k_score(self.top_k(k))

    def hot_corridors(self) -> List[CompositeCorridor]:
        """The current hot paths stitched into composite corridors.

        The full report: every hot path, grouped.  Delta mode patches the
        maintained view's chains with the ids dirtied since the last query
        and materialises every chain (untouched ones from the per-chain
        cache); full mode stitches the hot set from scratch — per-shard weld
        passes on a fleet, ``stitch_paths(hot_paths())`` on a single shard,
        the seed report every configuration must reproduce bit for bit.  The
        first call after an epoch's commit caches the report until the next
        epoch; mutating the index or hotness directly between epochs (outside
        ``run_epoch``) does not refresh that cache.  A partition rebalance
        needs no refresh: it moves state, never corridors.
        """
        if self._corridor_cache is None:
            if self.router is not None:
                self._corridor_cache = self.router.stitch_epoch()
            elif self._view is not None:
                # One constant owner: no boundaries, so boundary welds are zero.
                self._corridor_cache, _stats = self._view.report(lambda path_id: 0)
            else:
                self._corridor_cache = stitch_paths(self.hot_paths())
        return self._corridor_cache

    def top_k_corridors(self, k: int, by_score: bool = False) -> List[CompositeCorridor]:
        """Top-k composite corridors — the corridor-aware top-k merge.

        Ranked by merged hotness (or summed score with ``by_score``), with
        the same total-order tie-break style as the path top-k.  Delta mode
        reads the view's per-chain keys and materialises the ``k`` winners
        only; full mode ranks the full :meth:`hot_corridors` report, which is
        the oracle (``select_top_k_corridors``) either way.
        """
        if self._view is not None:
            return self._view.top_k_corridors(k, by_score)
        return select_top_k_corridors(self.hot_corridors(), k, by_score=by_score)

    # -- accounting ------------------------------------------------------------------------

    @property
    def epochs_processed(self) -> int:
        return self._epochs_processed

    @property
    def total_processing_seconds(self) -> float:
        return self._total_processing_seconds

    @property
    def mean_processing_seconds_per_epoch(self) -> float:
        if self._epochs_processed == 0:
            return 0.0
        return self._total_processing_seconds / self._epochs_processed
