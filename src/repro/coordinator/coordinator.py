"""Coordinator facade: message intake, epoch processing and top-k reporting.

The coordinator owns the three structures of Section 5 — the grid index over
motion-path endpoints, the hotness tracker with its expiry event queue and the
SinglePath strategy — and exposes the small protocol surface the simulation
engine (or a real deployment) needs:

* :meth:`submit_state` — accept a state message from a client at any time;
* :meth:`run_epoch` — at an epoch boundary, expire stale crossings, run
  SinglePath over the accumulated batch and return the per-object responses;
* :meth:`top_k` / :meth:`hot_paths` — query the currently hot motion paths;
* :meth:`refresh_queries` — bring the query view up to date ahead of a query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Rectangle
from repro.core.motion_path import MotionPath
from repro.core.scoring import ScoredPath, select_top_k, top_k_score
from repro.client.state import CoordinatorResponse, ObjectState
from repro.coordinator.delta import EpochDelta
from repro.coordinator.execution import create_backend
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.overlaps import OverlapPoolCache
from repro.coordinator.grid_index import GridConfig, GridIndex
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.query_view import HotPathView
from repro.coordinator.sharding import ShardRouter
from repro.coordinator.single_path import SinglePathStrategy
from repro.coordinator.stitching import (
    CompositeCorridor,
    corridor_stats,
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

    Dataclass fields are collected from the last base first, which is what
    puts the required ``bounds`` ahead of the defaulted knobs without
    ``kw_only`` (Python 3.9 is supported).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        GridConfig(self.bounds, self.cells_per_axis)  # validates the grid


@dataclass
class EpochOutcome:
    """Result of processing one epoch at the coordinator."""

    timestamp: int
    responses: List[CoordinatorResponse] = field(default_factory=list)
    states_processed: int = 0
    paths_inserted: int = 0
    paths_reused: int = 0
    paths_expired: int = 0
    processing_seconds: float = 0.0
    #: The epoch's first-class change record (``epoch_mode="delta"`` only;
    #: ``None`` in full mode).  Purely observational — no pipeline stage's
    #: correctness depends on it.
    delta: Optional[EpochDelta] = None


class Coordinator:
    """Central coordinator maintaining hot motion paths over a sliding window."""

    def __init__(self, config: CoordinatorConfig) -> None:
        self.config = config
        delta_mode = config.epoch_mode == "delta"
        # One index, one tracker and one strategy for every ``num_shards``:
        # the shard grid only labels records for diagnostics (``router``).
        self.index = GridIndex(
            GridConfig(config.bounds, config.cells_per_axis), kernel=config.kernel
        )
        self.hotness = HotnessTracker(config.window)
        # Delta mode keeps overlap components (the pool cache) and the query
        # view (rank tuples and corridor chains) alive across epochs; full
        # mode rebuilds all of it per epoch or query — the differential
        # reference, whose queries *are* the oracle scans.
        self._pool_cache: Optional[OverlapPoolCache] = (
            OverlapPoolCache() if delta_mode else None
        )
        self.strategy = SinglePathStrategy(
            self.index,
            self.hotness,
            pool_cache=self._pool_cache,
            backend=create_backend(config.backend),
        )
        self._view: Optional[HotPathView] = None
        if delta_mode:
            self.hotness.enable_delta_log()
            self._view = HotPathView(self.index, self.hotness)
        self.router = ShardRouter(config.bounds, config.num_shards, self.index, self.strategy)
        self._pending_states: List[ObjectState] = []
        self._epochs_processed = 0

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the execution backend's worker pool, if any.

        Queries (``top_k``, ``hot_paths`` …) remain valid after closing; a
        subsequent ``run_epoch`` lazily revives the pool.
        """
        self.strategy.backend.close()

    # -- intake ---------------------------------------------------------------

    def submit_state(self, state: ObjectState) -> None:
        """Queue a state message for processing at the next epoch."""
        self._pending_states.append(state)

    # -- epoch processing -----------------------------------------------------------

    def run_epoch(self, now: int) -> EpochOutcome:
        """Process all queued state messages and expire stale crossings.

        ``now`` is the current timestamp (the epoch boundary).  Returns the
        responses to deliver to the reporting objects along with bookkeeping
        counters used by the evaluation harness.
        """
        started = time.perf_counter()
        outcome = EpochOutcome(timestamp=now)

        expired = self.hotness.advance_time(now)
        deleted = self.index.delete_live(expired) if expired else []
        outcome.paths_expired = len(expired)

        states, self._pending_states = self._pending_states, []
        outcome.states_processed = len(states)
        epoch_result = self.strategy.process_epoch(states)
        outcome.responses = epoch_result.responses
        outcome.paths_inserted = epoch_result.paths_inserted
        outcome.paths_reused = epoch_result.paths_reused

        if self.config.epoch_mode == "delta":
            outcome.delta = self._assemble_delta(now, deleted, epoch_result)

        outcome.processing_seconds = time.perf_counter() - started
        self._epochs_processed += 1
        return outcome

    def _assemble_delta(self, now: int, deleted: List[int], epoch_result) -> EpochDelta:
        """Fold the epoch's change record into a first-class :class:`EpochDelta`.

        Inserted ids are the epoch result's (allocated in submission order
        on every backend, so the tuple is backend-independent); hotness
        transitions are drained from the tracker's delta log, with each
        category sorted ascending — the deterministic encoding of the
        underlying event sets.
        """
        log = self.hotness.drain_delta_log()
        # All the query view costs an epoch: remember which ids to re-read.
        self._view.note(log, len(deleted))
        pool_stats = self.strategy.last_pool_stats
        return EpochDelta(
            timestamp=now,
            inserted=tuple(epoch_result.inserted),
            deleted=tuple(sorted(deleted)),
            newly_hot=tuple(sorted(log.newly_hot)),
            touched=tuple(sorted(log.touched)),
            decayed=tuple(sorted(log.decayed)),
            vanished=tuple(sorted(log.vanished)),
            pools_total=pool_stats["pools_total"],
            pools_reused=pool_stats["pools_reused"],
            pools_rebuilt=pool_stats["pools_rebuilt"],
        )

    # -- queries ---------------------------------------------------------------------

    def index_size(self) -> int:
        """Number of motion paths currently stored in the grid index."""
        return len(self.index)

    def shard_statistics(self) -> Dict[str, float]:
        """Shard-label diagnostics plus the delta pipeline's lifetime counters.

        The first seven keys are :meth:`ShardRouter.shard_statistics`.  All
        the rest are zeros in ``full`` mode (stable schema): ``pools_reused``
        / ``pools_rebuilt`` tally the pool cache's
        outcomes over every epoch (pools are components of two or more FSAs;
        isolated FSAs never reach the cache), the rest are the incremental
        stitcher's totals — how many corridor chains were re-welded vs.
        reused, how many fragments entered and left the hot set, how many
        expiry events coalesced into a single chain teardown, and how many
        corridor objects were patched vs. served from cache.  Reading them
        stitches the changes the view holds pending, so they count every
        epoch; being per stitch, they count net, coalesced patches, and an
        epoch whose hotness changes all cancelled (each decay matched by a
        touch of the same path) makes no stitch and counts nothing.
        """
        cache = self._pool_cache
        reused, rebuilt = (cache.reused, cache.rebuilt) if cache is not None else (0, 0)
        statistics = self.router.shard_statistics()
        statistics.update(
            pools_total=reused + rebuilt,
            pools_reused=reused,
            pools_rebuilt=rebuilt,
            chains_rewelded=0,
            chains_reused=0,
            fragments_added=0,
            fragments_removed=0,
            expiry_coalesced=0,
            corridors_patched=0,
            corridors_reused=0,
        )
        if self._view is not None:
            statistics.update(self._view.stitched().totals)
        return statistics

    def hot_paths(self) -> List[Tuple[MotionPath, int]]:
        """All stored paths with non-zero hotness, as ``(path, hotness)`` pairs."""
        results: List[Tuple[MotionPath, int]] = []
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
        cache); full mode is ``stitch_paths(hot_paths())``, the seed report
        every configuration must reproduce bit for bit.  Either way the report
        is of the current state, also after a direct ``record_crossing`` or
        ``GridIndex.delete``.  The report's shape lands in
        ``router.stitch_stats``.
        """
        if self._view is not None:
            corridors, stats = self._view.report(self.router.owner_of)
        else:
            corridors = stitch_paths(self.hot_paths())
            stats = corridor_stats(corridors, self.router.owner_of)
        self.router.stitch_stats = stats
        return corridors

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

    def refresh_queries(self) -> None:
        """Do now the catch-up the next query would do first; answers nothing.

        Delta mode re-reads the rank tuples of the ids dirtied since the last
        query and stitches them (``HotPathView.stitched``), so a later
        ``top_k`` / ``top_k_corridors`` finds nothing pending; it warms no
        particular ``k``.  Full mode keeps no view: nothing to do.  The
        served loop calls it on its first idle turn after a commit; an
        in-process caller need not, queries stay lazy.
        """
        if self._view is not None:
            self._view.stitched()

    # -- accounting ------------------------------------------------------------------------

    @property
    def epochs_processed(self) -> int:
        return self._epochs_processed
