"""The maintained query view: top-k paths and corridors without a re-rank.

An epoch changes a fraction of the hot set, and the hotness tracker already
logs which ids.  :class:`HotPathView` keeps one rank tuple per hot path and one
:class:`IncrementalStitcher`.  ``run_epoch`` only
accumulates the logged ids (:meth:`HotPathView.note`); the first query after
a commit re-reads exactly those from the index and the tracker, so epochs
nobody queries pay nothing and every answer equals the oracle scans —
``select_top_k(hot_paths())`` and ``stitch_paths(hot_paths())`` — bit for
bit.  ``docs/ARCHITECTURE.md`` ("Query path") has the argument.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.motion_path import MotionPath
from repro.core.scoring import RankKey, ScoredPath, rank_top_k
from repro.coordinator.hotness import HotnessDeltaLog
from repro.coordinator.stitching import CompositeCorridor, IncrementalStitcher

__all__ = ["HotPathView"]


class HotPathView:
    """Rank tuples per hot path plus corridor chains, patched from dirty ids.

    ``index`` and ``hotness`` are the coordinator's own.
    """

    def __init__(self, index, hotness) -> None:
        self._index = index
        self._hotness = hotness
        self.stitcher = IncrementalStitcher()
        self._rank: Dict[int, RankKey] = {}
        #: Ids whose state may differ from the view's; ``None`` once they
        #: outnumber the hot set (the next read rescans instead of patching).
        self._dirty: Optional[set] = set()
        #: Index deletions accounted for (all of them of dirty ids).
        self._deletions = 0

    def note(self, log: HotnessDeltaLog, deleted: int) -> None:
        """Accumulate one committed epoch: its drained log, its own deletions."""
        self._deletions += deleted
        self._mark(log.ids())

    def _mark(self, path_ids: Iterable[int]) -> None:
        if self._dirty is not None:
            self._dirty.update(path_ids)
            if len(self._dirty) > len(self._hotness):
                self._dirty = None

    def _state_of(self, path_id: int) -> Optional[Tuple[MotionPath, int]]:
        count = self._hotness.hotness(path_id)
        if count and path_id in self._index:
            return self._index.get(path_id).path, count
        return None

    def refresh(self) -> None:
        """Bring the view up to date, proving first that the dirty set is complete.

        Transitions still undrained in the tracker (a crossing recorded
        directly between epochs) are dirty too; a record deleted behind the
        coordinator's back, or a dirty set larger than the hot set, makes it
        re-read every id it or the tracker knows instead — the full scan.
        """
        self._mark(self._hotness.pending_delta_ids())
        deletions = self._index.deletions
        if deletions != self._deletions:
            self._deletions = deletions
            self._dirty = None
        dirty = self._dirty
        if dirty is None:  # the scan: every id the view or the tracker knows
            dirty = set(self._rank)
            dirty.update(path_id for path_id, _count in self._hotness.items())
        elif not dirty:
            return
        changes = {path_id: self._state_of(path_id) for path_id in dirty}
        self._dirty = set()
        rank = self._rank
        for path_id, state in changes.items():
            if state is None:
                rank.pop(path_id, None)
            else:
                path, count = state
                rank[path_id] = (count, count * path.length, -path_id)
        self.stitcher.apply(changes)

    def top_k(self, k: int, by_score: bool = False) -> List[ScoredPath]:
        """Top-k hot paths: a read of the rank tuples, ``k`` objects built."""
        self.refresh()
        record_of = self._index.get
        return [
            ScoredPath(record_of(-negated_id).path, count, -negated_id)
            for count, _score, negated_id in rank_top_k(self._rank.values(), k, by_score)
        ]

    def top_k_corridors(self, k: int, by_score: bool = False) -> List[CompositeCorridor]:
        self.refresh()
        return self.stitcher.top_k(k, by_score)

    def report(
        self, owner_of: Callable[[int], int]
    ) -> Tuple[List[CompositeCorridor], Dict[str, int]]:
        """The full corridor report and its stats (see ``IncrementalStitcher.report``)."""
        self.refresh()
        return self.stitcher.report(owner_of)
