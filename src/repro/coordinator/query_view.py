"""The maintained query view: top-k paths and corridors without a re-rank.

An epoch changes a fraction of the hot set, and the hotness tracker already
logs which ids.  :class:`HotPathView` keeps one rank tuple per hot path (the
only place one is computed) and one :class:`IncrementalStitcher`, which
stores the tuples it is handed.  ``run_epoch`` only accumulates the logged
ids (:meth:`HotPathView.note`); the first query after a commit re-reads
those from the index and the tracker — all but the ones whose count came
back to where it was — and only a corridor, report or statistics read hands
the changes on to the stitcher, so epochs nobody queries pay nothing, a path
query pays nothing for corridors, and steady traffic pays for neither.  Each
top-k reads its order's kept set of the keys at or above a floor
(:class:`~repro.core.scoring.StandingTopK`): every edit at or above a floor
toggles its key there, and only a kept set that runs below k keys sends a
query back to the whole key set.  Every answer equals the oracle scans —
``select_top_k(hot_paths())`` and ``stitch_paths(hot_paths())`` — bit for
bit.  ``docs/ARCHITECTURE.md`` ("Query path") has the argument.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.motion_path import MotionPath
from repro.core.scoring import RankKey, ScoredPath, StandingTopK
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
        #: The kept sets of the path rank tuples, by hotness and by score.
        self._standing = (StandingTopK(False), StandingTopK(True))
        #: Ids whose state may differ from the view's; ``None`` once they
        #: outnumber the hot set (the next read rescans instead of patching).
        self._dirty: Optional[set] = set()
        #: Index deletions accounted for (all of them of dirty ids).
        self._deletions = 0
        #: Each refreshed id's final state, not yet handed to the stitcher:
        #: ``(path, rank tuple)`` if hot, ``None`` only for an id the
        #: stitcher holds — so it never exceeds |hot| + |held| entries.
        self._pending: Dict[int, Optional[Tuple[MotionPath, RankKey]]] = {}

    def note(self, log: HotnessDeltaLog, deleted: int) -> None:
        """Accumulate one committed epoch: its drained log, its own deletions."""
        self._deletions += deleted
        self._mark(log.ids())

    def _mark(self, path_ids: Iterable[int]) -> None:
        if self._dirty is not None:
            self._dirty.update(path_ids)
            if len(self._dirty) > len(self._hotness):
                self._dirty = None

    def refresh(self) -> None:
        """Bring the rank tuples (computed nowhere else) up to date and fold
        the changes into the pending map, proving first that the dirty set
        is complete.

        Transitions still undrained in the tracker (a crossing recorded
        directly between epochs) are dirty too; a path deleted behind the
        coordinator's back, or a dirty set larger than the hot set, makes it
        re-read every id it or the tracker knows instead — the full scan.

        A dirty id whose count equals the one in its rank tuple is skipped:
        on a steadily crossed path a new crossing replaces one that expired.
        Ids are never reused and a stored path is frozen, so an equal
        count means an equal tuple, and since ``rank`` and ``pending`` are
        written together the stitcher already has, or is about to get, that
        state.  Only after a deletion behind the coordinator's back does an
        equal count prove nothing (the path may be gone): that scan
        re-reads every id.
        """
        self._mark(self._hotness.pending_delta_ids())
        deletions = self._index.deletions
        trusted = deletions == self._deletions
        if not trusted:
            self._deletions = deletions
            self._dirty = None
        dirty = self._dirty
        if dirty is None:  # the scan: every id the view or the tracker knows
            dirty = set(self._rank)
            dirty.update(self._hotness.counts)
        elif not dirty:
            return
        self._dirty = set()
        rank, pending, holds = self._rank, self._pending, self.stitcher.holds
        count_of, path_of, ranked = self._hotness.counts.get, self._index.by_id.get, rank.get
        edited: List[RankKey] = []  # every rank tuple replaced, old and new
        for path_id in dirty:
            count = count_of(path_id)
            old = ranked(path_id)
            if old is not None and old[0] == count and trusted:
                continue  # net zero: the decays and touches cancelled
            path = path_of(path_id) if count else None
            if path is not None:
                key = rank[path_id] = (count, count * path.length, -path_id)
                edited.append(key)
                if old is not None:
                    edited.append(old)
                pending[path_id] = (path, key)
            else:
                if old is not None:
                    del rank[path_id]
                    edited.append(old)
                if holds(path_id):
                    pending[path_id] = None
                else:
                    pending.pop(path_id, None)
        if edited:
            for standing in self._standing:
                standing.edit(edited)

    def stitched(self) -> IncrementalStitcher:
        """The stitcher, brought up to date: the only place that stitches."""
        self.refresh()
        if self._pending:
            pending, self._pending = self._pending, {}
            self.stitcher.apply(pending)
        return self.stitcher

    def top_k(self, k: int, by_score: bool = False) -> List[ScoredPath]:
        """Top-k hot paths: a read of the kept rank tuples, ``k`` objects built."""
        self.refresh()
        path_of = self._index.get
        return [
            ScoredPath(path_of(-negated_id), count, -negated_id)
            for count, _score, negated_id in self._standing[bool(by_score)].top_k(
                self._rank.values(), k
            )
        ]

    def top_k_corridors(self, k: int, by_score: bool = False) -> List[CompositeCorridor]:
        return self.stitched().top_k(k, by_score)

    def report(
        self, owner_of: Callable[[int], int]
    ) -> Tuple[List[CompositeCorridor], Dict[str, int]]:
        """The full corridor report and its stats (see ``IncrementalStitcher.report``)."""
        return self.stitched().report(owner_of)
