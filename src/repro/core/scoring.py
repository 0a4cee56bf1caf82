"""Quality metrics for sets of discovered motion paths (paper Section 3.1).

The paper assesses top-k results with a *score* that promotes longer paths:
the score of a single motion path is its hotness multiplied by its length, and
the score of a top-k set is the average score of its members.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.core.value import FrozenValue

__all__ = [
    "RankKey",
    "ScoredPath",
    "StandingTopK",
    "rank_top_k",
    "select_top_k",
    "top_k_score",
]

#: Rank tuple ``(hotness, score, -id)`` of a hot path or a corridor (id = lead
#: path id): as is, the by-hotness total order of :func:`select_top_k`; read
#: as ``(score, hotness, -id)``, the by-score one.
RankKey = Tuple[int, float, int]
_SCORE_FIRST = itemgetter(1, 0, 2)


class ScoredPath(FrozenValue):
    """A motion path together with its hotness and derived score."""

    __slots__ = ("path", "hotness", "path_id")

    def __init__(self, path: MotionPath, hotness: int, path_id: int = -1) -> None:
        _set_path(self, path)
        _set_hotness(self, hotness)
        _set_path_id(self, path_id)

    @property
    def score(self) -> float:
        return self.hotness * self.path.length


_set_path = ScoredPath.path.__set__
_set_hotness = ScoredPath.hotness.__set__
_set_path_id = ScoredPath.path_id.__set__


def select_top_k(
    paths: Iterable[Tuple[MotionPathRecord, int]],
    k: int,
    by_score: bool = False,
) -> List[ScoredPath]:
    """Select the top-k paths ranked by hotness (default) or by score.

    ``paths`` yields ``(record, hotness)`` pairs, typically produced by the
    coordinator.  Ties are broken by score so longer paths are preferred among
    equally hot ones, then by path id for determinism.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    scored = [
        ScoredPath(record.path, hotness, record.path_id) for record, hotness in paths
    ]
    if by_score:
        key = lambda sp: (sp.score, sp.hotness, -sp.path_id)
    else:
        key = lambda sp: (sp.hotness, sp.score, -sp.path_id)
    return heapq.nlargest(k, scored, key=key)


def rank_top_k(keys: Iterable[RankKey], k: int, by_score: bool = False) -> List[RankKey]:
    """The ``k`` largest precomputed rank tuples, best first (the view's read)."""
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    return heapq.nlargest(k, keys, key=_SCORE_FIRST if by_score else None)


class StandingTopK:
    """The last :func:`rank_top_k` answer over a maintained set of rank tuples,
    kept until an edit reaches its k-th key.

    The owner reports every key it adds, removes or replaces — old and new —
    to :meth:`edit`.  The answer stands while each edited key lies below the
    *floor*, the answer's k-th key in its own order, and the next
    :meth:`top_k` with the same ``(k, by_score)`` returns it without a
    re-rank.  That is exact: rank tuples are totally ordered (the last
    element is a negated id, never shared), and the k largest keys of a set
    do not change when every key added or removed lies below the k-th.  An
    answer shorter than ``k`` has no floor: any edit drops it.
    """

    __slots__ = ("_query", "_keys", "_floor")

    def __init__(self) -> None:
        #: ``(k, by_score)`` of the standing answer; ``None`` when there is none.
        self._query: Optional[Tuple[int, bool]] = None
        self._keys: List[RankKey] = []
        #: The k-th key, read in the answer's order; ``None`` below k keys.
        self._floor: Optional[RankKey] = None

    def top_k(self, keys: Iterable[RankKey], k: int, by_score: bool = False) -> List[RankKey]:
        """``rank_top_k(keys, k, by_score)``, served from the standing answer
        when it was asked for with the same ``k`` and ``by_score``.

        The list returned is the standing answer itself: read it, never
        change it.
        """
        query = (k, bool(by_score))
        if query == self._query:
            return self._keys
        answer = rank_top_k(keys, k, by_score)
        self._query, self._keys = query, answer
        if len(answer) < k:
            self._floor = None
        else:
            self._floor = _SCORE_FIRST(answer[-1]) if by_score else answer[-1]
        return answer

    def edit(self, keys: Iterable[RankKey]) -> None:
        """Drop the standing answer if any of ``keys`` is at or above its floor."""
        if self._query is None:
            return
        floor, by_score = self._floor, self._query[1]
        for key in keys:
            if floor is None or (_SCORE_FIRST(key) if by_score else key) >= floor:
                self._query = None
                return


def top_k_score(top_k: Sequence[ScoredPath]) -> float:
    """Average score of a top-k set; zero for an empty set."""
    if not top_k:
        return 0.0
    return sum(scored.score for scored in top_k) / len(top_k)
