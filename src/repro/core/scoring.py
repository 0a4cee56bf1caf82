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
from repro.core.motion_path import MotionPath
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
    paths: Iterable[Tuple[MotionPath, int]],
    k: int,
    by_score: bool = False,
) -> List[ScoredPath]:
    """Select the top-k paths ranked by hotness (default) or by score.

    ``paths`` yields ``(stored path, hotness)`` pairs, typically produced by the
    coordinator.  Ties are broken by score so longer paths are preferred among
    equally hot ones, then by path id for determinism.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    scored = [ScoredPath(path, hotness, path.path_id) for path, hotness in paths]
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


#: Depth of :class:`StandingTopK`'s kept set, in multiples of the ``k`` it
#: was ranked for; it is trimmed back to that depth when it doubles.  On
#: ``sim_paper`` (seed 11, 220 queries) depths 2, 3, 4 and 6 re-rank 4, 2, 2
#: and 2 times; depth 2 sorts the fewest keys per answer, and its queries
#: measured about 2 % faster than at depth 4.
KEPT_DEPTH = 2


class StandingTopK:
    """The top of a maintained set of rank tuples in one order: every key at
    or above a *floor*, kept across edits, so a top-k query reads k of a few
    dozen keys instead of :func:`rank_top_k` over the whole set.

    ``by_score`` fixes the order for the set's life (keys read as ``(score,
    hotness, -id)`` if true); an owner that answers both orders keeps one
    set per order and reports every edit to both.  The owner reports every
    key it adds, removes or replaces — old and new, in any order — to
    :meth:`edit`.  Once ranked, the *kept set* holds every live key at or
    above its floor, and nothing else:

    * an edited key at or above the floor *toggles* its membership.  That is
      exact because rank tuples are unique (the last element is a negated
      id) and each key is reported once per change: a removed key at or
      above the floor is in the set, and an added one is not — a key both
      removed and added again is reported twice and stays.  A key below the
      floor is neither in the set nor needed;
    * a set that doubles past its depth is trimmed back to its ``depth``
      largest keys, the last of which becomes the floor; the invariant holds,
      since every live key above the new floor was in the set;
    * :meth:`top_k` answers from the set while it holds at least ``k`` keys
      — the k largest of the set are then the k largest of all — and ranks
      the whole key set otherwise (or on its first query), to a depth of
      :data:`KEPT_DEPTH` times ``k``.  A rank that finds fewer keys than its
      depth keeps them all, with the floor ``()``, below every key; such a
      set answers any ``k`` until a trim gives it a floor.

    A set never ranked ignores its edits.  The last answer is kept until an
    edit toggles a key, so a query repeated over unchanged keys sorts nothing.
    """

    __slots__ = ("by_score", "_kept", "_floor", "_depth", "_answer")

    def __init__(self, by_score: bool) -> None:
        self.by_score = by_score
        #: Every live key at or above the floor, read in the set's order.
        self._kept: set = set()
        self._floor: tuple = ()
        #: The set's size right after a rank or a trim (when it was that
        #: long); 0 before the first rank.
        self._depth = 0
        #: ``(k, answer)`` of the last query, until an edit toggles a key.
        self._answer: Optional[Tuple[int, List[RankKey]]] = None

    def top_k(self, keys: Iterable[RankKey], k: int) -> List[RankKey]:
        """``rank_top_k(keys, k, self.by_score)``, read off the kept set when
        it holds ``k`` keys; ``keys`` is read only for a rank.

        The list returned is the kept answer itself: read it, never change it.
        """
        answer = self._answer
        if answer is not None and answer[0] == k:
            return answer[1]
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        by_score, kept = self.by_score, self._kept
        if not self._depth or (len(kept) < k and self._floor):
            depth = self._depth = KEPT_DEPTH * k
            ranked = rank_top_k(keys, depth, by_score)
            kept = self._kept = set(map(_SCORE_FIRST, ranked) if by_score else ranked)
            if len(ranked) < depth:
                self._floor = ()
            else:
                self._floor = _SCORE_FIRST(ranked[-1]) if by_score else ranked[-1]
        best = sorted(kept, reverse=True)[:k]
        if by_score:
            best = list(map(_SCORE_FIRST, best))
        self._answer = (k, best)
        return best

    def edit(self, keys: Iterable[RankKey]) -> None:
        """Toggle each of ``keys`` at or above the floor in the kept set."""
        if not self._depth:
            return
        by_score = self.by_score
        hits = list(filter(self._floor.__le__, map(_SCORE_FIRST, keys) if by_score else keys))
        if not hits:
            return
        kept = self._kept
        self._answer = None
        for key in hits:
            if key in kept:
                kept.remove(key)
            else:
                kept.add(key)
        if len(kept) >= 2 * self._depth:
            trimmed = sorted(kept, reverse=True)[: self._depth]
            self._kept, self._floor = set(trimmed), trimmed[-1]


def top_k_score(top_k: Sequence[ScoredPath]) -> float:
    """Average score of a top-k set; zero for an empty set."""
    if not top_k:
        return 0.0
    return sum(scored.score for scored in top_k) / len(top_k)
