"""Quality metrics for sets of discovered motion paths (paper Section 3.1).

The paper assesses top-k results with a *score* that promotes longer paths:
the score of a single motion path is its hotness multiplied by its length, and
the score of a top-k set is the average score of its members.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.motion_path import MotionPath, MotionPathRecord

__all__ = ["RankKey", "ScoredPath", "path_score", "rank_top_k", "select_top_k", "top_k_score"]

#: Rank tuple ``(hotness, score, -id)`` of a hot path or a corridor (id = lead
#: path id): as is, the by-hotness total order of :func:`select_top_k`; read
#: as ``(score, hotness, -id)``, the by-score one.
RankKey = Tuple[int, float, int]
_SCORE_FIRST = itemgetter(1, 0, 2)


@dataclass(frozen=True)
class ScoredPath:
    """A motion path together with its hotness and derived score."""

    path: MotionPath
    hotness: int
    path_id: int = -1

    @property
    def score(self) -> float:
        return self.hotness * self.path.length


def path_score(path: MotionPath, hotness: int) -> float:
    """Score of one path: ``hotness * length``."""
    if hotness < 0:
        raise ConfigurationError(f"hotness must be non-negative, got {hotness}")
    return hotness * path.length


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


def top_k_score(top_k: Sequence[ScoredPath]) -> float:
    """Average score of a top-k set; zero for an empty set."""
    if not top_k:
        return 0.0
    return sum(scored.score for scored in top_k) / len(top_k)
