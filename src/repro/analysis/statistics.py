"""Descriptive statistics over discovered motion paths.

The evaluation section of the paper reports aggregate quantities (index size,
top-k score); when analysing a run it is equally useful to look at the full
distributions — how hotness and path length are distributed, how much of the
total "heat" the few hottest paths capture.  This module provides those
summaries as plain data classes without any plotting dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.core.motion_path import MotionPath

__all__ = [
    "DistributionSummary",
    "HotPathStatistics",
    "summarise_distribution",
    "hot_path_statistics",
]

HotPath = Tuple[MotionPath, int]


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-style summary of a sample."""

    count: int
    minimum: float
    maximum: float
    mean: float
    median: float
    p90: float
    total: float

    @classmethod
    def empty(cls) -> "DistributionSummary":
        return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def summarise_distribution(values: Sequence[float]) -> DistributionSummary:
    """Summarise a sample of values; an empty sample yields the zero summary."""
    if not values:
        return DistributionSummary.empty()
    ordered = sorted(values)
    n = len(ordered)

    def percentile(fraction: float) -> float:
        if n == 1:
            return ordered[0]
        position = fraction * (n - 1)
        lower = int(math.floor(position))
        upper = min(lower + 1, n - 1)
        weight = position - lower
        return ordered[lower] * (1.0 - weight) + ordered[upper] * weight

    return DistributionSummary(
        count=n,
        minimum=ordered[0],
        maximum=ordered[-1],
        mean=sum(ordered) / n,
        median=percentile(0.5),
        p90=percentile(0.9),
        total=sum(ordered),
    )


@dataclass(frozen=True)
class HotPathStatistics:
    """Joint summary of a set of hot motion paths."""

    hotness: DistributionSummary
    length: DistributionSummary
    score: DistributionSummary
    top_decile_heat_share: float


def hot_path_statistics(hot_paths: Iterable[HotPath]) -> HotPathStatistics:
    """Distributions of hotness, length and score over a hot-path set.

    ``top_decile_heat_share`` is the fraction of the total hotness captured by
    the hottest 10% of paths — a concentration measure: a value close to 1
    means a few very hot corridors dominate, which is exactly the situation
    the top-k query is designed for.
    """
    paths = list(hot_paths)
    hotness_values = [float(hotness) for _, hotness in paths]
    length_values = [path.length for path, _ in paths]
    score_values = [hotness * path.length for path, hotness in paths]

    share = 0.0
    total_heat = sum(hotness_values)
    if paths and total_heat > 0:
        ordered = sorted(hotness_values, reverse=True)
        decile = max(1, len(ordered) // 10)
        share = sum(ordered[:decile]) / total_heat

    return HotPathStatistics(
        hotness=summarise_distribution(hotness_values),
        length=summarise_distribution(length_values),
        score=summarise_distribution(score_values),
        top_decile_heat_share=share,
    )
