"""Baselines: the opening-window Douglas-Peucker simplifier, the DP hot-segment method and the naive client."""

from repro.baselines.opening_window import OpeningWindowPolicy, synchronous_distance
from repro.baselines.dp_hot import DPHotSegmentTracker
from repro.baselines.naive import NaiveClient

__all__ = [
    "synchronous_distance",
    "OpeningWindowPolicy",
    "DPHotSegmentTracker",
    "NaiveClient",
]
