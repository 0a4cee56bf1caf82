"""Baselines: the opening-window Douglas-Peucker simplifier and the DP hot-segment method.

The naive always-report baseline is a message counter in the simulation
engine: one raw measurement per object per timestamp in ``metrics.naive_uplink``.
"""

from repro.baselines.opening_window import OpeningWindowPolicy, synchronous_distance
from repro.baselines.dp_hot import DPHotSegmentTracker

__all__ = [
    "synchronous_distance",
    "OpeningWindowPolicy",
    "DPHotSegmentTracker",
]
