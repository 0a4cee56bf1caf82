"""Opening-window Douglas-Peucker variants (Meratnia & de By, EDBT 2004).

These are the streaming adaptations referenced as [20] in the paper: instead
of simplifying a complete trajectory offline, the algorithm fixes a starting
point and repeatedly extends a candidate segment to the newest measurement
(the *floating endpoint*), checking that all intermediate measurements stay
within the tolerance.  When the check fails the segment is closed and a new
one starts.  Two closing policies exist:

* ``NOPW`` (normal opening window, the conservative policy) — close the
  segment at the intermediate point that violated the tolerance the most;
* ``BOPW`` (before opening window, the eager policy) — close the segment at
  the measurement just before the floating endpoint.

The output is a sequence of segments whose endpoints are original
measurements, i.e. a strict trajectory synopsis.  The DP hot-segment baseline
of Section 6 builds on this generator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, max_distance
from repro.core.trajectory import TimePoint

__all__ = ["OpeningWindowPolicy", "OpeningWindowSegment", "OpeningWindowSimplifier", "synchronous_distance"]


def synchronous_distance(timepoint: TimePoint, start: TimePoint, end: TimePoint) -> float:
    """Spatiotemporal distance of ``timepoint`` to the segment ``start -> end``.

    The segment is interpreted as uniform motion from ``start`` to ``end``;
    the distance is the max-distance between the timepoint's position and the
    interpolated position at the same timestamp, matching how motion-path
    proximity is defined in the paper.
    """
    span = end.timestamp - start.timestamp
    if span == 0:
        return max_distance(timepoint.point, start.point)
    fraction = (timepoint.timestamp - start.timestamp) / span
    interpolated = Point(
        start.x + fraction * (end.x - start.x),
        start.y + fraction * (end.y - start.y),
    )
    return max_distance(timepoint.point, interpolated)


class OpeningWindowPolicy(enum.Enum):
    """Closing policy of the opening-window algorithm."""

    NOPW = "nopw"
    BOPW = "bopw"


@dataclass(frozen=True)
class OpeningWindowSegment:
    """One simplification segment produced by the opening-window algorithm."""

    start: TimePoint
    end: TimePoint


class OpeningWindowSimplifier:
    """Streaming opening-window simplifier for a single object's measurements.

    Feed measurements with :meth:`observe`; each call returns the segment that
    was closed by this measurement, if any.
    """

    def __init__(self, tolerance: float, policy: OpeningWindowPolicy = OpeningWindowPolicy.NOPW) -> None:
        if tolerance <= 0:
            raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
        self.tolerance = tolerance
        self.policy = policy
        self._window: List[TimePoint] = []

    def observe(self, timepoint: TimePoint) -> Optional[OpeningWindowSegment]:
        """Process one measurement; return the closed segment when one is emitted."""
        if not self._window:
            self._window.append(timepoint)
            return None
        candidate_start = self._window[0]
        # Check all intermediate points against the candidate segment ending at
        # the new floating endpoint.
        worst_distance = -1.0
        worst_index = -1
        for index in range(1, len(self._window)):
            distance = synchronous_distance(self._window[index], candidate_start, timepoint)
            if distance > worst_distance:
                worst_distance = distance
                worst_index = index
        if worst_distance <= self.tolerance:
            self._window.append(timepoint)
            return None

        # Violation: close the segment according to the policy.
        if self.policy is OpeningWindowPolicy.NOPW:
            split_index = worst_index
        else:
            split_index = len(self._window) - 1
        segment = OpeningWindowSegment(candidate_start, self._window[split_index])
        # The new window starts at the split point and keeps the measurements
        # after it (still to be covered), followed by the new measurement.
        self._window = self._window[split_index:] + [timepoint]
        return segment
