"""Timepoints, uncertain timepoints and trajectories (paper Section 3.1).

A *timepoint* pairs a position with a timestamp.  A *trajectory* is the
time-ordered sequence of timepoints recorded for one object; between two
consecutive timestamps the object is assumed to move at constant velocity, so
its position at any intermediate time is obtained by linear interpolation.

Under positional uncertainty each measurement additionally carries the standard
deviations of the Gaussian noise on each axis
(:class:`UncertainTimePoint`); the RayTrace adaptation of Section 4.1 turns
those into shrunken tolerance intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.core.errors import InvalidTrajectoryError
from repro.core.geometry import Point

__all__ = ["TimePoint", "UncertainTimePoint", "Trajectory"]


@dataclass(frozen=True)
class TimePoint:
    """A position observed at a discrete timestamp."""

    point: Point
    timestamp: int

    @property
    def x(self) -> float:
        return self.point.x

    @property
    def y(self) -> float:
        return self.point.y

@dataclass(frozen=True)
class UncertainTimePoint:
    """A noisy position measurement with per-axis Gaussian standard deviations.

    ``point`` holds the reported mean location.  ``sigma_x`` / ``sigma_y`` are
    the standard deviations of the true location around that mean; the paper
    assumes the axes are independent.
    """

    point: Point
    timestamp: int
    sigma_x: float
    sigma_y: float

    def __post_init__(self) -> None:
        if self.sigma_x < 0 or self.sigma_y < 0:
            raise InvalidTrajectoryError(
                f"standard deviations must be non-negative, got ({self.sigma_x}, {self.sigma_y})"
            )

    @property
    def x(self) -> float:
        return self.point.x

    @property
    def y(self) -> float:
        return self.point.y


class Trajectory:
    """A time-ordered sequence of timepoints for a single object.

    The class enforces strictly increasing timestamps.
    """

    __slots__ = ("object_id", "_timepoints", "_timestamps")

    def __init__(self, object_id: int = 0) -> None:
        self.object_id = object_id
        self._timepoints: List[TimePoint] = []
        self._timestamps: List[int] = []

    # -- mutation -------------------------------------------------------------

    def append(self, timepoint: TimePoint) -> None:
        """Append a timepoint; its timestamp must exceed the current last one."""
        if self._timestamps and timepoint.timestamp <= self._timestamps[-1]:
            raise InvalidTrajectoryError(
                f"timestamps must strictly increase: {timepoint.timestamp} after {self._timestamps[-1]}"
            )
        self._timepoints.append(timepoint)
        self._timestamps.append(timepoint.timestamp)

    # -- container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._timepoints)

    def __iter__(self) -> Iterator[TimePoint]:
        return iter(self._timepoints)

    def __getitem__(self, index: int) -> TimePoint:
        return self._timepoints[index]

    # -- accessors ---------------------------------------------------------------

    @property
    def start_time(self) -> int:
        if not self._timepoints:
            raise InvalidTrajectoryError("empty trajectory has no start time")
        return self._timestamps[0]

    @property
    def end_time(self) -> int:
        if not self._timepoints:
            raise InvalidTrajectoryError("empty trajectory has no end time")
        return self._timestamps[-1]

    def covers_time(self, timestamp: float) -> bool:
        """True when ``timestamp`` lies inside the observed time range."""
        if not self._timepoints:
            return False
        return self._timestamps[0] <= timestamp <= self._timestamps[-1]
