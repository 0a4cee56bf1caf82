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

from typing import Iterator, List, Union

from repro.core.errors import InvalidTrajectoryError
from repro.core.geometry import Point
from repro.core.value import FrozenValue

__all__ = ["TimePoint", "UncertainTimePoint", "Measurement", "Trajectory"]


class TimePoint(FrozenValue):
    """A position observed at a discrete timestamp."""

    __slots__ = ("point", "timestamp")

    def __init__(self, point: Point, timestamp: int) -> None:
        _set_point(self, point)
        _set_timestamp(self, timestamp)

    @property
    def x(self) -> float:
        return self.point.x

    @property
    def y(self) -> float:
        return self.point.y


_set_point, _set_timestamp = TimePoint.point.__set__, TimePoint.timestamp.__set__


class UncertainTimePoint(FrozenValue):
    """A noisy position measurement with per-axis Gaussian standard deviations.

    ``point`` holds the reported mean location.  ``sigma_x`` / ``sigma_y`` are
    the standard deviations of the true location around that mean; the paper
    assumes the axes are independent.
    """

    __slots__ = ("point", "timestamp", "sigma_x", "sigma_y")

    def __init__(self, point: Point, timestamp: int, sigma_x: float, sigma_y: float) -> None:
        if sigma_x < 0 or sigma_y < 0:
            raise InvalidTrajectoryError(
                f"standard deviations must be non-negative, got ({sigma_x}, {sigma_y})"
            )
        _set_uncertain_point(self, point)
        _set_uncertain_timestamp(self, timestamp)
        _set_sigma_x(self, sigma_x)
        _set_sigma_y(self, sigma_y)

    @property
    def x(self) -> float:
        return self.point.x

    @property
    def y(self) -> float:
        return self.point.y


_set_uncertain_point = UncertainTimePoint.point.__set__
_set_uncertain_timestamp = UncertainTimePoint.timestamp.__set__
_set_sigma_x = UncertainTimePoint.sigma_x.__set__
_set_sigma_y = UncertainTimePoint.sigma_y.__set__

#: One position report: exact, or carrying its Gaussian uncertainty.
Measurement = Union[TimePoint, UncertainTimePoint]


class Trajectory:
    """A time-ordered sequence of timepoints for a single object.

    The class enforces strictly increasing timestamps.
    """

    __slots__ = ("object_id", "_timepoints")

    def __init__(self, object_id: int = 0) -> None:
        self.object_id = object_id
        self._timepoints: List[TimePoint] = []

    def append(self, timepoint: TimePoint) -> None:
        """Append a timepoint; its timestamp must exceed the current last one."""
        if self._timepoints and timepoint.timestamp <= self._timepoints[-1].timestamp:
            raise InvalidTrajectoryError(
                f"timestamps must strictly increase: {timepoint.timestamp} "
                f"after {self._timepoints[-1].timestamp}"
            )
        self._timepoints.append(timepoint)

    def __iter__(self) -> Iterator[TimePoint]:
        return iter(self._timepoints)
