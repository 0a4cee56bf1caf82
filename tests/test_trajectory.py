"""Unit tests for :mod:`repro.core.trajectory`."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidTrajectoryError
from repro.core.geometry import Point
from repro.core.trajectory import TimePoint, Trajectory, UncertainTimePoint


def straight_line_trajectory(n: int = 5, step: float = 10.0) -> Trajectory:
    """Object moving along the x axis, one unit of time per step."""
    trajectory = Trajectory(0)
    for i in range(n):
        trajectory.append(TimePoint(Point(i * step, 0.0), i))
    return trajectory


class TestTimePoint:
    def test_accessors(self):
        tp = TimePoint(Point(1.0, 2.0), 7)
        assert tp.x == 1.0
        assert tp.y == 2.0
        assert tp.timestamp == 7


class TestUncertainTimePoint:
    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidTrajectoryError):
            UncertainTimePoint(Point(0.0, 0.0), 0, -1.0, 1.0)

    def test_accessors(self):
        utp = UncertainTimePoint(Point(1.0, 2.0), 5, 0.5, 0.25)
        assert utp.x == 1.0 and utp.y == 2.0
        assert utp.sigma_x == 0.5 and utp.sigma_y == 0.25


class TestTrajectoryConstruction:
    def test_append_and_iter(self):
        trajectory = straight_line_trajectory(4)
        assert [tp.timestamp for tp in trajectory] == [0, 1, 2, 3]
        assert [tp.point for tp in trajectory][1] == Point(10.0, 0.0)

    def test_append_requires_increasing_timestamps(self):
        trajectory = Trajectory(0)
        trajectory.append(TimePoint(Point(0.0, 0.0), 5))
        with pytest.raises(InvalidTrajectoryError):
            trajectory.append(TimePoint(Point(1.0, 1.0), 5))
        with pytest.raises(InvalidTrajectoryError):
            trajectory.append(TimePoint(Point(1.0, 1.0), 4))
        assert [tp.timestamp for tp in trajectory] == [5]
