"""Unit tests for :mod:`repro.core.trajectory`."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidTrajectoryError
from repro.core.geometry import Point
from repro.core.trajectory import TimePoint, Trajectory, UncertainTimePoint


def straight_line_trajectory(n: int = 5, step: float = 10.0) -> Trajectory:
    """Object moving along the x axis, one unit of time per step."""
    return Trajectory(
        0, [TimePoint(Point(i * step, 0.0), i) for i in range(n)]
    )


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

    def test_certain_drops_uncertainty(self):
        utp = UncertainTimePoint(Point(1.0, 2.0), 5, 0.5, 0.5)
        tp = utp.certain()
        assert isinstance(tp, TimePoint)
        assert tp.point == Point(1.0, 2.0)
        assert tp.timestamp == 5

    def test_accessors(self):
        utp = UncertainTimePoint(Point(1.0, 2.0), 5, 0.5, 0.25)
        assert utp.x == 1.0 and utp.y == 2.0
        assert utp.sigma_x == 0.5 and utp.sigma_y == 0.25


class TestTrajectoryConstruction:
    def test_empty_trajectory_is_falsy(self):
        assert not Trajectory(0)

    def test_append_and_len(self):
        trajectory = straight_line_trajectory(4)
        assert len(trajectory) == 4

    def test_append_requires_increasing_timestamps(self):
        trajectory = Trajectory(0, [TimePoint(Point(0.0, 0.0), 5)])
        with pytest.raises(InvalidTrajectoryError):
            trajectory.append(TimePoint(Point(1.0, 1.0), 5))

    def test_getitem_and_iter(self):
        trajectory = straight_line_trajectory(3)
        assert trajectory[1].point == Point(10.0, 0.0)
        assert [tp.timestamp for tp in trajectory] == [0, 1, 2]


class TestTrajectoryTimes:
    def test_start_and_end_time(self):
        trajectory = straight_line_trajectory(4)
        assert trajectory.start_time == 0
        assert trajectory.end_time == 3

    def test_empty_trajectory_time_errors(self):
        with pytest.raises(InvalidTrajectoryError):
            _ = Trajectory(0).start_time
        with pytest.raises(InvalidTrajectoryError):
            _ = Trajectory(0).end_time

    def test_covers_time(self):
        trajectory = straight_line_trajectory(4)
        assert trajectory.covers_time(0)
        assert trajectory.covers_time(2.5)
        assert not trajectory.covers_time(3.5)
        assert not Trajectory(0).covers_time(0)
