"""Unit tests for the opening-window Douglas-Peucker baseline."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.core.trajectory import TimePoint
from repro.baselines.opening_window import OpeningWindowSimplifier, synchronous_distance


def zigzag(n: int, amplitude: float) -> list:
    """A trajectory oscillating around the x axis."""
    return [
        TimePoint(Point(float(i), amplitude if i % 2 else -amplitude), i) for i in range(n)
    ]


def straight(n: int) -> list:
    return [TimePoint(Point(float(i), 0.0), i) for i in range(n)]


def closed_segments(points, tolerance) -> list:
    """The segments the simplifier closes while observing ``points``."""
    simplifier = OpeningWindowSimplifier(tolerance)
    return [segment for segment in map(simplifier.observe, points) if segment is not None]


class TestSynchronousDistance:
    def test_on_time_point_has_zero_distance(self):
        start, end = TimePoint(Point(0.0, 0.0), 0), TimePoint(Point(10.0, 0.0), 10)
        assert synchronous_distance(TimePoint(Point(5.0, 0.0), 5), start, end) == 0.0

    def test_time_misalignment_is_penalised(self):
        start, end = TimePoint(Point(0.0, 0.0), 0), TimePoint(Point(10.0, 0.0), 10)
        # Spatially on the segment but two time units late.
        assert synchronous_distance(TimePoint(Point(5.0, 0.0), 7), start, end) == 2.0

    def test_degenerate_time_span(self):
        start = TimePoint(Point(0.0, 0.0), 5)
        end = TimePoint(Point(10.0, 0.0), 5)
        assert synchronous_distance(TimePoint(Point(3.0, 4.0), 5), start, end) == 4.0


class TestOpeningWindow:
    def test_invalid_tolerance(self):
        with pytest.raises(ConfigurationError):
            OpeningWindowSimplifier(0.0)

    def test_sharp_turn_splits_segments(self):
        points = straight(10) + [TimePoint(Point(9.0 - i, 10.0 + i), 10 + i) for i in range(10)]
        segments = closed_segments(points, tolerance=1.0)
        assert len(segments) >= 2

    def test_segments_chain_in_time(self):
        points = zigzag(40, amplitude=3.0)
        segments = closed_segments(points, tolerance=1.0)
        for previous, following in zip(segments, segments[1:]):
            assert previous.end.timestamp <= following.start.timestamp
