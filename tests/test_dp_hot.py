"""Unit tests for the DP hot-segment baseline."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import TimePoint
from repro.baselines.dp_hot import DPHotSegmentTracker


BOUNDS = Rectangle(Point(-100.0, -100.0), Point(1100.0, 1100.0))


def straight(n: int, y: float = 0.0, start_t: int = 0) -> list:
    return [TimePoint(Point(float(i * 10), y), start_t + i) for i in range(n)]


def l_shaped(n: int = 20) -> list:
    """Half the points go east, the other half go north: one sharp turn."""
    east = [TimePoint(Point(float(i * 10), 0.0), i) for i in range(n // 2)]
    corner_x = (n // 2 - 1) * 10.0
    north = [
        TimePoint(Point(corner_x, float((i + 1) * 10)), n // 2 + i) for i in range(n // 2)
    ]
    return east + north


class TestDPHotSegmentTracker:
    def test_invalid_tolerance(self):
        with pytest.raises(ConfigurationError):
            DPHotSegmentTracker(BOUNDS, tolerance=0.0)

    def test_straight_motion_stores_nothing_until_flush(self):
        tracker = DPHotSegmentTracker(BOUNDS, tolerance=1.0)
        for tp in straight(20):
            assert tracker.observe(1, tp) is None
        assert tracker.index_size() == 0

    def test_turn_produces_segment(self):
        tracker = DPHotSegmentTracker(BOUNDS, tolerance=1.0)
        emitted = [tracker.observe(1, tp) for tp in l_shaped(20)]
        assert any(segment_id is not None for segment_id in emitted)
        assert tracker.index_size() >= 1

    def test_segment_reuse_across_objects(self):
        """A second object following the same corridor reuses the stored segment."""
        tracker = DPHotSegmentTracker(BOUNDS, tolerance=2.0)
        for tp in l_shaped(20):
            tracker.observe(1, tp)
        size_after_first = tracker.index_size()
        # Second object, same geometry but slightly offset and later in time.
        for tp in l_shaped(20):
            tracker.observe(2, TimePoint(Point(tp.x + 0.5, tp.y + 0.5), tp.timestamp + 100))
        assert tracker.index_size() == size_after_first
        top = tracker.top_k(1)
        assert top[0].hotness >= 2

    def test_different_corridors_not_merged(self):
        tracker = DPHotSegmentTracker(BOUNDS, tolerance=1.0)
        for tp in l_shaped(20):
            tracker.observe(1, tp)
        for tp in l_shaped(20):
            tracker.observe(2, TimePoint(Point(tp.x, tp.y + 500.0), tp.timestamp))
        assert all(hotness == 1 for _record, hotness in tracker.hot_segments())
        assert tracker.index_size() >= 2

    def test_window_expiry_removes_segments(self):
        tracker = DPHotSegmentTracker(BOUNDS, tolerance=1.0, window=50)
        for tp in l_shaped(20):
            tracker.observe(1, tp)
        assert tracker.index_size() >= 1
        vanished = tracker.advance_time(1000)
        assert vanished >= 1
        assert tracker.index_size() == 0

    def test_top_k_scores(self):
        tracker = DPHotSegmentTracker(BOUNDS, tolerance=1.0)
        for tp in l_shaped(20):
            tracker.observe(1, tp)
        assert tracker.top_k_score(5) > 0.0
