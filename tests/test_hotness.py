"""Unit tests for :mod:`repro.coordinator.hotness`."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.coordinator.hotness import HotnessTracker


class TestConstruction:
    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            HotnessTracker(0)

    def test_empty_tracker(self):
        tracker = HotnessTracker(10)
        assert len(tracker) == 0
        assert tracker.hotness(3) == 0
        assert tracker.pending_events == 0
        assert sum(hotness for _path_id, hotness in tracker.items()) == 0


class TestRecording:
    def test_record_increments_hotness(self):
        tracker = HotnessTracker(10)
        assert tracker.record_crossing(1, t_end=0) == 1
        assert tracker.record_crossing(1, t_end=2) == 2
        assert tracker.hotness(1) == 2

    def test_record_multiple_paths(self):
        tracker = HotnessTracker(10)
        tracker.record_crossing(1, 0)
        tracker.record_crossing(2, 0)
        tracker.record_crossing(2, 1)
        assert tracker.hotness(1) == 1
        assert tracker.hotness(2) == 2
        assert len(tracker) == 2
        assert sum(hotness for _path_id, hotness in tracker.items()) == 3

    def test_items(self):
        tracker = HotnessTracker(10)
        tracker.record_crossing(1, 0)
        tracker.record_crossing(2, 0)
        assert dict(tracker.items()) == {1: 1, 2: 1}


class TestExpiry:
    def test_crossing_expires_after_window(self):
        tracker = HotnessTracker(window=10)
        tracker.record_crossing(1, t_end=5)
        assert tracker.advance_time(14) == []
        assert tracker.hotness(1) == 1
        vanished = tracker.advance_time(15)
        assert vanished == [1]
        assert tracker.hotness(1) == 0
        assert len(tracker) == 0

    def test_partial_expiry_keeps_path_alive(self):
        tracker = HotnessTracker(window=10)
        tracker.record_crossing(1, t_end=0)
        tracker.record_crossing(1, t_end=8)
        vanished = tracker.advance_time(10)
        assert vanished == []
        assert tracker.hotness(1) == 1
        vanished = tracker.advance_time(18)
        assert vanished == [1]

    def test_expiry_order_is_by_time(self):
        tracker = HotnessTracker(window=5)
        tracker.record_crossing(1, t_end=10)
        tracker.record_crossing(2, t_end=3)
        vanished = tracker.advance_time(8)
        assert vanished == [2]
        vanished = tracker.advance_time(15)
        assert vanished == [1]

    def test_advance_time_is_idempotent(self):
        tracker = HotnessTracker(window=5)
        tracker.record_crossing(1, t_end=0)
        tracker.advance_time(5)
        assert tracker.advance_time(5) == []
        assert tracker.advance_time(100) == []

    def test_many_crossings_sliding_window(self):
        """A path crossed every timestamp keeps hotness equal to the window length."""
        tracker = HotnessTracker(window=10)
        for t in range(0, 50):
            tracker.record_crossing(1, t_end=t)
            tracker.advance_time(t)
            if t >= 10:
                assert tracker.hotness(1) == 10
        assert tracker.pending_events == 10
