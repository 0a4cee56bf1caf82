"""Unit tests for :mod:`repro.core.motion_path` and :mod:`repro.core.scoring`."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.core.motion_path import MotionPath
from repro.core.scoring import ScoredPath, select_top_k, top_k_score


class TestMotionPath:
    def test_length(self):
        path = MotionPath(Point(0.0, 0.0), Point(3.0, 4.0))
        assert path.length == 5.0

    def test_length_is_set_at_construction_and_is_not_a_field(self):
        path = MotionPath(Point(0.0, 0.0), Point(3.0, 4.0))
        assert path.length == 5.0
        assert MotionPath.__match_args__ == ("start", "end")
        assert repr(path) == "MotionPath(start=Point(x=0.0, y=0.0), end=Point(x=3.0, y=4.0))"
        twin = MotionPath(Point(0.0, 0.0), Point(3.0, 4.0))
        assert twin == path and hash(twin) == hash(path)
        assert hash(path) == hash((Point(0.0, 0.0), Point(3.0, 4.0)))
        assert path != MotionPath(Point(0.0, 0.0), Point(4.0, 3.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.length = 1.0

    def test_point_at_endpoints(self):
        path = MotionPath(Point(0.0, 0.0), Point(10.0, 0.0))
        assert path.point_at(0.0) == Point(0.0, 0.0)
        assert path.point_at(1.0) == Point(10.0, 0.0)

    def test_point_at_middle(self):
        path = MotionPath(Point(0.0, 0.0), Point(10.0, 20.0))
        assert path.point_at(0.5) == Point(5.0, 10.0)


class TestStoredPath:
    def test_accessors(self):
        path = MotionPath(Point(0.0, 0.0), Point(3.0, 4.0), 3, 10)
        assert path.path_id == 3
        assert path.start == Point(0.0, 0.0)
        assert path.end == Point(3.0, 4.0)
        assert path.length == 5.0
        assert path.created_at == 10


class TestScoring:
    def test_scored_path_score_property(self):
        scored = ScoredPath(MotionPath(Point(0.0, 0.0), Point(4.0, 0.0)), 2)
        assert scored.score == pytest.approx(8.0)

    def _records(self):
        paths = [
            (MotionPath(Point(0.0, 0.0), Point(10.0, 0.0), 0), 5),
            (MotionPath(Point(0.0, 0.0), Point(100.0, 0.0), 1), 2),
            (MotionPath(Point(0.0, 0.0), Point(1.0, 0.0), 2), 5),
            (MotionPath(Point(0.0, 0.0), Point(2.0, 0.0), 3), 1),
        ]
        return paths

    def test_select_top_k_by_hotness(self):
        top = select_top_k(self._records(), 2)
        assert [scored.path_id for scored in top] == [0, 2]

    def test_select_top_k_by_score(self):
        top = select_top_k(self._records(), 2, by_score=True)
        assert [scored.path_id for scored in top] == [1, 0]

    def test_select_top_k_more_than_available(self):
        top = select_top_k(self._records(), 10)
        assert len(top) == 4

    def test_select_top_k_invalid_k(self):
        with pytest.raises(ConfigurationError):
            select_top_k(self._records(), 0)

    def test_top_k_score_empty(self):
        assert top_k_score([]) == 0.0

    def test_top_k_score_average(self):
        scored = [
            ScoredPath(MotionPath(Point(0.0, 0.0), Point(10.0, 0.0)), 2),
            ScoredPath(MotionPath(Point(0.0, 0.0), Point(20.0, 0.0)), 1),
        ]
        assert top_k_score(scored) == pytest.approx((20.0 + 20.0) / 2)
