"""Unit tests for :mod:`repro.coordinator.single_path`."""

from __future__ import annotations

import pytest

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.client.state import ObjectState
from repro.coordinator.grid_index import GridConfig, GridIndex
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.single_path import SinglePathStrategy


BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


def make_strategy(window: int = 100):
    index = GridIndex(GridConfig(BOUNDS, cells_per_axis=16))
    hotness = HotnessTracker(window)
    return SinglePathStrategy(index, hotness), index, hotness


def state(object_id: int, start: Point, fsa_low: Point, fsa_high: Point, t_start=0, t_end=10) -> ObjectState:
    return ObjectState(object_id, start, t_start, fsa_low, fsa_high, t_end)


class TestEmptyEpoch:
    def test_no_states_no_decisions(self):
        strategy, index, hotness = make_strategy()
        result = strategy.process_epoch([])
        assert result.responses == [] and result.inserted == []
        assert len(index) == 0


class TestCase1ExistingPath:
    def test_existing_path_is_reused(self):
        strategy, index, hotness = make_strategy()
        existing = index.insert(MotionPath(Point(100.0, 100.0), Point(200.0, 200.0)))
        hotness.record_crossing(existing.path_id, 0)

        report = state(1, Point(100.0, 100.0), Point(190.0, 190.0), Point(210.0, 210.0))
        result = strategy.process_epoch([report])

        assert result.paths_reused == 1
        assert result.paths_inserted == 0
        assert hotness.hotness(existing.path_id) == 2
        assert result.responses[0].endpoint == Point(200.0, 200.0)
        assert result.inserted == []
        assert len(index) == 1

    def test_hottest_existing_path_is_preferred(self):
        strategy, index, hotness = make_strategy()
        cold = index.insert(MotionPath(Point(100.0, 100.0), Point(195.0, 195.0)))
        hot = index.insert(MotionPath(Point(100.0, 100.0), Point(205.0, 205.0)))
        hotness.record_crossing(cold.path_id, 0)
        hotness.record_crossing(hot.path_id, 0)
        hotness.record_crossing(hot.path_id, 1)

        report = state(1, Point(100.0, 100.0), Point(190.0, 190.0), Point(210.0, 210.0))
        result = strategy.process_epoch([report])

        # The crossing went to the hot path, and the response is its end.
        assert (hotness.hotness(cold.path_id), hotness.hotness(hot.path_id)) == (1, 3)
        assert result.responses[0].endpoint == hot.path.end
        assert result.inserted == []

    def test_shared_candidate_boosts_selection(self):
        """A path available to two reporters should win over one available to a single reporter."""
        strategy, index, hotness = make_strategy()
        shared = index.insert(MotionPath(Point(100.0, 100.0), Point(200.0, 200.0)))
        private = index.insert(MotionPath(Point(100.0, 100.0), Point(120.0, 120.0)))
        hotness.record_crossing(shared.path_id, 0)
        hotness.record_crossing(private.path_id, 0)
        hotness.record_crossing(private.path_id, 1)

        # Object 1 can reach both paths; object 2 only the shared one.  The
        # co-occurrence boost (+1 for object 2's interest) ties the shared
        # path with the private one for object 1; the private path still has
        # higher raw hotness, so object 1 keeps it — but object 2's decision
        # must reuse the shared path rather than creating anything new.
        report_1 = state(1, Point(100.0, 100.0), Point(110.0, 110.0), Point(210.0, 210.0))
        report_2 = state(2, Point(100.0, 100.0), Point(190.0, 190.0), Point(210.0, 210.0))
        result = strategy.process_epoch([report_1, report_2])

        assert result.paths_inserted == 0
        assert result.paths_reused == 2
        response_2 = [r for r in result.responses if r.object_id == 2][0]
        assert response_2.endpoint == shared.path.end  # no other path from the start ends there


class TestCase2ExistingVertex:
    def test_existing_end_vertex_is_adopted(self):
        strategy, index, hotness = make_strategy()
        # An existing path ends at (300, 300); the reporting object starts
        # somewhere else so Case 1 cannot apply, but the vertex lies in its FSA.
        existing = index.insert(MotionPath(Point(50.0, 50.0), Point(300.0, 300.0)))
        hotness.record_crossing(existing.path_id, 0)

        report = state(1, Point(250.0, 250.0), Point(290.0, 290.0), Point(310.0, 310.0))
        result = strategy.process_epoch([report])

        assert result.paths_inserted == 1
        # Not fabricated: the FSA's centre is the same point, but the endpoint
        # is the stored end vertex itself.
        assert result.responses[0].endpoint is existing.path.end
        new_record = index.get(result.inserted[0])
        assert new_record.path.start == Point(250.0, 250.0)
        assert new_record.path.end == Point(300.0, 300.0)

    def test_hotter_vertex_preferred(self):
        strategy, index, hotness = make_strategy()
        cold_path = index.insert(MotionPath(Point(0.0, 0.0), Point(295.0, 295.0)))
        hot_path_a = index.insert(MotionPath(Point(0.0, 0.0), Point(305.0, 305.0)))
        hot_path_b = index.insert(MotionPath(Point(10.0, 0.0), Point(305.0, 305.0)))
        hotness.record_crossing(cold_path.path_id, 0)
        hotness.record_crossing(hot_path_a.path_id, 0)
        hotness.record_crossing(hot_path_b.path_id, 0)

        report = state(1, Point(250.0, 250.0), Point(290.0, 290.0), Point(310.0, 310.0))
        result = strategy.process_epoch([report])
        assert result.responses[0].endpoint == Point(305.0, 305.0)


class TestCase3FabricatedVertex:
    def test_lone_object_gets_vertex_inside_own_fsa(self):
        strategy, index, hotness = make_strategy()
        report = state(1, Point(100.0, 100.0), Point(190.0, 190.0), Point(210.0, 210.0))
        result = strategy.process_epoch([report])

        assert result.paths_inserted == 1
        # Fabricated: the index held no vertex, so the endpoint is the centre
        # of the FSA's singleton overlap region.
        endpoint = result.responses[0].endpoint
        assert endpoint == report.fsa.center
        assert report.fsa.contains_point(endpoint)
        assert index.get(result.inserted[0]).path.end == endpoint

    def test_overlapping_objects_share_fabricated_vertex(self):
        """Objects reporting together with overlapping FSAs adopt the same endpoint."""
        strategy, index, hotness = make_strategy()
        report_1 = state(1, Point(100.0, 100.0), Point(190.0, 190.0), Point(215.0, 215.0))
        report_2 = state(2, Point(120.0, 100.0), Point(205.0, 205.0), Point(230.0, 230.0))
        result = strategy.process_epoch([report_1, report_2])

        endpoints = {response.endpoint for response in result.responses}
        assert len(endpoints) == 1
        # Two distinct paths (different starts) converge on the shared vertex.
        assert result.paths_inserted == 2
        vertex = endpoints.pop()
        assert len(index.end_vertices_in(Rectangle.degenerate(vertex))) == 1

    def test_same_start_and_shared_vertex_deduplicates_path(self):
        """Objects with the same SSA start and overlapping FSAs share one path record."""
        strategy, index, hotness = make_strategy()
        report_1 = state(1, Point(100.0, 100.0), Point(190.0, 190.0), Point(215.0, 215.0))
        report_2 = state(2, Point(100.0, 100.0), Point(205.0, 205.0), Point(230.0, 230.0))
        result = strategy.process_epoch([report_1, report_2])

        assert len(index) == 1
        only_record = next(iter(index.records))
        assert hotness.hotness(only_record.path_id) == 2
        assert result.paths_inserted == 1
        assert result.paths_reused == 1

    def test_degenerate_endpoint_is_nudged(self):
        """If the chosen vertex equals the start, the endpoint falls back to the FSA centre."""
        strategy, index, hotness = make_strategy()
        # Existing path ends exactly at the reporting object's start point and
        # that vertex lies inside its FSA, so it would be chosen as endpoint.
        existing = index.insert(MotionPath(Point(0.0, 0.0), Point(100.0, 100.0)))
        hotness.record_crossing(existing.path_id, 0)
        hotness.record_crossing(existing.path_id, 1)
        hotness.record_crossing(existing.path_id, 2)

        report = state(1, Point(100.0, 100.0), Point(95.0, 95.0), Point(115.0, 115.0))
        result = strategy.process_epoch([report])
        assert result.responses[0].endpoint != Point(100.0, 100.0)
        created = index.get(result.inserted[0])
        assert created.path.end == result.responses[0].endpoint
        assert created.path.length > 0.0


class TestCrossingBookkeeping:
    def test_every_decision_records_a_crossing(self):
        strategy, index, hotness = make_strategy()
        reports = [
            state(i, Point(100.0 + 50.0 * i, 100.0), Point(80.0 + 50.0 * i, 80.0), Point(120.0 + 50.0 * i, 120.0))
            for i in range(4)
        ]
        strategy.process_epoch(reports)
        assert sum(count for _path_id, count in hotness.items()) == 4

    def test_response_timestamp_matches_state_end(self):
        strategy, index, hotness = make_strategy()
        report = state(1, Point(100.0, 100.0), Point(190.0, 190.0), Point(210.0, 210.0), t_start=5, t_end=17)
        result = strategy.process_epoch([report])
        assert result.responses[0].timestamp == 17
