"""Tests for the coordinator-feedback extension (paper Section 7 future work)."""

from __future__ import annotations

import pytest

from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import TimePoint
from repro.client.raytrace import RayTraceConfig
from repro.client.state import CoordinatorResponse, ObjectState
from repro.coordinator.coordinator import CoordinatorConfig
from repro.extensions.feedback import (
    FeedbackCoordinator,
    FeedbackRayTraceFilter,
    FeedbackResponse,
    HotVertexHint,
)


BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


def make_coordinator(hint_radius: float = 200.0, max_hints: int = 4) -> FeedbackCoordinator:
    return FeedbackCoordinator(
        CoordinatorConfig(bounds=BOUNDS, window=100, cells_per_axis=16),
        hint_radius=hint_radius,
        max_hints=max_hints,
    )


def state(object_id: int, start: Point, low: Point, high: Point, t_end: int = 9) -> ObjectState:
    return ObjectState(object_id, start, 0, low, high, t_end)


class TestFeedbackResponse:
    def test_message_size_grows_with_hints(self):
        base = CoordinatorResponse(1, Point(0.0, 0.0), 5)
        without = FeedbackResponse(base, ())
        with_two = FeedbackResponse(base, (HotVertexHint(Point(1.0, 1.0), 2), HotVertexHint(Point(2.0, 2.0), 1)))
        assert without.message_size_bytes() == base.message_size_bytes()
        assert with_two.message_size_bytes() == base.message_size_bytes() + 24
        assert with_two.object_id == 1


class TestFeedbackCoordinator:
    def test_hints_list_nearby_hot_vertices(self):
        coordinator = make_coordinator()
        # Seed the index with a hot path ending near where the object will be sent.
        record = coordinator.index.insert(Point(50.0, 50.0), Point(210.0, 210.0))
        coordinator.hotness.record_crossing(record.path_id, 1)
        coordinator.hotness.record_crossing(record.path_id, 2)

        coordinator.submit_state(state(1, Point(100.0, 100.0), Point(190.0, 190.0), Point(230.0, 230.0)))
        _outcome, feedback = coordinator.run_epoch_with_feedback(10)

        assert len(feedback) == 1
        hints = feedback[0].hints
        assert any(hint.vertex == Point(210.0, 210.0) for hint in hints)
        assert all(hint.hotness >= 1 for hint in hints)

    def test_hints_respect_radius(self):
        coordinator = make_coordinator(hint_radius=20.0)
        far = coordinator.index.insert(Point(50.0, 50.0), Point(900.0, 900.0))
        coordinator.hotness.record_crossing(far.path_id, 1)

        coordinator.submit_state(state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(170.0, 170.0)))
        _outcome, feedback = coordinator.run_epoch_with_feedback(10)
        assert all(hint.vertex != Point(900.0, 900.0) for hint in feedback[0].hints)

    def test_hints_capped_by_max_hints(self):
        coordinator = make_coordinator(max_hints=2)
        for i in range(5):
            record = coordinator.index.insert(Point(50.0, 50.0 + i), Point(200.0 + i, 200.0))
            coordinator.hotness.record_crossing(record.path_id, 1)
        coordinator.submit_state(state(1, Point(100.0, 100.0), Point(190.0, 190.0), Point(230.0, 230.0)))
        _outcome, feedback = coordinator.run_epoch_with_feedback(10)
        assert len(feedback[0].hints) <= 2

    @pytest.mark.parametrize("kernel", ["object", "columnar"])
    def test_equal_heat_ties_go_to_the_smaller_x_under_both_storages(self, kernel):
        """Three ends of heat 1 in one 250-unit cell, inserted at (50, 50),
        then (30, 60), then the epoch's fabricated (155, 155): the one hint
        is the smallest x, whatever order the index enumerates its vertices
        in (the cell dicts keep insertion order and used to hint (50, 50))."""
        coordinator = FeedbackCoordinator(
            CoordinatorConfig(bounds=BOUNDS, window=100, cells_per_axis=4, kernel=kernel),
            max_hints=1,
        )
        for end in (Point(50.0, 50.0), Point(30.0, 60.0)):
            record = coordinator.index.insert(Point(500.0, 900.0), end)
            coordinator.hotness.record_crossing(record.path_id, 1)
        coordinator.submit_state(state(1, Point(500.0, 500.0), Point(150.0, 150.0), Point(160.0, 160.0)))
        _outcome, feedback = coordinator.run_epoch_with_feedback(10)
        assert feedback[0].response.endpoint == Point(155.0, 155.0)
        assert feedback[0].hints == (HotVertexHint(Point(30.0, 60.0), 1),)


class TestFeedbackFilter:
    def _waiting_filter(self) -> FeedbackRayTraceFilter:
        filt = FeedbackRayTraceFilter(7, TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(1.0))
        filt.observe(TimePoint(Point(1.0, 0.0), 1))
        emitted = filt.observe(TimePoint(Point(100.0, 0.0), 2))
        assert emitted is not None
        return filt

    def test_snaps_next_report_onto_hinted_vertex(self):
        filt = self._waiting_filter()
        # Respond, advertising a hot vertex the object will pass right next to.
        hinted_vertex = Point(6.0, 0.2)
        feedback = FeedbackResponse(
            CoordinatorResponse(7, Point(1.0, 0.0), 2),
            (HotVertexHint(hinted_vertex, 5),),
        )
        assert filt.receive_feedback(feedback) is None
        # Move straight for a few steps, then turn sharply to force a report.
        for t, x in ((3, 2.0), (4, 3.0), (5, 4.0), (6, 5.0), (7, 6.0)):
            assert filt.observe(TimePoint(Point(x, 0.0), t)) is None
        emitted = filt.observe(TimePoint(Point(6.0, 50.0), 8))
        assert emitted is not None
        assert filt.snapped_reports == 1
        assert emitted.fsa_low == hinted_vertex
        assert emitted.fsa_high == hinted_vertex

    def test_no_snap_when_hint_outside_fsa(self):
        filt = self._waiting_filter()
        feedback = FeedbackResponse(
            CoordinatorResponse(7, Point(1.0, 0.0), 2),
            (HotVertexHint(Point(500.0, 500.0), 9),),
        )
        filt.receive_feedback(feedback)
        for t, x in ((3, 2.0), (4, 3.0), (5, 4.0)):
            filt.observe(TimePoint(Point(x, 0.0), t))
        emitted = filt.observe(TimePoint(Point(4.0, 50.0), 6))
        assert emitted is not None
        assert filt.snapped_reports == 0
        assert emitted.fsa_low != emitted.fsa_high

    def test_without_hints_behaves_like_base_filter(self):
        filt = FeedbackRayTraceFilter(7, TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(1.0))
        filt.observe(TimePoint(Point(1.0, 0.0), 1))
        emitted = filt.observe(TimePoint(Point(100.0, 0.0), 2))
        assert emitted is not None
        assert filt.snapped_reports == 0


class TestFeedbackEndToEnd:
    def test_feedback_concentrates_hotness(self):
        """With feedback, objects that pass near an established hot vertex reuse it,
        producing at least as much path reuse as the base protocol on the same data."""
        hinted_vertex = Point(205.0, 0.0)

        def run(use_feedback: bool):
            coordinator = make_coordinator(hint_radius=300.0)
            # Pre-existing hot path ending at the hinted vertex.
            seed = coordinator.index.insert(Point(100.0, 0.0), hinted_vertex)
            coordinator.hotness.record_crossing(seed.path_id, 1)
            coordinator.hotness.record_crossing(seed.path_id, 2)

            endpoints = set()
            for object_id in range(3):
                filt = FeedbackRayTraceFilter(
                    object_id, TimePoint(Point(0.0, float(object_id)), 0), RayTraceConfig(5.0)
                )
                # Straight run towards x ~ 210, then a sharp turn forces a report.
                for t in range(1, 22):
                    filt.observe(TimePoint(Point(10.0 * t, float(object_id)), t))
                emitted = filt.observe(TimePoint(Point(210.0, 150.0), 22))
                assert emitted is not None
                coordinator.submit_state(emitted)
                _outcome, feedback = coordinator.run_epoch_with_feedback(25 + object_id)
                for item in feedback:
                    if item.object_id == object_id:
                        if use_feedback:
                            filt.receive_feedback(item)
                        else:
                            filt.receive_response(item.response)
                        endpoints.add((item.response.endpoint.x, item.response.endpoint.y))
            return coordinator, endpoints

        with_feedback, endpoints_fb = run(True)
        without_feedback, endpoints_base = run(False)
        # Both runs stay functional; the feedback run never produces more
        # distinct endpoints than the base run on identical input.
        assert len(endpoints_fb) <= len(endpoints_base)
        assert with_feedback.index_size() >= 1
