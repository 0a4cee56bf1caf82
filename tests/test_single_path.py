"""Unit tests for :mod:`repro.coordinator.single_path`."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.grid_index import GridConfig, GridIndex
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator import single_path
from repro.coordinator.single_path import SinglePathStrategy, apply_co_occurrence_boost

from differential import DEFAULT, drive, steady_roster_stream, synthetic_stream
from single_path_oracle import ReferenceSinglePath


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
        existing = index.insert(Point(100.0, 100.0), Point(200.0, 200.0))
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
        cold = index.insert(Point(100.0, 100.0), Point(195.0, 195.0))
        hot = index.insert(Point(100.0, 100.0), Point(205.0, 205.0))
        hotness.record_crossing(cold.path_id, 0)
        hotness.record_crossing(hot.path_id, 0)
        hotness.record_crossing(hot.path_id, 1)

        report = state(1, Point(100.0, 100.0), Point(190.0, 190.0), Point(210.0, 210.0))
        result = strategy.process_epoch([report])

        # The crossing went to the hot path, and the response is its end.
        assert (hotness.hotness(cold.path_id), hotness.hotness(hot.path_id)) == (1, 3)
        assert result.responses[0].endpoint == hot.end
        assert result.inserted == []

    def test_shared_candidate_boosts_selection(self):
        """A path available to two reporters should win over one available to a single reporter."""
        strategy, index, hotness = make_strategy()
        shared = index.insert(Point(100.0, 100.0), Point(200.0, 200.0))
        private = index.insert(Point(100.0, 100.0), Point(120.0, 120.0))
        hotness.record_crossing(shared.path_id, 0)
        hotness.record_crossing(private.path_id, 0)
        hotness.record_crossing(private.path_id, 1)

        # Object 1 can reach both paths; object 2 only the shared one.  A
        # candidate scores its hotness + 1, and the co-occurrence boost adds 1
        # to the shared path for object 2's interest, so the two tie at 3
        # (shared 1 + 1 + 1, private 2 + 1) and the lower id, the shared path,
        # wins for object 1 too.  Object 2 must reuse the shared path rather
        # than create anything new.
        report_1 = state(1, Point(100.0, 100.0), Point(110.0, 110.0), Point(210.0, 210.0))
        report_2 = state(2, Point(100.0, 100.0), Point(190.0, 190.0), Point(210.0, 210.0))
        result = strategy.process_epoch([report_1, report_2])

        assert result.paths_inserted == 0
        assert result.paths_reused == 2
        endpoints = {response.object_id: response.endpoint for response in result.responses}
        assert endpoints[1] == shared.end
        assert endpoints[2] == shared.end  # no other path from the start ends there
        # Both objects crossed the shared path; the private one kept its two.
        assert (hotness.hotness(shared.path_id), hotness.hotness(private.path_id)) == (3, 2)


class TestCase2ExistingVertex:
    def test_existing_end_vertex_is_adopted(self):
        strategy, index, hotness = make_strategy()
        # An existing path ends at (300, 300); the reporting object starts
        # somewhere else so Case 1 cannot apply, but the vertex lies in its FSA.
        existing = index.insert(Point(50.0, 50.0), Point(300.0, 300.0))
        hotness.record_crossing(existing.path_id, 0)

        report = state(1, Point(250.0, 250.0), Point(290.0, 290.0), Point(310.0, 310.0))
        result = strategy.process_epoch([report])

        assert result.paths_inserted == 1
        # Not fabricated: the FSA's centre is the same point, but the endpoint
        # is the stored end vertex itself.
        assert result.responses[0].endpoint is existing.end
        new_record = index.get(result.inserted[0])
        assert new_record.start == Point(250.0, 250.0)
        assert new_record.end == Point(300.0, 300.0)

    def test_hotter_vertex_preferred(self):
        strategy, index, hotness = make_strategy()
        cold_path = index.insert(Point(0.0, 0.0), Point(295.0, 295.0))
        hot_path_a = index.insert(Point(0.0, 0.0), Point(305.0, 305.0))
        hot_path_b = index.insert(Point(10.0, 0.0), Point(305.0, 305.0))
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
        assert index.get(result.inserted[0]).end == endpoint

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
        existing = index.insert(Point(0.0, 0.0), Point(100.0, 100.0))
        hotness.record_crossing(existing.path_id, 0)
        hotness.record_crossing(existing.path_id, 1)
        hotness.record_crossing(existing.path_id, 2)

        report = state(1, Point(100.0, 100.0), Point(95.0, 95.0), Point(115.0, 115.0))
        result = strategy.process_epoch([report])
        assert result.responses[0].endpoint != Point(100.0, 100.0)
        created = index.get(result.inserted[0])
        assert created.end == result.responses[0].endpoint
        assert created.length > 0.0


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


class TestUncontestedCase1:
    """A state with one Case 1 candidate takes its path unranked."""

    def test_an_uncontested_epoch_reads_no_hotness_before_its_first_decision(self, monkeypatch):
        """On a resubmitted roster 14 of the 16 epochs hold no state with two
        or more Case 1 candidates.  In each of them no hotness is read and no
        boost is computed between the start of the epoch and its first
        decision (one read per candidate and one boost per epoch before)."""
        epochs = []
        process_epoch, candidate_paths = SinglePathStrategy.process_epoch, SinglePathStrategy.candidate_paths
        decide, hotness = SinglePathStrategy.decide, HotnessTracker.hotness
        boost = single_path.apply_co_occurrence_boost

        def counted_epoch(strategy, states):
            epochs.append(Counter(undecided=1))
            return process_epoch(strategy, states)

        def counted_candidates(strategy, states, fsas):
            candidate_ids = candidate_paths(strategy, states, fsas)
            epochs[-1]["contested"] += sum(len(path_ids) > 1 for path_ids in candidate_ids)
            epochs[-1]["one_candidate"] += sum(len(path_ids) == 1 for path_ids in candidate_ids)
            return candidate_ids

        def counted_decide(strategy, *args):
            if epochs:
                epochs[-1]["undecided"] = 0
            return decide(strategy, *args)

        def counted_hotness(tracker, path_id):
            if epochs and epochs[-1]["undecided"]:
                epochs[-1]["hotness_reads"] += 1
            return hotness(tracker, path_id)

        def counted_boost(*args):
            if epochs and epochs[-1]["undecided"]:
                epochs[-1]["boosts"] += 1
            return boost(*args)

        monkeypatch.setattr(SinglePathStrategy, "process_epoch", counted_epoch)
        monkeypatch.setattr(SinglePathStrategy, "candidate_paths", counted_candidates)
        monkeypatch.setattr(SinglePathStrategy, "decide", counted_decide)
        monkeypatch.setattr(HotnessTracker, "hotness", counted_hotness)
        monkeypatch.setattr(single_path, "apply_co_occurrence_boost", counted_boost)
        drive(DEFAULT, steady_roster_stream(), window=25)
        uncontested = [epoch for epoch in epochs if epoch["contested"] == 0]
        assert (len(epochs), len(uncontested)) == (16, 14)
        assert sum(epoch["one_candidate"] for epoch in uncontested) > 0
        assert sum(epoch["hotness_reads"] for epoch in uncontested) == 0
        assert sum(epoch["boosts"] for epoch in uncontested) == 0


class TestTwiceReportingObjects:
    """An object that reports twice in one epoch: each state is decided
    with its own Case 1 candidates, and the object boosts no candidate of
    its own."""

    def test_each_state_takes_its_own_case_1_candidate(self):
        strategy, index, hotness = make_strategy()
        first = index.insert(Point(100.0, 100.0), Point(150.0, 150.0))
        second = index.insert(Point(600.0, 600.0), Point(650.0, 650.0))
        earlier = state(7, Point(100.0, 100.0), Point(140.0, 140.0), Point(160.0, 160.0), t_end=5)
        later = state(7, Point(600.0, 600.0), Point(640.0, 640.0), Point(660.0, 660.0), t_end=9)
        result = strategy.process_epoch([earlier, later])
        assert [response.endpoint for response in result.responses] == [
            first.end,
            second.end,
        ]
        assert result.inserted == []
        assert hotness.hotness(first.path_id) == hotness.hotness(second.path_id) == 1

    def test_a_twice_reporting_object_never_boosts_its_own_candidate(self):
        """A candidate of hotness 0 ranks at its boost: 2 when objects 7
        and 8 hold it, 1 (no boost) when object 7 alone does."""
        sets = [[3] for _ in range(3)]
        boost = apply_co_occurrence_boost([7, 7, 8], sets)  # object 7 twice, object 8 once
        assert [boost[path_ids[0]] for path_ids in sets] == [2, 2, 2]
        alone = [[3] for _ in range(2)]
        boost = apply_co_occurrence_boost([7, 7], alone)
        assert [boost[path_ids[0]] for path_ids in alone] == [1, 1]

    @pytest.mark.parametrize("seed", [11, 5, 31, 42, 21])
    def test_every_case_1_answer_lies_inside_its_own_fsa(self, seed, monkeypatch):
        """On the exactness harness's streams, where ids repeat within an
        epoch, a Case 1 decision answers the end of one of its own
        candidates: inside its own FSA.  Gathered per object, the earlier
        state of a twice-reporting object took its later state's candidates
        and was answered outside its FSA."""
        counts = Counter()
        later_ids = {}
        process_epoch, decide = SinglePathStrategy.process_epoch, SinglePathStrategy.decide

        def recorded_epoch(strategy, states):
            later_ids.clear()
            for position, reported in enumerate(states):
                later_ids[id(reported)] = {other.object_id for other in states[position + 1:]}
            return process_epoch(strategy, states)

        def checked_decide(strategy, reported, fsa, path, *args):
            response, path_id = decide(strategy, reported, fsa, path, *args)
            if path:
                counts["case_1"] += 1
                counts["earlier_duplicate"] += reported.object_id in later_ids[id(reported)]
                counts["outside"] += not fsa.contains_point(response.endpoint)
            return response, path_id

        monkeypatch.setattr(SinglePathStrategy, "process_epoch", recorded_epoch)
        monkeypatch.setattr(SinglePathStrategy, "decide", checked_decide)
        drive(DEFAULT, synthetic_stream(seed=seed))
        assert counts["earlier_duplicate"] > 0
        assert counts["outside"] == 0


class TestLoneInsertProbe:
    """A lone decision's insert joins the epoch's probe only when the epoch
    has an FSA outside its map: the earlier state of an object that reports
    twice, the one FSA that can touch a lone FSA."""

    def test_the_earlier_state_of_a_twice_reporter_reads_a_lone_insert(self):
        """Object 1's FSA is lone (object 7's earlier FSA, which contains
        its centre, is off the epoch map) and fabricates its centre, (300,
        300).  Object 7's earlier state, decided next, must see that path
        in the probe: it outranks the centre of the smaller region of
        object 7's later FSA, (420, 420), which it would answer without it.
        The answers equal the literal Algorithm 2's."""
        states = [
            state(1, Point(100.0, 100.0), Point(250.0, 250.0), Point(350.0, 350.0), t_end=8),
            state(7, Point(600.0, 100.0), Point(280.0, 280.0), Point(400.0, 400.0), t_end=9),
            state(7, Point(700.0, 700.0), Point(390.0, 390.0), Point(450.0, 450.0), t_end=9),
        ]
        coordinator = Coordinator(CoordinatorConfig(bounds=BOUNDS, window=100))
        for reported in states:
            coordinator.submit_state(reported)
        responses = coordinator.run_epoch(10).responses
        expected = ReferenceSinglePath(100).epoch(10, states)
        assert repr(responses) == repr(expected)
        assert [response.endpoint for response in responses] == [
            Point(300.0, 300.0),
            Point(300.0, 300.0),
            Point(420.0, 420.0),
        ]
