"""The DP baseline answers as its rules transcribed literally (``tests/dp_oracle.py``).

Measurements go to :class:`DPHotSegmentTracker` and the oracle in lockstep:
each closed segment's credited id, the index size after each
``advance_time`` and the final top-k must be equal, compared by ``repr``.
The streams are crafted cases (several qualifying segments, a stored
segment with only its end in the box, a zero-length segment, expiry
exactly at the window boundary), hypothesis streams over coordinates that
compare equal but print apart, and one recorded Figure 7 point.  The reuse
rule reads no grid, so DP's state is also the same at every
``cells_per_axis``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.dp_hot import DPHotSegmentTracker
from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import TimePoint
from repro.experiments.config import ExperimentScale, scaled_simulation_config
from repro.simulation.engine import HotPathSimulation

import dp_oracle
from dp_oracle import ReferenceDP

ARCHITECTURE = Path(__file__).resolve().parent.parent / "docs" / "ARCHITECTURE.md"
BOUNDS = Rectangle(Point(-50.0, -50.0), Point(50.0, 50.0))


def top_k(tracker: DPHotSegmentTracker, k: int) -> List[Tuple]:
    """``(id, start, end, hotness)`` of the tracker's top-k, best first."""
    return [(scored.path_id, scored.path.start, scored.path.end, scored.hotness) for scored in tracker.top_k(k)]


class Lockstep:
    """One tracker and the oracle, fed the same calls; every answer compared."""

    def __init__(self, tolerance: float, window: int) -> None:
        self.tracker = DPHotSegmentTracker(BOUNDS, tolerance, window)
        self.oracle = ReferenceDP(tolerance, window)

    def observe(self, object_id: int, point: Point, timestamp: int) -> Optional[int]:
        credited = self.tracker.observe(object_id, TimePoint(point, timestamp))
        assert repr(credited) == repr(self.oracle.observe(object_id, point, timestamp))
        return credited

    def advance(self, now: int) -> int:
        vanished = self.tracker.advance_time(now)
        assert vanished == self.oracle.advance(now)
        assert self.tracker.index_size() == self.oracle.index_size()
        return vanished

    def segment(self, object_id: int, start: Point, end: Point, t_end: int) -> int:
        """Close the segment ``start -> end`` at ``t_end`` with a fresh object:
        the third measurement's midpoint lies 500 from ``end``."""
        assert self.observe(object_id, start, t_end - 1) is None
        assert self.observe(object_id, end, t_end) is None
        credited = self.observe(object_id, Point(start.x, start.y + 1000.0), t_end + 1)
        assert credited is not None
        return credited

    def assert_top_k(self, k: int) -> None:
        assert repr(top_k(self.tracker, k)) == repr(self.oracle.top_k(k))


class TestCraftedStreams:
    def test_several_qualifying_segments_credit_the_earliest(self):
        dp = Lockstep(tolerance=1.0, window=100)
        first = dp.segment(0, Point(6.0, 0.0), Point(10.0, 0.0), 1)
        second = dp.segment(1, Point(0.0, 0.0), Point(4.0, 0.0), 1)
        assert (first, second) == (0, 1)  # neither lies in the other's box
        assert dp.segment(2, Point(0.0, 0.0), Point(10.0, 0.0), 5) == first
        dp.advance(10)
        dp.assert_top_k(2)

    def test_a_segment_with_only_its_end_in_the_box_is_not_reused(self):
        dp = Lockstep(tolerance=1.0, window=100)
        assert dp.segment(0, Point(20.0, 0.0), Point(5.0, 0.0), 1) == 0
        assert dp.segment(1, Point(0.0, 0.0), Point(10.0, 0.0), 3) == 1
        dp.advance(10)
        assert dp.tracker.index_size() == 2

    def test_a_lingering_object_closes_a_zero_length_segment(self):
        dp = Lockstep(tolerance=1.0, window=100)
        here = Point(3.0, 3.0)
        dp.observe(0, here, 0)
        dp.observe(0, here, 1)
        assert dp.observe(0, Point(13.0, 3.0), 2) == 0
        assert dp.tracker.index.get(0).length == 0.0
        assert dp.segment(1, Point(3.5, 2.5), here, 4) == 0  # its box holds the point
        dp.advance(10)
        dp.assert_top_k(1)

    def test_expiry_exactly_at_the_window_boundary(self):
        dp = Lockstep(tolerance=1.0, window=5)
        dp.segment(0, Point(0.0, 0.0), Point(10.0, 0.0), 1)
        dp.segment(1, Point(0.0, 0.0), Point(10.0, 0.0), 3)
        assert dp.advance(5) == 0  # 1 + 5 > 5: both crossings count
        dp.assert_top_k(1)
        assert dp.tracker.top_k(1)[0].hotness == 2
        assert dp.advance(6) == 0  # the first crossing leaves, the second stays
        assert dp.tracker.top_k(1)[0].hotness == 1
        assert dp.advance(8) == 1  # 3 + 5 <= 8: the segment is deleted
        assert dp.tracker.index_size() == 0

    def test_equal_but_differently_printed_ends_share_a_box(self):
        dp = Lockstep(tolerance=0.5, window=100)
        stored = dp.segment(0, Point(-0.0, 0.0), Point(2, 0.0), 1)
        assert dp.segment(1, Point(0.0, -0.0), Point(2.0, 0.0), 2) == stored
        dp.advance(10)
        dp.assert_top_k(1)
        assert repr(dp.tracker.index.get(stored).start) == "Point(x=-0.0, y=0.0)"


#: Coordinates that compare equal but print apart, close enough for the
#: boxes of a tolerance of 1 or 2 to hold several stored segments.
COORDINATES = (-0.0, 0.0, 2, 2.0, 3.5, 6.0, 10.0)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hypothesis_streams_answer_as_the_oracle(data):
    """Objects that linger (zero-length segments), share and revisit ends
    (reuse, several qualifying segments) and report on most timestamps, an
    expiry every one to three timestamps under a short window (so crossings
    leave exactly at the boundary): every credited id and index size, and
    the final top-k, equal the oracle's."""
    dp = Lockstep(tolerance=data.draw(st.sampled_from((1.0, 2.0))), window=data.draw(st.integers(2, 8)))
    objects = data.draw(st.integers(1, 4))
    every = data.draw(st.integers(1, 3))
    position = st.builds(Point, st.sampled_from(COORDINATES), st.sampled_from(COORDINATES))
    for timestamp in range(data.draw(st.integers(2, 30))):
        for object_id in range(objects):
            if data.draw(st.booleans()):
                dp.observe(object_id, data.draw(position), timestamp)
        if timestamp % every == 0:
            dp.advance(timestamp)
    dp.assert_top_k(10)


# ---------------------------------------------------------------------------
# The paper's sweep: a recorded Figure 7 point, and DP off the grid
# ---------------------------------------------------------------------------


def run_dp(num_objects: int, cells_per_axis: int = 64) -> DPHotSegmentTracker:
    """DP's tracker after one Figure 7 point of ``figure7 --scale 0.02 --seed 42``."""
    config = scaled_simulation_config(
        ExperimentScale.at(0.02), num_objects=num_objects, seed=42,
        run_dp_baseline=True, run_naive_baseline=False, cells_per_axis=cells_per_axis,
    )
    return HotPathSimulation(config).run().dp_baseline


def test_a_recorded_figure7_point_answers_as_the_oracle(monkeypatch):
    """The N = 20 000 point (400 objects): every measurement the simulation
    fed DP and every expiry, replayed through the oracle."""
    events: List[Tuple] = []
    observe, advance_time = DPHotSegmentTracker.observe, DPHotSegmentTracker.advance_time

    def recorded_observe(tracker, object_id, timepoint):
        credited = observe(tracker, object_id, timepoint)
        events.append(("observe", object_id, timepoint.point, timepoint.timestamp, credited))
        return credited

    def recorded_advance_time(tracker, now):
        vanished = advance_time(tracker, now)
        events.append(("advance", now, vanished, tracker.index_size()))
        return vanished

    monkeypatch.setattr(DPHotSegmentTracker, "observe", recorded_observe)
    monkeypatch.setattr(DPHotSegmentTracker, "advance_time", recorded_advance_time)
    tracker = run_dp(20000)

    oracle = ReferenceDP(tracker.tolerance, tracker.hotness.window)
    credited = 0
    for index, event in enumerate(events):
        if event[0] == "observe":
            _kind, object_id, point, timestamp, expected = event
            assert repr(oracle.observe(object_id, point, timestamp)) == repr(expected), f"event {index}"
            credited += expected is not None
        else:
            _kind, now, vanished, size = event
            assert (oracle.advance(now), oracle.index_size()) == (vanished, size), f"event {index}"
    assert credited > tracker.index_size() > 0  # some closed segments were reused
    everything = oracle.index_size()
    assert repr(oracle.top_k(everything)) == repr(top_k(tracker, everything))


def test_dp_state_does_not_depend_on_the_grid_resolution():
    """One DP run (the N = 100 000 point, 2 000 objects) at ``cells_per_axis``
    1, 4 and 64: the same hot segments, ids and hotness."""
    states = []
    for cells in (1, 4, 64):
        tracker = run_dp(100000, cells)
        states.append(repr(top_k(tracker, tracker.index_size())))
    assert states[0] == states[1] == states[2]


def test_every_rule_of_the_oracle_quotes_the_architecture_document():
    """Each quoted comment of the oracle is a sentence of ``docs/ARCHITECTURE.md``
    ("The DP baseline's rules"), up to line breaks: a rule edited on one side
    only fails here."""
    source = Path(dp_oracle.__file__).read_text()
    blocks = re.findall(r"(?:^[ \t]*# .*\n)+", source, re.M)
    joined = [" ".join(line.strip()[1:].strip() for line in block.splitlines()) for block in blocks]
    quotes = [" ".join(match.group(1).split()) for match in map(re.compile(r'"(.+)"').search, joined) if match]
    document = " ".join(ARCHITECTURE.read_text().split())
    assert len(quotes) == 9
    assert [quote for quote in quotes if quote not in document] == []

