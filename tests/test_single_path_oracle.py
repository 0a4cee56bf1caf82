"""SinglePath answers as Algorithm 2 transcribed literally (``tests/single_path_oracle.py``).

The exactness matrix (``tests/test_differential.py``) compares configurations
of the same code with each other, so a departure from the paper in what they
all share — the Case 1 choice, the co-occurrence boost, the vertex ranking,
the sliding window — shows nowhere in it.  Here the shipped configuration
runs each scenario of ``tests/differential.py`` while a recorder notes, per
coordinator, every epoch's ``(now, states)`` and every insert, crossing and
delete made behind its back; the recording is then replayed through the
oracle, which must produce every epoch's responses and the final hot set,
compared by ``repr``.  Hypothesis streams do the same in lockstep, under
both index storages.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.client.state import ObjectState
from repro.coordinator.columnar import KERNELS
from repro.coordinator.coordinator import Coordinator
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.grid_index import GridIndex
from repro.coordinator.hotness import HotnessTracker
from repro.core.geometry import Point
from repro.core.motion_path import MotionPath

import single_path_oracle
from differential import DEFAULT, SCENARIOS, make_coordinator
from single_path_oracle import ReferenceSinglePath

ARCHITECTURE = Path(__file__).resolve().parent.parent / "docs" / "ARCHITECTURE.md"


def hot_set(coordinator: Coordinator) -> List[Tuple]:
    """``(id, start, end, created, hotness)`` of every hot record, by id."""
    return sorted(
        (record.path_id, record.path.start, record.path.end, record.created_at, hotness)
        for record, hotness in coordinator.hot_paths()
    )


class Recording:
    """One coordinator's inputs in order: ``("epoch", now, states, responses)``,
    and ``("insert", start, end, created, path id)`` / ``("cross", path id,
    t_end)`` / ``("delete", path id)`` for what was done behind its back."""

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator
        self.events: List[Tuple] = []
        self.pending: List[ObjectState] = []
        self.in_epoch = False

    def replay(self) -> int:
        """Replay through the oracle, asserting every epoch's responses and
        the final hot set; returns the number of states replayed."""
        oracle = ReferenceSinglePath(self.coordinator.config.window)
        states_replayed = 0
        for index, event in enumerate(self.events):
            kind = event[0]
            if kind == "epoch":
                _kind, now, states, responses = event
                assert repr(oracle.epoch(now, states)) == responses, f"event {index}: epoch at {now}"
                states_replayed += len(states)
            elif kind == "insert":
                assert oracle.insert(*event[1:4]) == event[4], f"event {index}"
            elif kind == "cross":
                oracle.cross(*event[1:])
            else:
                oracle.delete(event[1])
        assert repr(oracle.hot_set()) == repr(hot_set(self.coordinator))
        return states_replayed


@pytest.fixture
def recordings(monkeypatch) -> List[Recording]:
    """Record every coordinator constructed while the test runs."""
    made: List[Recording] = []
    owner: Dict[int, Recording] = {}  # id of a coordinator, its index or tracker
    init, submit, run_epoch = Coordinator.__init__, Coordinator.submit_state, Coordinator.run_epoch

    def recorded_init(coordinator, config):
        init(coordinator, config)
        recording = Recording(coordinator)
        made.append(recording)
        for part in (coordinator, coordinator.index, coordinator.hotness):
            owner[id(part)] = recording

    def recorded_submit(coordinator, state):
        owner[id(coordinator)].pending.append(state)
        submit(coordinator, state)

    def recorded_run_epoch(coordinator, now):
        recording = owner[id(coordinator)]
        states, recording.pending = recording.pending, []
        recording.in_epoch = True
        try:
            outcome = run_epoch(coordinator, now)
        finally:
            recording.in_epoch = False
        recording.events.append(("epoch", now, states, repr(outcome.responses)))
        return outcome

    def behind_the_back(method, event):
        def recorded(part, *args, **kwargs):
            result = method(part, *args, **kwargs)
            recording = owner.get(id(part))
            if recording is not None and not recording.in_epoch:
                recording.events.append(event(result, *args, **kwargs))
            return result

        return recorded

    monkeypatch.setattr(Coordinator, "__init__", recorded_init)
    monkeypatch.setattr(Coordinator, "submit_state", recorded_submit)
    monkeypatch.setattr(Coordinator, "run_epoch", recorded_run_epoch)
    monkeypatch.setattr(GridIndex, "insert", behind_the_back(
        GridIndex.insert,
        lambda record, path, created_at=0: ("insert", path.start, path.end, created_at, record.path_id),
    ))
    monkeypatch.setattr(GridIndex, "delete", behind_the_back(
        GridIndex.delete, lambda _result, path_id: ("delete", path_id)
    ))
    monkeypatch.setattr(HotnessTracker, "record_crossing", behind_the_back(
        HotnessTracker.record_crossing, lambda _result, path_id, t_end: ("cross", path_id, t_end)
    ))
    return made


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[scenario.name for scenario in SCENARIOS])
def test_the_shipped_configuration_answers_as_the_oracle(scenario, recordings):
    """Every epoch's responses and the final hot set of every coordinator the
    scenario builds equal the oracle's replay of its recorded inputs."""
    scenario.run(DEFAULT)
    assert recordings
    replayed = [recording.replay() for recording in recordings]
    if scenario.name != "chained_walks":  # inserts behind the back, no epoch
        assert sum(replayed) > 0


def test_every_rule_of_the_oracle_quotes_the_architecture_document():
    """Each quoted comment of the oracle is a sentence of ``docs/ARCHITECTURE.md``
    ("SinglePath's rules"), up to line breaks: a rule edited on one side only
    fails here."""
    source = Path(single_path_oracle.__file__).read_text()
    blocks = re.findall(r"(?:^[ \t]*# .*\n)+", source, re.M)
    joined = [" ".join(line.strip()[1:].strip() for line in block.splitlines()) for block in blocks]
    quotes = [" ".join(match.group(1).split()) for match in map(re.compile(r'"(.+)"').search, joined) if match]
    document = " ".join(ARCHITECTURE.read_text().split())
    assert len(quotes) == 13
    assert [quote for quote in quotes if quote not in document] == []


# ---------------------------------------------------------------------------
# Hypothesis streams, in lockstep
# ---------------------------------------------------------------------------

#: Coordinates that compare equal but print apart, and 4x4 cell borders of
#: the harness's 1000 x 1000 area.
COORDINATES = (-0.0, 0.0, 0, 2, 2.0, 3.5, 250.0, 250, 500.0, 1000.0)
POINTS = [Point(x, y) for x in (-0.0, 0.0, 2, 2.0, 250.0) for y in (0.0, 2.0, 250.0)]


def a_report(data, object_id: int, starts: List[Point], t_end: int) -> ObjectState:
    start = data.draw(st.sampled_from(starts))
    xs = sorted(data.draw(st.lists(st.sampled_from(COORDINATES), min_size=2, max_size=2)))
    ys = sorted(data.draw(st.lists(st.sampled_from(COORDINATES), min_size=2, max_size=2)))
    return ObjectState(object_id, start, t_end - 1, Point(xs[0], ys[0]), Point(xs[1], ys[1]), t_end)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hypothesis_streams_answer_as_the_oracle(kernel, data):
    """Reports from equal-but-different coordinates, cell borders and earlier
    responses (Case 1 reuse), duplicate reporters, out-of-order end times,
    expiry under a short window, and paths inserted and crossed behind the
    coordinator's back: after every epoch the responses and the hot set
    equal the oracle's."""
    coordinator = make_coordinator(FleetConfig(kernel=kernel), window=25, cells=4)
    oracle = ReferenceSinglePath(25)
    starts = list(POINTS)
    try:
        for epoch in range(1, data.draw(st.integers(1, 6)) + 1):
            now = 10 * epoch
            if data.draw(st.booleans()):
                start, end = data.draw(st.lists(st.sampled_from(POINTS), min_size=2, max_size=2, unique=True))
                path_id = coordinator.index.insert(MotionPath(start, end), created_at=now).path_id
                assert oracle.insert(start, end, now) == path_id
                for _ in range(data.draw(st.integers(0, 2))):
                    coordinator.hotness.record_crossing(path_id, now - 5)
                    oracle.cross(path_id, now - 5)
            states = [
                a_report(data, data.draw(st.integers(0, 5)), starts, now - data.draw(st.integers(0, 9)))
                for _ in range(data.draw(st.integers(0, 8)))
            ]
            for state in states:
                coordinator.submit_state(state)
            responses = coordinator.run_epoch(now).responses
            assert repr(oracle.epoch(now, states)) == repr(responses)
            assert repr(oracle.hot_set()) == repr(hot_set(coordinator))
            starts.extend(response.endpoint for response in responses)
    finally:
        coordinator.close()
