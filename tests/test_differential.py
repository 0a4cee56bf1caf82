"""Every configuration of the matrix answers as the reference, on every scenario.

The harness is ``tests/differential.py``.  Three layers:

* the matrix pin — ``MATRIX`` is every ``choices`` value declared in
  ``fields(FleetConfig)`` crossed with the shard counts, the reference
  included;
* the differential — for every (scenario, configuration) pair, every
  queried epoch's observation is ``repr``-equal to the reference's, and
  each scenario's non-vacuity check passes on the shipped configuration;
* a stateful model — a hypothesis ``RuleBasedStateMachine`` drives every
  ``serial`` configuration in lockstep with the reference through random
  reports (from shard-border points, from values that compare equal but
  print apart, from the object's last response), epochs, queries, the
  served loop's query-view refresh, and inserts and deletes made behind the
  coordinator's back, also after a query;
* paper density (``slow``) — the 10 000-object simulation runs once per
  index storage and the two coordinator snapshots are equal.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, fields
from typing import Any, Dict

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.client.state import ObjectState
from repro.coordinator.fleet import FleetConfig
from repro.core.geometry import Point
from repro.experiments.config import ExperimentScale, scaled_simulation_config
from repro.serving.protocol import coordinator_snapshot, encode_corridor, encode_scored_path
from repro.simulation.engine import HotPathSimulation

from differential import (
    DEFAULT,
    MATRIX,
    REFERENCE,
    SCENARIOS,
    SHARD_COUNTS,
    assert_answers_as,
    fleet_id,
    make_coordinator,
    observe,
    reference_run,
)


SCENARIO_IDS = [scenario.name for scenario in SCENARIOS]


def test_the_matrix_is_every_declared_choice_crossed_with_the_shard_counts():
    axes = {knob.name: knob.metadata.get("choices") for knob in fields(FleetConfig)}
    unchoiced = [name for name, choices in axes.items() if choices is None]
    assert unchoiced in ([], ["num_shards"])
    axes.update((name, SHARD_COUNTS) for name in unchoiced)
    expected = {tuple(zip(axes, values)) for values in itertools.product(*axes.values())}
    assert len(MATRIX) == len(expected)
    assert {tuple(asdict(fleet).items()) for fleet in MATRIX} == expected
    assert REFERENCE in MATRIX and DEFAULT in MATRIX


@pytest.mark.parametrize("fleet", MATRIX, ids=fleet_id)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_every_configuration_answers_as_the_reference(scenario, fleet):
    assert_answers_as(reference_run(scenario), scenario.run(fleet))


@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_the_scenario_exercises_what_it_is_for(scenario):
    assert scenario.validate_result(scenario.run(DEFAULT)) == []


# ---------------------------------------------------------------------------
# The stateful model
# ---------------------------------------------------------------------------

SERIAL = [fleet for fleet in MATRIX if asdict(fleet).get("backend", "serial") == "serial"]

#: Report starts on the synthetic streams' shard borders, and coordinates
#: that compare equal but print apart.
BORDER_POINTS = st.sampled_from(
    [Point(500.0, 300.0), Point(250.0, 750.0), Point(500.0, 500.0), Point(-20.0, 500.0)]
)
TIES = st.sampled_from([-0.0, 0.0, 0, 2, 2.0])
STARTS = st.one_of(BORDER_POINTS, st.builds(Point, TIES, TIES))
#: FSA bounds on a pool small enough that FSAs coincide, nest, collapse to
#: zero width and touch at edges and corners.
FSA_BOUNDS = st.sampled_from([-0.0, 0.0, 0, 2, 2.0, 3.5, 5, 5.0, 8.0, 500.0])


@st.composite
def reports(draw):
    """``(object id, (FSA low, FSA high), how far t_end falls before the boundary)``."""
    x_low, x_high = sorted((draw(FSA_BOUNDS), draw(FSA_BOUNDS)))
    y_low, y_high = sorted((draw(FSA_BOUNDS), draw(FSA_BOUNDS)))
    object_id = draw(st.integers(min_value=0, max_value=5))
    lag = draw(st.integers(min_value=0, max_value=9))
    return object_id, (Point(x_low, y_low), Point(x_high, y_high)), lag


class Lockstep(RuleBasedStateMachine):
    """Every serial configuration and the reference, fed the same rules.

    A behind-the-back insert or delete may come at any point, also after a
    query: every report is of the current state.
    """

    def __init__(self) -> None:
        super().__init__()
        self.coordinators = {fleet: make_coordinator(fleet, window=20) for fleet in SERIAL}
        self.answers: Dict[FleetConfig, Any] = dict.fromkeys(SERIAL)
        self.now = 0
        self.last_response: Dict[int, Point] = {}

    def each(self, action) -> None:
        for fleet, coordinator in self.coordinators.items():
            self.answers[fleet] = action(coordinator)

    def submit(self, start: Point, report) -> None:
        object_id, (low, high), lag = report
        t_end = self.now + 10 - lag
        state = ObjectState(object_id, start, max(0, t_end - 5), low, high, t_end)
        self.each(lambda coordinator: coordinator.submit_state(state))

    @rule(batch=st.lists(st.tuples(STARTS, reports()), min_size=1, max_size=4))
    def report_from_border_points_or_equal_but_different_values(self, batch):
        for start, report in batch:
            self.submit(start, report)

    @precondition(lambda self: self.last_response)
    @rule(data=st.data(), report=reports())
    def report_from_the_last_response(self, data, report):
        object_id = data.draw(st.sampled_from(sorted(self.last_response)))
        self.submit(self.last_response[object_id], (object_id,) + report[1:])

    @rule()
    def run_epoch(self):
        self.now += 10

        def epoch(coordinator):
            outcome = coordinator.run_epoch(self.now)
            return (
                outcome.responses,
                outcome.states_processed,
                outcome.paths_inserted,
                outcome.paths_reused,
                outcome.paths_expired,
            )

        self.each(epoch)
        for response in self.answers[REFERENCE][0]:
            self.last_response[response.object_id] = response.endpoint

    @rule(k=st.integers(min_value=1, max_value=12), by_score=st.booleans())
    def query(self, k, by_score):
        self.each(
            lambda coordinator: (
                [encode_scored_path(s) for s in coordinator.top_k(k, by_score)],
                [encode_corridor(c) for c in coordinator.top_k_corridors(k, by_score)],
            )
        )

    @rule()
    def refresh_queries(self):
        """The served loop's idle catch-up: it may come at any point and
        changes no later answer."""
        self.each(lambda coordinator: coordinator.refresh_queries())

    @rule(start=STARTS, end=STARTS, crossings=st.integers(min_value=1, max_value=3))
    def insert_and_cross_behind_the_back(self, start, end, crossings):
        def insert(coordinator):
            record = coordinator.index.insert(start, end, created_at=self.now)
            for _ in range(crossings):
                coordinator.hotness.record_crossing(record.path_id, self.now)
            return record.path_id

        self.each(insert)

    @precondition(lambda self: self.coordinators[REFERENCE].hot_paths())
    @rule(data=st.data())
    def delete_a_hot_record_behind_the_back(self, data):
        hot = sorted(record.path_id for record, _h in self.coordinators[REFERENCE].hot_paths())
        path_id = data.draw(st.sampled_from(hot))
        self.each(lambda coordinator: coordinator.index.delete(path_id))

    def observation(self, fleet: FleetConfig) -> str:
        """What the last rule answered, plus the index and the hotness table."""
        coordinator = self.coordinators[fleet]
        records = sorted(
            (record.path_id, record, record.created_at) for record in coordinator.index.records
        )
        return repr(
            (
                self.answers[fleet],
                records,
                sorted(coordinator.hotness.items()),
                coordinator.hotness.pending_events,
            )
        )

    @invariant()
    def every_configuration_answers_as_the_reference(self):
        expected = self.observation(REFERENCE)
        for fleet in SERIAL:
            assert self.observation(fleet) == expected, fleet_id(fleet)

    def teardown(self):
        expected = observe(self.coordinators[REFERENCE])
        for fleet, coordinator in self.coordinators.items():
            assert observe(coordinator) == expected, fleet_id(fleet)


Lockstep.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLockstep = Lockstep.TestCase


@pytest.mark.slow
def test_lockstep_soak():
    run_state_machine_as_test(
        Lockstep,
        settings=settings(
            max_examples=2000,
            stateful_step_count=60,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


@pytest.mark.slow
def test_both_index_storages_agree_at_paper_density():
    """10 000 objects (Figure 7's 100 000 at ``ExperimentScale.at(0.1)``,
    DP off) through the cell dicts and through the end table: every
    record, hotness, top-k and corridor of the end state is equal."""
    snapshots = []
    for kernel in ("object", "columnar"):
        config = scaled_simulation_config(
            ExperimentScale.at(0.1), num_objects=100000, fleet=FleetConfig(kernel=kernel)
        )
        assert config.num_objects == 10000 and not config.run_dp_baseline
        simulation = HotPathSimulation(config)
        simulation.run()
        snapshots.append(coordinator_snapshot(simulation.coordinator))
    assert snapshots[0]["size"] > 0
    assert snapshots[0] == snapshots[1]
