"""The epoch pass's work, as exact counts over a paper-shaped stream.

The stream is the Section 6 loop at the size ``python3 -m bench --workload
sim_paper`` runs (320 RayTrace objects on the 9 x 9 synthetic road network,
seed 11, 10 timestamps an epoch, a 100-timestamp window, 64 cells per axis,
one shard, delta mode, columnar kernel): ten warm-up epochs, then 20
counted ones.  Three counts, each pinned to what the epoch pass does now:

* ``ObjectState.fsa`` evaluations — one per state per epoch: the strategy
  builds each state's FSA once and hands it to the plan, the candidate stage,
  the pass and the decision;
* ``Rectangle.degenerate`` calls — none: the duplicate-path probe of an
  insert asks ``GridIndex.path_between`` instead of a degenerate query box;
* end entries the pass tests on y — only those in each pending FSA's x run
  of the x-sorted end table, against every live entry per pending FSA for an
  all-pairs mask.

Counts, not clocks: they repeat exactly run to run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Iterator, List, Tuple

import pytest

from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.state import ObjectState
from repro.coordinator.columnar import HAVE_NUMPY, EndpointTable
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.core.geometry import Rectangle
from repro.network.generator import NetworkConfig, SyntheticRoadNetworkGenerator
from repro.workload.moving_objects import MovingObjectWorkload, WorkloadConfig

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="the columnar kernel needs numpy")

OBJECTS, NODES, TOLERANCE, SEED = 320, 9, 10.0, 11
EPOCH_LENGTH, WARMUP, COUNTED = 10, 10, 20


def paper_stream() -> Iterator[Tuple[Coordinator, int]]:
    """Drive the Section 6 loop; yields ``(coordinator, now)`` right before
    each epoch's ``run_epoch(now)``, and feeds the responses back after it."""
    network = SyntheticRoadNetworkGenerator(
        NetworkConfig(area_size=16000.0 * NODES / 33.0, grid_nodes_per_axis=NODES, seed=2008)
    ).generate()
    workload = MovingObjectWorkload(network, WorkloadConfig(num_objects=OBJECTS, seed=SEED))
    coordinator = Coordinator(
        CoordinatorConfig(
            bounds=network.bounding_box(padding=TOLERANCE * 2),
            window=100,
            cells_per_axis=64,
            num_shards=1,
            backend="serial",
            epoch_mode="delta",
            kernel="columnar",
        )
    )
    config = RayTraceConfig(TOLERANCE)
    filters = {
        object_id: RayTraceFilter(object_id, measurement, config)
        for object_id, measurement in workload.initial_measurements(0)
    }
    now = 0
    try:
        for _epoch in range(WARMUP + COUNTED):
            for _ in range(EPOCH_LENGTH):
                now += 1
                for object_id, measurement in workload.step(now):
                    state = filters[object_id].observe(measurement)
                    if state is not None:
                        coordinator.submit_state(state)
            responses = yield coordinator, now
            for response in responses:
                follow_up = filters[response.object_id].receive_response(response)
                if follow_up is not None:
                    coordinator.submit_state(follow_up)
    finally:
        coordinator.close()


def counted_epochs(counter: Counter) -> List[int]:
    """Run the stream; ``counter`` only counts inside the 20 counted epochs'
    ``run_epoch``.  Returns the states each counted epoch processed."""
    states: List[int] = []
    stream = paper_stream()
    coordinator, now = next(stream)
    for epoch in range(WARMUP + COUNTED):
        counting = epoch >= WARMUP
        counter["on"] = counting
        outcome = coordinator.run_epoch(now)
        counter["on"] = False
        if counting:
            states.append(outcome.states_processed)
        try:
            coordinator, now = stream.send(outcome.responses)
        except StopIteration:
            break
    return states


def count_property(monkeypatch, owner, name: str, counter: Counter) -> None:
    getter = getattr(owner, name).fget

    def counted(self):
        if counter["on"]:
            counter[name] += 1
        return getter(self)

    monkeypatch.setattr(owner, name, property(counted))


class TestEpochPassWork:
    def test_each_state_builds_its_fsa_once_an_epoch(self, monkeypatch):
        counter: Counter = Counter()
        count_property(monkeypatch, ObjectState, "fsa", counter)
        states = counted_epochs(counter)
        assert sum(states) == 1297
        assert counter["fsa"] == sum(states)  # was 4 a pending state, 2 a Case 1 one

    def test_inserts_probe_without_a_degenerate_rectangle(self, monkeypatch):
        counter: Counter = Counter()
        degenerate = Rectangle.degenerate.__func__

        def counted(cls, point):
            if counter["on"]:
                counter["degenerate"] += 1
            return degenerate(cls, point)

        monkeypatch.setattr(Rectangle, "degenerate", classmethod(counted))
        counted_epochs(counter)
        assert counter["degenerate"] == 0  # was one per Case 2/3 decision

    def test_the_pass_tests_y_only_on_each_fsa_x_run(self, monkeypatch):
        """Per pending FSA the pass y-tests the entries whose x lies in the
        FSA's x range: two bisections bound the run."""
        counter: Counter = Counter()
        end_vertices_in = EndpointTable.end_vertices_in

        def counted(table, region):
            if counter["on"]:
                xs = table._xs
                first = bisect_left(xs, region.low.x)
                run = bisect_right(xs, region.high.x, first) - first
                counter["pending"] += 1
                counter["y_tests"] += run
                counter["all_pairs"] += len(xs)
                counter["matched"] += sum(len(ids) for ids in end_vertices_in(table, region).values())
            return end_vertices_in(table, region)

        monkeypatch.setattr(EndpointTable, "end_vertices_in", counted)
        counted_epochs(counter)
        assert counter["pending"] == 1285
        assert counter["all_pairs"] == 602467  # what an all-pairs mask tests
        assert counter["y_tests"] == 3880
        assert counter["matched"] == 131

