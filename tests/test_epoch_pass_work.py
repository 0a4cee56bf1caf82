"""The epoch pass's work, as exact counts over a paper-shaped stream.

The stream is the Section 6 loop at the size ``python3 -m bench --workload
sim_paper`` runs (320 RayTrace objects on the 9 x 9 synthetic road network,
seed 11, 10 timestamps an epoch, a 100-timestamp window, 64 cells per axis,
one shard, delta mode, columnar kernel): ten warm-up epochs, then 20
counted ones.  Four counts, each pinned to what the epoch pass does now:

* ``ObjectState.fsa`` evaluations — one per state per epoch: the strategy
  builds each state's FSA once and hands it to the plan, the candidate stage,
  the pass and the decision;
* ``Rectangle.degenerate`` calls — none: the duplicate-path probe of an
  insert asks ``GridIndex.path_between`` instead of a degenerate query box;
* end entries the pass tests on y — only those in each pending FSA's x run
  of the x-sorted end table, against every live entry per pending FSA for an
  all-pairs mask;
* pool-cache table lookups — one per overlap pool, hit or miss: a miss no
  longer probes a lookup per prefix cut.

:class:`TestSingleQueriesBuildNoTable` pins the other half of "one path per
query shape" on a structure past the old 96-region switch: a single query is
the scalar loop, and builds no ``RegionTable``.

Counts, not clocks: they repeat exactly run to run.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter, OrderedDict
from typing import Iterator, List, Tuple

import pytest

from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.state import ObjectState
from repro.coordinator import overlaps
from repro.coordinator.columnar import HAVE_NUMPY, EndpointTable
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig, EpochOutcome
from repro.coordinator.overlaps import OverlapPoolCache, build_structures, plan_shard_overlaps
from repro.core.geometry import Point, Rectangle
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


def counted_epochs(counter: Counter) -> List[EpochOutcome]:
    """Run the stream; ``counter`` only counts inside the 20 counted epochs'
    ``run_epoch``.  Returns the counted epochs' outcomes."""
    outcomes: List[EpochOutcome] = []
    stream = paper_stream()
    coordinator, now = next(stream)
    for epoch in range(WARMUP + COUNTED):
        counting = epoch >= WARMUP
        counter["on"] = counting
        outcome = coordinator.run_epoch(now)
        counter["on"] = False
        if counting:
            outcomes.append(outcome)
        try:
            coordinator, now = stream.send(outcome.responses)
        except StopIteration:
            break
    return outcomes


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
        states = [outcome.states_processed for outcome in counted_epochs(counter)]
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

    def test_a_pool_cache_miss_makes_one_table_lookup(self, monkeypatch):
        """Every pool costs one lookup, hit or miss.  A miss used to probe
        the table once per proper prefix as well: n lookups for n members."""
        counter: Counter = Counter()

        class CountedTable(OrderedDict):
            def get(self, key, default=None):
                if counter["on"]:
                    counter["lookups"] += 1
                return super().get(key, default)

        init = OverlapPoolCache.__init__

        def counted_init(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            cache._table = CountedTable()

        monkeypatch.setattr(OverlapPoolCache, "__init__", counted_init)
        deltas = [outcome.delta for outcome in counted_epochs(counter)]
        assert sum(delta.pools_rebuilt for delta in deltas) == 28  # every pool misses
        assert sum(delta.pools_reused for delta in deltas) == 0
        assert counter["lookups"] == sum(delta.pools_total for delta in deltas) == 28
        assert all(delta.pools_prefix_reused == 0 for delta in deltas)


def dense_pool(seed: int = 0, size: int = 28) -> dict:
    """A ``fleet_dense``-like epoch: 28 FSAs deriving 124 regions."""
    rng = random.Random(seed)
    return {
        object_id: Rectangle.from_center(
            Point(rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)), rng.uniform(20.0, 60.0)
        )
        for object_id in range(size)
    }


class TestSingleQueriesBuildNoTable:
    def test_single_queries_on_a_large_columnar_structure(self, monkeypatch):
        """The epoch's merged structure under the columnar plan — a 124-region
        pool and an isolated FSA — answers single queries with the scalar
        loops: no ``RegionTable`` is built (one was, past 96 regions).  The
        batched queries build exactly one, once."""
        fsas = dict(dense_pool())
        fsas[99] = Rectangle.from_center(Point(900.0, 900.0), 10.0)
        plan = plan_shard_overlaps("columnar", OverlapPoolCache(), fsas)
        structure = plan.merge(build_structures(plan.missed_pools))
        assert len(structure) == 125 and plan.singletons

        tables: Counter = Counter()
        region_table = overlaps.RegionTable

        def counted(regions):
            tables["built"] += 1
            return region_table(regions)

        monkeypatch.setattr(overlaps, "RegionTable", counted)
        probes = [Point(x, y) for x in (100.0, 200.0, 300.0) for y in (100.0, 200.0, 300.0)]
        boxes = [Rectangle.from_center(probe, 25.0) for probe in probes]
        for probe, box in zip(probes, boxes):
            structure.smallest_region_containing(probe)
            structure.hottest_region_intersecting(box)
            structure.candidate_vertex_for(box)
        assert tables["built"] == 0
        structure.containing_counts(probes)
        structure.candidate_vertices_for(boxes)
        assert tables["built"] == 1
