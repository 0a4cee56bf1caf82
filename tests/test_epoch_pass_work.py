"""The epoch pass's work, as exact counts over a paper-shaped stream.

The stream is the Section 6 loop at the size ``python3 -m bench --workload
sim_paper`` runs (320 RayTrace objects on the 9 x 9 synthetic road network,
seed 11, 10 timestamps an epoch, a 100-timestamp window, 64 cells per axis,
one shard, delta mode, columnar kernel): ten warm-up epochs, then 20
counted ones.  Seven counts, each pinned to what the epoch pass does now:

* ``ObjectState.fsa`` evaluations — one per state per epoch: the strategy
  builds each state's FSA once and hands it to the plan, the candidate stage,
  the pass and the decision;
* ``Rectangle.degenerate`` calls — none: the duplicate-path probe of an
  insert asks ``GridIndex.path_between`` instead of a degenerate query box;
* end entries the pass tests on y — only those in each pending FSA's x run
  of the x-sorted end table, against every live entry per pending FSA for an
  all-pairs mask (a lone FSA's decision reads the table itself);
* ``Point.__hash__`` calls inside ``EndpointTable`` methods — none: the table
  keys by coordinate tuples;
* ``VertexPrefetch`` entries — one per pending state that is not lone;
* the insert probe's ``add_path`` calls — one per insert of such a state:
  with no object reporting twice, no lone insert joins the probe;
* pool-cache table lookups — one per overlap pool, hit or miss: a miss no
  longer probes a lookup per prefix cut.

:class:`TestSingleQueriesBuildNoTable` pins the other half of "one path per
query shape" on a structure past the old 96-region switch: a single query is
the scalar loop, and builds no ``RegionTable``.

Counts, not clocks: they repeat exactly run to run.

:class:`TestComponentBatches` pins where the epoch pass answers its FSAs: an
epoch of FSAs that touch nothing builds no ``RegionTable`` and no merged
structure, and a ``fleet_dense``-shaped epoch builds one table per large
component.  :class:`TestNumpyStaysUnloaded` runs a fresh interpreter through
paper-sized and served traffic, which must never import numpy, and then
through one epoch above the cut-off, which must, and answer as the object
kernel does.

:class:`TestEpochPassDifferential` compares, at every Case 2/3 decision of
crafted and random streams, lone ones included, the vertex SinglePath
chooses with the one a per-state query of the live index and the merged
structure produces.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.state import ObjectState
from repro.coordinator import columnar, overlaps, single_path
from repro.coordinator.columnar import HAVE_NUMPY, EndpointTable
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig, EpochOutcome
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.grid_index import GridIndex
from repro.coordinator.overlaps import LONE, OverlapPoolCache, build_structures, plan_shard_overlaps
from repro.coordinator.single_path import SinglePathStrategy
from repro.core.geometry import Point, Rectangle
from repro.network.generator import NetworkConfig, SyntheticRoadNetworkGenerator
from repro.workload.moving_objects import MovingObjectWorkload, WorkloadConfig

from differential import DEFAULT, crafted_stream, drive, synthetic_stream

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="the columnar kernel needs numpy")

OBJECTS, NODES, TOLERANCE, SEED = 320, 9, 10.0, 11
EPOCH_LENGTH, WARMUP, COUNTED = 10, 10, 20

#: The end-table reads of the counted epochs' 1 285 pending states.
ALL_PAIRS, Y_TESTS, MATCHED = 642185, 4103, 131
#: The pending states among those that are not lone.
PREFETCH_ENTRIES = 56
#: The inserts of those, the only ones the epoch's probe holds.
NOT_LONE_INSERTS = 53


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
        """Per pending FSA — read by the pass, or by its decision when lone —
        the index's end table y-tests the entries whose x lies in the FSA's
        x range: two bisections bound the run.  (The decisions' insert probe
        is an end table too; its reads are not counted.)"""
        counter: Counter = Counter()
        end_vertices_in = EndpointTable.end_vertices_in
        grid_init = GridIndex.__init__
        index_tables: List[EndpointTable] = []

        def recorded_init(index, *args, **kwargs):
            grid_init(index, *args, **kwargs)
            index_tables.append(index._table)

        def counted(table, region):
            if counter["on"] and any(table is indexed for indexed in index_tables):
                xs = table._xs
                first = bisect_left(xs, region.low.x)
                run = bisect_right(xs, region.high.x, first) - first
                counter["pending"] += 1
                counter["y_tests"] += run
                counter["all_pairs"] += len(xs)
                counter["matched"] += sum(
                    len(ids) for _vertex, ids in end_vertices_in(table, region).values()
                )
            return end_vertices_in(table, region)

        monkeypatch.setattr(GridIndex, "__init__", recorded_init)
        monkeypatch.setattr(EndpointTable, "end_vertices_in", counted)
        counted_epochs(counter)
        assert counter["pending"] == 1285
        assert counter["all_pairs"] == ALL_PAIRS  # what an all-pairs mask tests
        assert counter["y_tests"] == Y_TESTS
        assert counter["matched"] == MATCHED

    def test_the_end_table_hashes_no_point(self, monkeypatch):
        """Every key of the end table is a coordinate tuple: no
        ``Point.__hash__`` runs inside its methods (a start-vertex probe keyed
        by ``Point`` ran the dataclass's Python-level hash)."""
        counter: Counter = Counter()
        point_hash = Point.__hash__
        inside: List[bool] = []

        def counted_hash(point):
            if counter["on"] and inside:
                counter["hashes"] += 1
            return point_hash(point)

        def entered(method):
            def wrapper(*args, **kwargs):
                inside.append(True)
                try:
                    return method(*args, **kwargs)
                finally:
                    inside.pop()

            return wrapper

        monkeypatch.setattr(Point, "__hash__", counted_hash)
        for name in ("add_path", "remove_path", "starting_at", "path_between", "end_vertices_in"):
            monkeypatch.setattr(EndpointTable, name, entered(getattr(EndpointTable, name)))
        outcomes = counted_epochs(counter)
        assert sum(outcome.paths_inserted for outcome in outcomes) > 0  # add_path ran
        assert counter["hashes"] == 0

    def test_only_states_that_are_not_lone_get_a_prefetch_entry(self, monkeypatch):
        """A lone pending state — its FSA in the epoch map, touching no other
        one — decides off the live end table and gets no ``VertexPrefetch``."""
        counter: Counter = Counter()
        prefetch = single_path.prefetch_vertex_candidates
        vertex_prefetch = single_path.VertexPrefetch

        def counted_prefetch(table, pending, plan):
            pending = list(pending)
            if counter["on"]:
                for _position, object_id, fsa in pending:
                    lone = plan.fsas.get(object_id) is fsa and plan.components.get(object_id) == LONE
                    counter["lone" if lone else "not_lone"] += 1
            return prefetch(table, pending, plan)

        def counted_entry(*args):
            if counter["on"]:
                counter["entries"] += 1
            return vertex_prefetch(*args)

        monkeypatch.setattr(single_path, "prefetch_vertex_candidates", counted_prefetch)
        monkeypatch.setattr(single_path, "VertexPrefetch", counted_entry)
        counted_epochs(counter)
        assert counter["lone"] + counter["not_lone"] == 1285
        assert counter["entries"] == counter["not_lone"] == PREFETCH_ENTRIES

    def test_only_inserts_a_later_decision_can_read_join_the_probe(self, monkeypatch):
        """No object reports twice in these epochs, so a lone decision's
        insert — inside its own FSA, which no other FSA touches — is read by
        no later decision and stays out of the probe: per epoch, the probe's
        ``add_path`` calls are the inserts of the states that are not lone
        (every insert joined it before)."""
        counter: Counter = Counter()
        per_epoch: List[Tuple[int, int]] = []
        grid_init, add_path = GridIndex.__init__, EndpointTable.add_path
        process_epoch, decide = SinglePathStrategy.process_epoch, SinglePathStrategy.decide
        index_tables: List[EndpointTable] = []

        def recorded_init(index, *args, **kwargs):
            grid_init(index, *args, **kwargs)
            index_tables.append(index._table)

        def counted_add(table, *args):
            if counter["on"] and not any(table is indexed for indexed in index_tables):
                counter["probe_adds"] += 1
            return add_path(table, *args)

        def counted_decide(strategy, reported, fsa, path, plan, prefetch=None, probe=None):
            response, path_id = decide(strategy, reported, fsa, path, plan, prefetch, probe)
            if counter["on"] and path_id is not None:
                counter["lone_inserts" if prefetch is None else "inserts"] += 1
            return response, path_id

        def counted_epoch(strategy, states):
            if counter["on"]:
                assert len({reported.object_id for reported in states}) == len(states)
                before = (counter["probe_adds"], counter["inserts"])
                result = process_epoch(strategy, states)
                per_epoch.append(
                    (counter["probe_adds"] - before[0], counter["inserts"] - before[1])
                )
                return result
            return process_epoch(strategy, states)

        monkeypatch.setattr(GridIndex, "__init__", recorded_init)
        monkeypatch.setattr(EndpointTable, "add_path", counted_add)
        monkeypatch.setattr(SinglePathStrategy, "decide", counted_decide)
        monkeypatch.setattr(SinglePathStrategy, "process_epoch", counted_epoch)
        outcomes = counted_epochs(counter)
        assert len(per_epoch) == COUNTED
        assert all(probe_adds == inserts for probe_adds, inserts in per_epoch)
        assert counter["probe_adds"] == counter["inserts"] == NOT_LONE_INSERTS
        assert counter["lone_inserts"] + NOT_LONE_INSERTS == sum(
            outcome.paths_inserted for outcome in outcomes
        )
        assert counter["lone_inserts"] > NOT_LONE_INSERTS

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
        plan = plan_shard_overlaps(OverlapPoolCache(), fsas)
        plan.complete(build_structures(plan.missed_pools))
        structure = plan.merged()
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


def count_tables_and_merges(monkeypatch) -> Counter:
    """Count ``RegionTable`` constructions and merged epoch structures."""
    counts: Counter = Counter()
    region_table = overlaps.RegionTable
    merge = overlaps.OverlapPlan._merge

    def counted_table(regions):
        counts["tables"] += 1
        return region_table(regions)

    def counted_merge(plan):
        counts["merged"] += 1
        return merge(plan)

    monkeypatch.setattr(overlaps, "RegionTable", counted_table)
    monkeypatch.setattr(overlaps.OverlapPlan, "_merge", counted_merge)
    return counts


def fresh_reporters(fsas: dict, t_end: int = 10) -> List[ObjectState]:
    """One state per FSA, starting far from every FSA and from each other,
    so an empty index leaves every state to the epoch pass."""
    return [
        ObjectState(object_id, Point(1900.0 - object_id, 1950.0), t_end - 5, fsa.low, fsa.high, t_end)
        for object_id, fsa in fsas.items()
    ]


def run_one_epoch(states: List[ObjectState]) -> EpochOutcome:
    coordinator = Coordinator(
        CoordinatorConfig(
            bounds=Rectangle(Point(0.0, 0.0), Point(2000.0, 2000.0)), window=40, kernel="columnar"
        )
    )
    try:
        for state in states:
            coordinator.submit_state(state)
        return coordinator.run_epoch(states[0].t_end)
    finally:
        coordinator.close()


class TestComponentBatches:
    def test_a_lone_only_epoch_builds_no_table_and_no_merged_structure(self, monkeypatch):
        """24 FSAs on a lattice, none touching another: each is answered from
        its own box (answering them from the merged structure built one
        merged structure and one table an epoch)."""
        fsas = {
            object_id: Rectangle.from_center(
                Point(80.0 + 150.0 * (object_id % 6), 80.0 + 150.0 * (object_id // 6)), 20.0
            )
            for object_id in range(24)
        }
        counts = count_tables_and_merges(monkeypatch)
        outcome = run_one_epoch(fresh_reporters(fsas))
        assert outcome.paths_inserted == 24  # every one a Case 3 decision
        assert counts["tables"] == 0
        assert counts["merged"] == 0

    def test_a_dense_epoch_builds_one_table_per_large_component(self, monkeypatch):
        """Two copies of a ``fleet_dense``-like epoch side by side, plus two
        lone FSAs: each copy is a 20-FSA component of 104 regions (above the
        cut-off), a 4-FSA one of 15 and a 2-FSA one of 3 (below it) and two
        lone FSAs.  One table per large component, no merged structure."""
        fsas = dict(dense_pool())
        for object_id, fsa in dense_pool().items():
            fsas[100 + object_id] = Rectangle(
                Point(fsa.low.x + 1000.0, fsa.low.y), Point(fsa.high.x + 1000.0, fsa.high.y)
            )
        fsas[900] = Rectangle.from_center(Point(700.0, 1500.0), 10.0)
        fsas[901] = Rectangle.from_center(Point(300.0, 1500.0), 10.0)
        plan = plan_shard_overlaps(None, fsas)
        sizes = [(len(pool), len(structure)) for pool, structure in zip(plan.pools, build_structures(plan.pools))]
        assert sizes == [(20, 104), (4, 15), (2, 3)] * 2
        assert len(plan.components) == len(fsas)  # nothing touches across components
        counts = count_tables_and_merges(monkeypatch)
        run_one_epoch(fresh_reporters(fsas))
        assert counts["tables"] == 2
        assert counts["merged"] == 0

    def test_without_numpy_a_dense_epoch_builds_no_table_and_answers_the_same(self, monkeypatch):
        """A bare interpreter degrades ``columnar`` to the cell dicts, which
        run the same pass: its batches past ``TABLE_WORK`` run the scalar
        loops instead of a region table, and every response is the same."""
        states = fresh_reporters(dense_pool())
        plan = plan_shard_overlaps(None, {state.object_id: state.fsa for state in states})
        work = [len(pool) * len(structure) for pool, structure in zip(plan.pools, build_structures(plan.pools))]
        assert max(work) >= overlaps.TABLE_WORK
        counts = count_tables_and_merges(monkeypatch)
        with_numpy = repr(run_one_epoch(states).responses)
        assert counts["tables"] == 1
        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
        monkeypatch.setattr(overlaps, "HAVE_NUMPY", False)
        monkeypatch.setattr(columnar, "_degrade_logged", False)
        assert repr(run_one_epoch(states).responses) == with_numpy
        assert counts["tables"] == 1


#: The Section 6 loop at sim_paper's size (320 objects on the 9 x 9
#: network), the start of each script :class:`TestNumpyStaysUnloaded` runs
#: in a fresh interpreter.
_PAPER_SIZED = r"""
import random, sys

from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.core.geometry import Point, Rectangle
from repro.network.generator import NetworkConfig, SyntheticRoadNetworkGenerator
from repro.serving.protocol import encode_message
from repro.serving.server import IngestionServer
from repro.workload.moving_objects import MovingObjectWorkload, WorkloadConfig


def paper_sized(backend):
    network = SyntheticRoadNetworkGenerator(
        NetworkConfig(area_size=16000.0 * 9 / 33.0, grid_nodes_per_axis=9, seed=2008)
    ).generate()
    workload = MovingObjectWorkload(network, WorkloadConfig(num_objects=320, seed=11))
    coordinator = Coordinator(
        CoordinatorConfig(
            bounds=network.bounding_box(padding=20.0), window=100, cells_per_axis=64, backend=backend
        )
    )
    assert coordinator.config.kernel == "columnar"
    config = RayTraceConfig(10.0)
    filters = {
        object_id: RayTraceFilter(object_id, measurement, config)
        for object_id, measurement in workload.initial_measurements(0)
    }
    now = 0
    for _epoch in range(15):
        for _ in range(10):
            now += 1
            for object_id, measurement in workload.step(now):
                state = filters[object_id].observe(measurement)
                if state is not None:
                    coordinator.submit_state(state)
        for response in coordinator.run_epoch(now).responses:
            follow_up = filters[response.object_id].receive_response(response)
            if follow_up is not None:
                coordinator.submit_state(follow_up)
    coordinator.top_k(10)
    coordinator.top_k_corridors(10)
    coordinator.close()
    return coordinator
"""

_FRESH_INTERPRETER = _PAPER_SIZED + r"""
paper_sized("serial")
assert "numpy" not in sys.modules, "a paper-sized stream imported numpy"

# Served traffic: 60 sparse updates (FSA half-width 5-25 m) an epoch over
# six batches, through the server's line handler.
server = IngestionServer(
    Coordinator(CoordinatorConfig(bounds=Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0)), window=60, cells_per_axis=32))
)
rng = random.Random(11)
for epoch in range(1, 31):
    now = 10 * epoch
    rows = []
    for object_id in rng.sample(range(240), 60):
        half = rng.uniform(5.0, 25.0)
        sx, sy = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
        cx = min(max(sx + rng.uniform(-30.0, 30.0), half), 1000.0 - half)
        cy = min(max(sy + rng.uniform(-30.0, 30.0), half), 1000.0 - half)
        rows.append([object_id, sx, sy, now - 5, cx - half, cy - half, cx + half, cy + half, now])
    for client in range(6):
        batch = {"op": "batch", "client": client, "seq": epoch, "updates": rows[10 * client:10 * client + 10]}
        assert server.handle_line(encode_message(batch))["ok"]
    assert server.handle_line(encode_message({"op": "tick", "now": now}))["ok"]
    assert server.handle_line(encode_message({"op": "corridors", "k": 10}))["ok"]
server.coordinator.close()
assert "numpy" not in sys.modules, "served traffic imported numpy"

# One fleet_dense-like epoch: 28 FSAs in one component, above the cut-off.
rng = random.Random(0)
states = []
for object_id in range(28):
    centre = Point(rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0))
    fsa = Rectangle.from_center(centre, rng.uniform(20.0, 60.0))
    states.append(ObjectState(object_id, Point(900.0 - object_id, 950.0), 5, fsa.low, fsa.high, 10))
answers = {}
for kernel in ("columnar", "object"):
    coordinator = Coordinator(
        CoordinatorConfig(bounds=Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0)), window=40, kernel=kernel)
    )
    for state in states:
        coordinator.submit_state(state)
    answers[kernel] = repr(coordinator.run_epoch(10).responses)
    coordinator.close()
assert "numpy" in sys.modules, "the dense epoch did not reach numpy"
assert answers["columnar"] == answers["object"]
print("ok")
"""

#: The same stream on the process backend: the overlapping FSAs' pools are
#: shipped to workers, and the parent still never loads numpy.
_PROCESSES = _PAPER_SIZED + r"""
backend = paper_sized("processes").strategy.backend
assert backend.shipments > 0, "no pool was shipped to a worker"
assert "numpy" not in sys.modules, "the processes backend imported numpy"
print("ok")
"""


class TestNumpyStaysUnloaded:
    @staticmethod
    def run_fresh(script: str) -> None:
        source = Path(__file__).resolve().parent.parent / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "ok"

    def test_paper_sized_and_served_traffic_never_import_numpy(self):
        self.run_fresh(_FRESH_INTERPRETER)

    def test_paper_sized_traffic_on_the_processes_backend_never_imports_numpy(self):
        self.run_fresh(_PROCESSES)


def reference_choice(strategy: SinglePathStrategy, fsa: Rectangle, plan) -> tuple:
    """The per-state reference of a Case 2/3 choice: the first maximum of
    ``(hotness, not fabricated, x, y)`` over the end vertices a query of the
    live index finds, each with its summed hotness plus the count of the
    merged structure's smallest region containing it, and the merged
    structure's fabricated vertex — or the FSA's centre with hotness 0 when
    there is neither."""
    merged, hotness_of = plan.merged(), strategy._hotness.hotness
    candidates = []
    for vertex, path_ids in strategy._index.end_vertices_in(fsa).values():
        region = merged.smallest_region_containing(vertex)
        bonus = region.count if region is not None else 0
        candidates.append((vertex, sum(map(hotness_of, path_ids)) + bonus, False))
    fabricated = merged.candidate_vertex_for(fsa)
    if fabricated is not None:
        candidates.append((*fabricated, True))
    if not candidates:
        return (fsa.center, 0, True)
    return max(candidates, key=lambda choice: (choice[1], not choice[2], choice[0].x, choice[0].y))


class EpochPassChecker:
    """Wraps ``decide`` and ``_choose_vertex``: every Case 2/3 decision — off
    the epoch pass, off the live index for a lone FSA, or a lone FSA's
    centre, chosen without ranking when it holds no end vertex — must choose
    what the per-state query of the live index and the merged structure
    chooses: the same vertex (down to ``repr``), hotness and fabricated flag
    (an unranked centre: the reference must be that centre, fabricated, with
    count 1, and the response its vertex or the nudge away from the start).
    For a decision off the pass, the probe of the epoch's inserts must also
    find what a linear ``contains_point`` rescan of them finds.  Counts the
    cases the streams are built to reach."""

    def __init__(self, monkeypatch) -> None:
        self.compared = 0
        self.lone = 0
        self.unranked = 0
        self.inserts_seen = 0
        self.on_indexed_vertex = 0
        self.first_id = 0
        original = SinglePathStrategy._choose_vertex
        original_decide = SinglePathStrategy.decide
        original_epoch = SinglePathStrategy.process_epoch
        checker = self
        key = lambda choice: (repr(choice[0]), choice[1], choice[2])

        def epoch(strategy, states):
            checker.first_id = strategy._index._next_path_id
            return original_epoch(strategy, states)

        def decided(strategy, state, fsa, path, plan, prefetch=None, probe=None):
            if path:
                return original_decide(strategy, state, fsa, path, plan, prefetch, probe)
            expected = reference_choice(strategy, fsa, plan)
            ranked = checker.compared
            response, path_id = original_decide(
                strategy, state, fsa, path, plan, prefetch, probe
            )
            if checker.compared == ranked:
                assert prefetch is None
                assert key(expected) == (repr(fsa.center), 1, True)
                vertex, start = expected[0], state.start
                if vertex.x == start.x and vertex.y == start.y:
                    vertex = next(a for a in (fsa.center, fsa.high, fsa.low) if a != start)
                assert repr(response.endpoint) == repr(vertex)
                checker.lone += 1
                checker.unranked += 1
                checker.compared += 1
            return response, path_id

        def checked(strategy, fsa, plan, end_vertices, prefetch):
            if prefetch is None:
                checker.lone += 1
            else:
                # The epoch's inserts so far, rescanned from the index.
                rescanned = [
                    record
                    for path_id, record in strategy._index.by_id.items()
                    if path_id >= checker.first_id and fsa.contains_point(record.end)
                ]
                # ``end_vertices`` is the probe's read of them.
                assert sorted(
                    path_id for _vertex, ids in end_vertices.values() for path_id in ids
                ) == sorted(record.path_id for record in rescanned)
                for record in rescanned:
                    checker.inserts_seen += 1
                    end = record.end
                    if (end.x, end.y) in prefetch.end_vertices:
                        checker.on_indexed_vertex += 1
            chosen = original(strategy, fsa, plan, end_vertices, prefetch)
            expected = reference_choice(strategy, fsa, plan)
            assert key(chosen) == key(expected)
            checker.compared += 1
            return chosen

        monkeypatch.setattr(SinglePathStrategy, "process_epoch", epoch)
        monkeypatch.setattr(SinglePathStrategy, "decide", decided)
        monkeypatch.setattr(SinglePathStrategy, "_choose_vertex", checked)


class TestEpochPassDifferential:
    def test_crafted_stream_hits_every_merge_case(self, monkeypatch):
        checker = EpochPassChecker(monkeypatch)
        drive(DEFAULT, crafted_stream())
        assert checker.compared >= 8
        assert checker.lone >= 1  # a lone FSA, answered with its centre
        assert checker.inserts_seen >= 2  # an in-epoch insert inside a later FSA
        assert checker.on_indexed_vertex >= 1  # ... onto a vertex the pass had read

    @pytest.mark.parametrize("seed", [5, 31])
    def test_random_streams_with_duplicate_reporters(self, seed, monkeypatch):
        stream = synthetic_stream(seed=seed, epochs=6)
        assert any(
            len({state.object_id for state in states}) < len(states) for _b, states in stream
        )
        checker = EpochPassChecker(monkeypatch)
        drive(DEFAULT, stream)
        assert checker.compared > checker.lone >= 40
        # Lone FSAs both ranked off the live end table and answered unranked.
        assert checker.lone > checker.unranked > 0
        assert checker.inserts_seen > 0
        assert checker.on_indexed_vertex > 0

    def test_the_object_storage_runs_the_same_pass(self, monkeypatch):
        """The cell dicts answer the pass's end-vertex reads, and the lone
        decisions' live reads, as the end table does."""
        checker = EpochPassChecker(monkeypatch)
        drive(FleetConfig(kernel="object"), crafted_stream())
        assert checker.compared >= 8
        assert checker.lone >= 1
        assert checker.on_indexed_vertex >= 1
        drive(FleetConfig(kernel="object"), synthetic_stream(seed=5, epochs=6))
        assert checker.lone > checker.unranked > 0
