"""Every shard count runs the coordinator's one index; shards are a label.

Three layers:

* :class:`TestWorkCounts` — exact counts, no clocks: a coordinator of any
  shard count constructs one :class:`GridIndex` and one
  :class:`HotnessTracker`, an epoch never consults the shard grid, and the
  ``processes`` backend builds a 1-shard epoch's overlap components off the
  parent (the exactness harness holds its answers to the reference's);
* :class:`TestOwnershipDifferential` — a hypothesis differential of the
  on-demand diagnostics (``shard_statistics()`` and the ``boundary_welds``
  of ``stitch_stats``) against a from-scratch recount over the record list
  (the start owner and the end owner of every path), on points exactly on
  shard cuts, outside the bounds and at ``-0.0``, for 1x1, 1xN, 2x3 and 4x4
  grids;
* :class:`TestOwnerLabels` — properties of the labels themselves on 1x3,
  2x3, 1x7 and 4x4 grids: every record carries exactly one label, the owner
  of its start vertex; both endpoint entries are found in the one index
  whatever the shard count; straddling paths are the records whose end has
  another owner; every boundary weld follows a straddling fragment;
  deleting every record empties the diagnostics; and a density-skewed stream
  piles its records onto a few labels.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, Iterator, List, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.client.state import ObjectState
from repro.coordinator.columnar import HAVE_NUMPY
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.execution import ProcessBackend
from repro.coordinator.grid_index import GridIndex
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.partition import ShardGrid, shard_layout

from differential import SCENARIO, drive, synthetic_stream

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


def make_coordinator(num_shards: int, **fleet) -> Coordinator:
    return Coordinator(
        CoordinatorConfig(bounds=BOUNDS, window=60, cells_per_axis=16, num_shards=num_shards, **fleet)
    )


def dense_epochs(seed: int, epochs: int, states_per_epoch: int = 28) -> Iterator[Tuple[int, List[ObjectState]]]:
    """Fresh reporters with large FSAs every epoch, one start per cell of a
    jittered lattice (the shape of the benchmark's ``fleet_dense`` stream)."""
    rng = random.Random(seed)
    columns = rows = 6
    cells = [(column, row) for row in range(rows) for column in range(columns)]
    for epoch in range(1, epochs + 1):
        now = epoch * 10
        states = []
        placed = rng.sample(cells, states_per_epoch)
        for object_id, (column, row) in zip(rng.sample(range(84), states_per_epoch), placed):
            start = Point((column + rng.random()) * 1000.0 / columns, (row + rng.random()) * 1000.0 / rows)
            half = rng.uniform(60.0, 150.0)
            centre = Point(
                min(max(start.x + rng.uniform(-120.0, 120.0), half), 1000.0 - half),
                min(max(start.y + rng.uniform(-120.0, 120.0), half), 1000.0 - half),
            )
            fsa = Rectangle.from_center(centre, half)
            states.append(ObjectState(object_id, start, now - 5, fsa.low, fsa.high, now))
        yield now, states


def counting(monkeypatch, owner, name: str, calls: Counter) -> None:
    """Count calls of ``owner.name`` under the key ``Owner.name``."""
    original = getattr(owner, name)
    key = f"{owner.__name__}.{name}"

    def counted(*args, **kwargs):
        calls[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestWorkCounts:
    @pytest.mark.parametrize("num_shards", [1, 4, 16])
    def test_any_shard_count_builds_one_index_and_one_tracker(self, num_shards, monkeypatch):
        calls: Counter = Counter()
        counting(monkeypatch, GridIndex, "__init__", calls)
        counting(monkeypatch, HotnessTracker, "__init__", calls)
        make_coordinator(num_shards).close()
        assert calls == {"GridIndex.__init__": 1, "HotnessTracker.__init__": 1}

    @pytest.mark.parametrize("epoch_mode", ["delta", "full"])
    def test_an_epoch_never_consults_the_shard_grid(self, epoch_mode, monkeypatch):
        """No owner lookup per insert, delete, probe or hotness read: the
        grid is read only by the diagnostics."""
        coordinator = make_coordinator(16, epoch_mode=epoch_mode)
        calls: Counter = Counter()
        counting(monkeypatch, ShardGrid, "shard_id_of", calls)
        counting(monkeypatch, ShardGrid, "cell_of", calls)
        inserted = expired = 0
        try:
            for now, states in dense_epochs(seed=11, epochs=12):
                for state in states:
                    coordinator.submit_state(state)
                outcome = coordinator.run_epoch(now)
                inserted += outcome.paths_inserted
                expired += outcome.paths_expired
                coordinator.top_k(10)
                coordinator.top_k_corridors(10)
        finally:
            coordinator.close()
        assert inserted and expired  # inserts, deletes and queries all ran
        assert calls == {}
        # The diagnostics are where the labels are read: two per record.
        records = coordinator.index_size()
        coordinator.shard_statistics()
        assert calls["ShardGrid.shard_id_of"] == 2 * records

    @pytest.mark.skipif(not HAVE_NUMPY, reason="the default columnar kernel needs numpy")
    def test_one_shard_processes_ships_a_two_fsa_component(self, monkeypatch):
        sent: List[tuple] = []
        send = ProcessBackend._send

        def recorded(backend, worker, message):
            sent.append(message)
            return send(backend, worker, message)

        monkeypatch.setattr(ProcessBackend, "_send", recorded)
        # Two overlapping reporters (one 2-FSA component) and a far one.
        states = [
            ObjectState(1, Point(400.0, 400.0), 0, Point(370.0, 370.0), Point(430.0, 430.0), 5),
            ObjectState(2, Point(420.0, 400.0), 0, Point(390.0, 370.0), Point(450.0, 430.0), 5),
            ObjectState(3, Point(900.0, 100.0), 0, Point(880.0, 80.0), Point(920.0, 120.0), 5),
        ]
        coordinator = make_coordinator(1, backend="processes")
        try:
            for state in states:
                coordinator.submit_state(state)
            coordinator.run_epoch(10)
        finally:
            coordinator.close()
        assert len(sent) >= 1 and all(message[0].startswith("work") for message in sent)


# ---------------------------------------------------------------------------
# The ownership diagnostics against a from-scratch recount
# ---------------------------------------------------------------------------

#: 1x1, 1x3 and 1x5 stripes, 2x3, 4x4.
SHARD_COUNTS = (1, 3, 5, 6, 16)

#: The cuts of every layout above (thirds, fifths, halves, quarters), points
#: outside the bounds, and both signed zeros.
coordinates = st.sampled_from(
    [-50.0, -0.0, 0.0, 1000.0 / 3, 2000.0 / 3, 200.0, 400.0, 600.0, 800.0,
     250.0, 499.99, 500.0, 750.0, 1000.0, 1100.0, 123.4]
)
points = st.builds(Point, coordinates, coordinates)
#: Chains of vertices: consecutive pairs become paths that weld end-to-start.
chains = st.lists(st.lists(points, min_size=2, max_size=5), min_size=1, max_size=6)


def reference_statistics(coordinator: Coordinator, grid: ShardGrid) -> Dict[str, object]:
    """The shard-label statistics recounted from the record list."""
    start_owners = Counter()
    straddling = 0
    for record in coordinator.index.records:
        start_owner = grid.shard_id_of(record.path.start)
        start_owners[start_owner] += 1
        straddling += grid.shard_id_of(record.path.end) != start_owner
    sizes = [start_owners[shard_id] for shard_id in range(grid.num_shards)]
    total = sum(sizes)
    return {
        "num_shards": grid.num_shards,
        "total_records": total,
        "max_shard_records": max(sizes),
        "min_shard_records": min(sizes),
        "mean_shard_records": total / grid.num_shards,
        "imbalance": max(sizes) / (total / grid.num_shards) if total else 1.0,
        "straddling_paths": straddling,
    }


def reference_boundary_welds(corridors, grid: ShardGrid) -> int:
    return sum(
        grid.shard_id_of(left.path.start) != grid.shard_id_of(right.path.start)
        for corridor in corridors
        for left, right in zip(corridor.segments, corridor.segments[1:])
    )


class TestOwnershipDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        num_shards=st.sampled_from(SHARD_COUNTS),
        epoch_mode=st.sampled_from(["delta", "full"]),
        vertex_chains=chains,
        cold_every=st.integers(min_value=2, max_value=5),
    )
    @example(
        num_shards=16,
        epoch_mode="delta",
        vertex_chains=[[Point(-0.0, 250.0), Point(250.0, 250.0), Point(1100.0, -50.0)]],
        cold_every=5,
    )
    def test_on_demand_diagnostics_equal_a_recount(
        self, num_shards, epoch_mode, vertex_chains, cold_every
    ):
        coordinator = make_coordinator(num_shards, epoch_mode=epoch_mode)
        grid = ShardGrid(BOUNDS, *shard_layout(num_shards))
        inserted = 0
        for chain in vertex_chains:
            for start, end in zip(chain, chain[1:]):
                record = coordinator.index.insert(MotionPath(start, end), created_at=0)
                inserted += 1
                if inserted % cold_every:  # every few records stay cold
                    coordinator.hotness.record_crossing(record.path_id, 0)
        statistics = coordinator.shard_statistics()
        expected = reference_statistics(coordinator, grid)
        assert {key: statistics[key] for key in expected} == expected
        for key, value in expected.items():
            assert type(statistics[key]) is type(value), key
        corridors = coordinator.hot_corridors()
        stats = coordinator.router.stitch_stats
        assert stats["boundary_welds"] == reference_boundary_welds(corridors, grid)
        assert stats["corridors"] == len(corridors)


# ---------------------------------------------------------------------------
# Properties of the labels
# ---------------------------------------------------------------------------

#: 1x3 and 1x7 column stripes, 2x3 and 4x4.
LABEL_SHARD_COUNTS = (3, 6, 7, 16)

#: Endpoints on the 4x4 and 2x3 cuts (multiples of 250, thirds), the 1x7
#: stripe cuts (sevenths), and outside the bounds, so paths routinely
#: straddle shards and clamp into border shards.
label_coordinates = st.sampled_from(
    [-60.0, 0.0, 100.0, 1000.0 / 7, 249.9, 250.0, 1000.0 / 3, 3000.0 / 7, 500.0, 501.0,
     625.0, 2000.0 / 3, 750.0, 999.0, 1000.0, 1080.0]
)
label_points = st.builds(Point, label_coordinates, label_coordinates)
label_paths = st.lists(st.builds(MotionPath, label_points, label_points), min_size=1, max_size=25)
label_chains = st.lists(st.lists(label_points, min_size=2, max_size=5), min_size=1, max_size=6)


class TestOwnerLabels:
    @pytest.mark.parametrize("num_shards", LABEL_SHARD_COUNTS)
    @settings(max_examples=150, deadline=None)
    @given(paths=label_paths)
    def test_every_path_lands_on_exactly_one_owner(self, paths: List[MotionPath], num_shards):
        coordinator = make_coordinator(num_shards)
        router = coordinator.router
        records = [coordinator.index.insert(path) for path in paths]
        owners = Counter()
        for record in records:
            owner = router.owner_of(record.path_id)
            assert owner == router.grid.shard_id_of(record.path.start)
            assert 0 <= owner < num_shards
            owners[owner] += 1
        # The labels partition the records: no duplication, no loss.
        assert sum(owners.values()) == len(records)
        statistics = coordinator.shard_statistics()
        assert statistics["total_records"] == len(records)
        assert statistics["max_shard_records"] == max(owners.values())
        expected_min = min(owners.values()) if len(owners) == num_shards else 0
        assert statistics["min_shard_records"] == expected_min

    @pytest.mark.parametrize("num_shards", LABEL_SHARD_COUNTS)
    @settings(max_examples=150, deadline=None)
    @given(paths=label_paths)
    def test_endpoint_entries_live_in_the_one_index(self, paths, num_shards):
        coordinator = make_coordinator(num_shards)
        assert coordinator.router.index is coordinator.index
        records = [coordinator.index.insert(path) for path in paths]
        for record in records:
            start, end = record.path.start, record.path.end
            starting = coordinator.index.paths_starting_at(start, Rectangle.degenerate(end))
            assert any(r.path_id == record.path_id for r in starting)
            ends = coordinator.index.end_vertices_in(Rectangle.degenerate(end))
            assert record.path_id in ends.get((end.x, end.y), (end, []))[1]

    @pytest.mark.parametrize("num_shards", LABEL_SHARD_COUNTS)
    @settings(max_examples=150, deadline=None)
    @given(paths=label_paths)
    def test_straddling_count_matches_geometry(self, paths, num_shards):
        coordinator = make_coordinator(num_shards)
        grid = coordinator.router.grid
        records = [coordinator.index.insert(path) for path in paths]
        straddling = sum(
            grid.shard_id_of(record.path.start) != grid.shard_id_of(record.path.end)
            for record in records
        )
        assert coordinator.shard_statistics()["straddling_paths"] == straddling

    @pytest.mark.parametrize("num_shards", LABEL_SHARD_COUNTS)
    @settings(max_examples=100, deadline=None)
    @given(vertex_chains=label_chains)
    @example(vertex_chains=[[Point(100.0, 100.0), Point(900.0, 100.0), Point(900.0, 900.0)]])
    def test_every_boundary_weld_follows_a_straddling_path(self, vertex_chains, num_shards):
        """A weld joins ``left``'s end to ``right``'s start, so its two labels
        differ exactly when ``left`` straddles."""
        coordinator = make_coordinator(num_shards)
        grid = coordinator.router.grid
        for chain in vertex_chains:
            for start, end in zip(chain, chain[1:]):
                record = coordinator.index.insert(MotionPath(start, end), created_at=0)
                coordinator.hotness.record_crossing(record.path_id, 0)
        corridors = coordinator.hot_corridors()
        straddling_welds = 0
        for corridor in corridors:
            for left, right in zip(corridor.segments, corridor.segments[1:]):
                assert left.path.end == right.path.start
                straddling_welds += grid.shard_id_of(left.path.start) != grid.shard_id_of(left.path.end)
        assert coordinator.router.stitch_stats["boundary_welds"] == straddling_welds

    @pytest.mark.parametrize("num_shards", LABEL_SHARD_COUNTS)
    @settings(max_examples=100, deadline=None)
    @given(paths=label_paths)
    def test_delete_empties_the_diagnostics(self, paths, num_shards):
        coordinator = make_coordinator(num_shards)
        records = [coordinator.index.insert(path) for path in paths]
        for record in records:
            coordinator.index.delete(record.path_id)
        statistics = coordinator.shard_statistics()
        assert statistics["total_records"] == statistics["max_shard_records"] == 0
        assert statistics["straddling_paths"] == 0
        assert statistics["imbalance"] == 1.0
        assert len(coordinator.index) == 0

    def test_a_skewed_stream_piles_onto_a_few_labels(self):
        """The downtown stream on a 4x4 grid: the busiest label holds more
        than ten times the mean (what runs never reads the labels)."""
        run = drive(FleetConfig(num_shards=16), synthetic_stream(42, downtown=0.8))
        assert run.coordinator.shard_statistics()["imbalance"] > 10.0

    def test_a_simulation_spreads_over_the_labels(self):
        """The harness's simulation on a 4x4 grid: no one label holds every
        record."""
        run = SCENARIO["simulation"].run(FleetConfig(num_shards=16))
        statistics = run.coordinator.shard_statistics()
        assert statistics["num_shards"] == 16
        assert 0 < statistics["max_shard_records"] < statistics["total_records"]
