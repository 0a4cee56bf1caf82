"""Unit tests for :mod:`repro.coordinator.grid_index`."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.grid_index import GridConfig, GridIndex


@pytest.fixture()
def index(unit_bounds) -> GridIndex:
    return GridIndex(GridConfig(unit_bounds, cells_per_axis=16))


class TestGridConfig:
    def test_invalid_cells(self, unit_bounds):
        with pytest.raises(ConfigurationError):
            GridConfig(unit_bounds, cells_per_axis=0)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            GridConfig(Rectangle.degenerate(Point(0.0, 0.0)))


class TestInsertionAndDeletion:
    def test_insert_assigns_sequential_ids(self, index):
        first = index.insert(Point(10.0, 10.0), Point(20.0, 20.0))
        second = index.insert(Point(30.0, 30.0), Point(40.0, 40.0))
        assert first.path_id == 0
        assert second.path_id == 1
        assert len(index) == 2

    def test_contains_and_get(self, index):
        record = index.insert(Point(10.0, 10.0), Point(20.0, 20.0))
        assert record.path_id in index
        assert index.get(record.path_id) == record

    def test_get_missing_raises(self, index):
        with pytest.raises(CoordinatorError):
            index.get(99)

    def test_delete_removes_both_endpoints(self, index):
        record = index.insert(Point(10.0, 10.0), Point(500.0, 500.0))
        index.delete(record.path_id)
        assert len(index) == 0
        assert record.path_id not in index
        everywhere = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
        assert index.end_vertices_in(everywhere) == {}
        assert index.starting_at(Point(10.0, 10.0), everywhere) == []

    def test_delete_missing_raises(self, index):
        with pytest.raises(CoordinatorError):
            index.delete(5)

    def test_ids_not_reused_after_delete(self, index):
        first = index.insert(Point(10.0, 10.0), Point(20.0, 20.0))
        index.delete(first.path_id)
        second = index.insert(Point(30.0, 30.0), Point(40.0, 40.0))
        assert second.path_id != first.path_id

    def test_records_iteration(self, index):
        index.insert(Point(10.0, 10.0), Point(20.0, 20.0))
        index.insert(Point(30.0, 30.0), Point(40.0, 40.0))
        assert len(list(index.records)) == 2


class TestTheStoredPath:
    """``insert`` builds one frozen :class:`MotionPath` per stored path,
    carrying its id and creation time, and every read hands out that object."""

    def test_every_read_hands_out_the_object_insert_returned(self, index):
        start, end = Point(10.0, 10.0), Point(20.0, 20.0)
        path = index.insert(start, end, created_at=7)
        assert path.start is start and path.end is end
        assert (path.path_id, path.created_at) == (0, 7)
        assert index.get(0) is path
        assert index.by_id[0] is path
        assert [stored is path for stored in index.records] == [True]

    def test_hot_paths_hand_out_the_stored_objects(self, unit_bounds):
        coordinator = Coordinator(CoordinatorConfig(bounds=unit_bounds, window=50))
        paths = [
            coordinator.index.insert(Point(10.0, 10.0), Point(20.0, 20.0), created_at=3),
            coordinator.index.insert(Point(30.0, 30.0), Point(40.0, 40.0), created_at=4),
        ]
        for path in paths:
            coordinator.hotness.record_crossing(path.path_id, 5)
        hot = sorted(coordinator.hot_paths(), key=lambda item: item[0].path_id)
        assert [(stored is path, hotness) for (stored, hotness), path in zip(hot, paths)] == [
            (True, 1),
            (True, 1),
        ]

    def test_the_id_and_creation_time_cannot_be_assigned(self, index):
        path = index.insert(Point(10.0, 10.0), Point(20.0, 20.0), created_at=7)
        for attribute in ("path_id", "created_at"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(path, attribute, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(path, attribute)
        assert (path.path_id, path.created_at) == (0, 7)

    def test_repr_equality_and_hash_are_those_of_the_unstored_path(self, index):
        index.insert(Point(0.0, 0.0), Point(1.0, 1.0))
        start, end = Point(-0.0, 2), Point(3.0, 6.0)
        stored = index.insert(start, end, created_at=9)
        unstored = MotionPath(start, end)
        assert stored.path_id == 1
        assert repr(stored) == repr(unstored) == (
            "MotionPath(start=Point(x=-0.0, y=2), end=Point(x=3.0, y=6.0))"
        )
        assert stored == unstored and not stored != unstored
        assert hash(stored) == hash(unstored) == hash((start, end))
        assert stored.length == unstored.length == 5.0


class TestSameCellEndpoints:
    """Regressions for paths whose two endpoints share one grid cell.

    The former cell layout keyed entries by path id alone, so a same-cell
    path's start entry was overwritten by its end entry and the two-pass
    delete could drop the cell while re-deriving its key.  Entries are now
    keyed by ``(path_id, is_start)``; these tests pin the fixed behaviour.
    """

    def test_same_cell_path_keeps_both_entries(self, index):
        # 1000/16 = 62.5 per cell: both endpoints land in cell (0, 0).
        record = index.insert(Point(10.0, 10.0), Point(40.0, 40.0))
        region = Rectangle(Point(30.0, 30.0), Point(50.0, 50.0))
        # ``starting_at`` reads the start entry, lost entirely before the fix;
        # ``end_vertices_in`` reads the end entry beside it.
        assert index.starting_at(Point(10.0, 10.0), region) == [record.path_id]
        assert index.end_vertices_in(region) == {(40.0, 40.0): (Point(40.0, 40.0), [record.path_id])}

    def test_same_cell_path_deletes_cleanly(self, index):
        record = index.insert(Point(10.0, 10.0), Point(40.0, 40.0))
        index.delete(record.path_id)
        assert len(index) == 0
        assert index._table._cells == {}

    def test_same_cell_delete_keeps_neighbours(self, index):
        doomed = index.insert(Point(10.0, 10.0), Point(40.0, 40.0))
        kept = index.insert(Point(20.0, 20.0), Point(30.0, 30.0))
        index.delete(doomed.path_id)
        everywhere = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
        assert index.end_vertices_in(everywhere) == {(30.0, 30.0): (Point(30.0, 30.0), [kept.path_id])}
        assert index.starting_at(Point(20.0, 20.0), everywhere) == [kept.path_id]

    def test_clamped_endpoints_share_border_cell_and_delete(self, index):
        # Both endpoints are outside the bounds and clamp into the same
        # top-right border cell; insert, query and delete must all agree.
        record = index.insert(Point(1100.0, 1100.0), Point(1500.0, 1200.0))
        region = Rectangle(Point(990.0, 990.0), Point(2000.0, 2000.0))
        assert index.starting_at(Point(1100.0, 1100.0), region) == [record.path_id]
        assert (1500.0, 1200.0) in index.end_vertices_in(region)
        index.delete(record.path_id)
        assert len(index) == 0
        assert index._table._cells == {}

    def test_zero_length_path_round_trips(self, index):
        point = Point(10.0, 10.0)
        record = index.insert(point, point)
        everywhere = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
        assert index.starting_at(point, everywhere) == [record.path_id]
        assert index.path_between(point, point) == record.path_id
        index.delete(record.path_id)
        assert index._table._cells == {}


class TestQueries:
    def test_paths_from_into_matches_start_and_region(self, index):
        """Paths from ``start`` into ``region`` (``starting_at``), and
        the exact ``(start, end)`` probe of an insert (``path_between``)."""
        start = Point(100.0, 100.0)
        match = index.insert(start, Point(200.0, 200.0))
        index.insert(Point(101.0, 100.0), Point(200.0, 201.0))  # wrong start
        index.insert(start, Point(900.0, 900.0))  # end outside region
        region = Rectangle(Point(150.0, 150.0), Point(250.0, 250.0))
        assert index.starting_at(start, region) == [match.path_id]
        assert index.path_between(start, Point(200.0, 200.0)) == match.path_id
        assert index.path_between(start, Point(200.0, 201.0)) is None
        assert index.path_between(Point(101.0, 100.0), Point(200.0, 200.0)) is None

    def test_paths_from_into_empty_region(self, index):
        index.insert(Point(100.0, 100.0), Point(200.0, 200.0))
        region = Rectangle(Point(800.0, 800.0), Point(900.0, 900.0))
        assert index.starting_at(Point(100.0, 100.0), region) == []

    def test_end_vertices_in_groups_by_vertex(self, index):
        shared_end = Point(300.0, 300.0)
        a = index.insert(Point(100.0, 100.0), shared_end)
        b = index.insert(Point(200.0, 100.0), shared_end)
        c = index.insert(Point(100.0, 200.0), Point(310.0, 310.0))
        region = Rectangle(Point(290.0, 290.0), Point(320.0, 320.0))
        vertices = index.end_vertices_in(region)
        assert vertices[(300.0, 300.0)][0] is shared_end
        assert set(vertices[(300.0, 300.0)][1]) == {a.path_id, b.path_id}
        assert vertices[(310.0, 310.0)] == (Point(310.0, 310.0), [c.path_id])

    def test_end_vertices_excludes_start_points(self, index):
        index.insert(Point(300.0, 300.0), Point(700.0, 700.0))
        region = Rectangle(Point(290.0, 290.0), Point(310.0, 310.0))
        assert index.end_vertices_in(region) == {}

    def test_points_outside_bounds_are_clamped_into_border_cells(self, index):
        # Endpoint beyond the nominal bounds must still be indexed and findable.
        record = index.insert(Point(500.0, 500.0), Point(1500.0, 1500.0))
        region = Rectangle(Point(990.0, 990.0), Point(2000.0, 2000.0))
        assert index.end_vertices_in(region) == {(1500.0, 1500.0): (Point(1500.0, 1500.0), [record.path_id])}

    def test_query_spanning_many_cells(self, index):
        inserted = [
            index.insert(Point(50.0 * i, 50.0 * i), Point(50.0 * i + 10, 50.0 * i + 10))
            for i in range(1, 10)
        ]
        region = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
        vertices = index.end_vertices_in(region)
        assert sorted(ids for _vertex, ids in vertices.values()) == [[r.path_id] for r in inserted]
