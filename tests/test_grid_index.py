"""Unit tests for :mod:`repro.coordinator.grid_index`."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.coordinator.columnar import HAVE_NUMPY
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
        first = index.insert(MotionPath(Point(10.0, 10.0), Point(20.0, 20.0)))
        second = index.insert(MotionPath(Point(30.0, 30.0), Point(40.0, 40.0)))
        assert first.path_id == 0
        assert second.path_id == 1
        assert len(index) == 2

    def test_contains_and_get(self, index):
        record = index.insert(MotionPath(Point(10.0, 10.0), Point(20.0, 20.0)))
        assert record.path_id in index
        assert index.get(record.path_id).path == record.path

    def test_get_missing_raises(self, index):
        with pytest.raises(CoordinatorError):
            index.get(99)

    def test_delete_removes_both_endpoints(self, index):
        record = index.insert(MotionPath(Point(10.0, 10.0), Point(500.0, 500.0)))
        index.delete(record.path_id)
        assert len(index) == 0
        assert record.path_id not in index
        everywhere = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
        assert index.paths_intersecting(everywhere) == []

    def test_delete_missing_raises(self, index):
        with pytest.raises(CoordinatorError):
            index.delete(5)

    def test_ids_not_reused_after_delete(self, index):
        first = index.insert(MotionPath(Point(10.0, 10.0), Point(20.0, 20.0)))
        index.delete(first.path_id)
        second = index.insert(MotionPath(Point(30.0, 30.0), Point(40.0, 40.0)))
        assert second.path_id != first.path_id

    def test_records_iteration(self, index):
        index.insert(MotionPath(Point(10.0, 10.0), Point(20.0, 20.0)))
        index.insert(MotionPath(Point(30.0, 30.0), Point(40.0, 40.0)))
        assert len(list(index.records)) == 2


class TestSameCellEndpoints:
    """Regressions for paths whose two endpoints share one grid cell.

    The former cell layout keyed entries by path id alone, so a same-cell
    path's start entry was overwritten by its end entry and the two-pass
    delete could drop the cell while re-deriving its key.  Entries are now
    keyed by ``(path_id, is_start)``; these tests pin the fixed behaviour.
    """

    def test_same_cell_path_keeps_both_entries(self, index):
        # 1000/16 = 62.5 per cell: both endpoints land in cell (0, 0).
        record = index.insert(MotionPath(Point(10.0, 10.0), Point(40.0, 40.0)))
        region = Rectangle(Point(0.0, 0.0), Point(20.0, 20.0))
        # The region covers only the start; the path must still be found via
        # its start entry (lost entirely before the fix).
        assert [r.path_id for r in index.paths_intersecting(region)] == [record.path_id]

    def test_same_cell_path_deletes_cleanly(self, index):
        record = index.insert(MotionPath(Point(10.0, 10.0), Point(40.0, 40.0)))
        index.delete(record.path_id)
        assert len(index) == 0
        assert index._table._cells == {}

    def test_same_cell_delete_keeps_neighbours(self, index):
        doomed = index.insert(MotionPath(Point(10.0, 10.0), Point(40.0, 40.0)))
        kept = index.insert(MotionPath(Point(20.0, 20.0), Point(30.0, 30.0)))
        index.delete(doomed.path_id)
        everywhere = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
        assert [r.path_id for r in index.paths_intersecting(everywhere)] == [kept.path_id]
        assert index.paths_starting_at(Point(20.0, 20.0), everywhere)[0].path_id == kept.path_id

    def test_clamped_endpoints_share_border_cell_and_delete(self, index):
        # Both endpoints are outside the bounds and clamp into the same
        # top-right border cell; insert, query and delete must all agree.
        record = index.insert(MotionPath(Point(1100.0, 1100.0), Point(1500.0, 1200.0)))
        region = Rectangle(Point(990.0, 990.0), Point(2000.0, 2000.0))
        assert [r.path_id for r in index.paths_intersecting(region)] == [record.path_id]
        assert (1500.0, 1200.0) in index.end_vertices_in(region)
        index.delete(record.path_id)
        assert len(index) == 0
        assert index._table._cells == {}

    def test_zero_length_path_round_trips(self, index):
        point = Point(10.0, 10.0)
        record = index.insert(MotionPath(point, point))
        everywhere = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
        assert [r.path_id for r in index.paths_starting_at(point, everywhere)] == [record.path_id]
        assert index.path_between(point, point) is record
        index.delete(record.path_id)
        assert index._table._cells == {}


class TestQueries:
    def test_paths_from_into_matches_start_and_region(self, index):
        """Paths from ``start`` into ``region`` (``paths_starting_at``), and
        the exact ``(start, end)`` probe of an insert (``path_between``)."""
        start = Point(100.0, 100.0)
        match = index.insert(MotionPath(start, Point(200.0, 200.0)))
        index.insert(MotionPath(Point(101.0, 100.0), Point(200.0, 201.0)))  # wrong start
        index.insert(MotionPath(start, Point(900.0, 900.0)))  # end outside region
        region = Rectangle(Point(150.0, 150.0), Point(250.0, 250.0))
        results = index.paths_starting_at(start, region)
        assert [record.path_id for record in results] == [match.path_id]
        assert index.path_between(start, Point(200.0, 200.0)) is match
        assert index.path_between(start, Point(200.0, 201.0)) is None
        assert index.path_between(Point(101.0, 100.0), Point(200.0, 200.0)) is None

    def test_paths_from_into_empty_region(self, index):
        index.insert(MotionPath(Point(100.0, 100.0), Point(200.0, 200.0)))
        region = Rectangle(Point(800.0, 800.0), Point(900.0, 900.0))
        assert index.paths_starting_at(Point(100.0, 100.0), region) == []

    def test_end_vertices_in_groups_by_vertex(self, index):
        shared_end = Point(300.0, 300.0)
        a = index.insert(MotionPath(Point(100.0, 100.0), shared_end))
        b = index.insert(MotionPath(Point(200.0, 100.0), shared_end))
        c = index.insert(MotionPath(Point(100.0, 200.0), Point(310.0, 310.0)))
        region = Rectangle(Point(290.0, 290.0), Point(320.0, 320.0))
        vertices = index.end_vertices_in(region)
        assert vertices[(300.0, 300.0)][0] is shared_end
        assert set(vertices[(300.0, 300.0)][1]) == {a.path_id, b.path_id}
        assert vertices[(310.0, 310.0)] == (Point(310.0, 310.0), [c.path_id])

    def test_end_vertices_excludes_start_points(self, index):
        index.insert(MotionPath(Point(300.0, 300.0), Point(700.0, 700.0)))
        region = Rectangle(Point(290.0, 290.0), Point(310.0, 310.0))
        assert index.end_vertices_in(region) == {}

    def test_paths_intersecting_deduplicates(self, index):
        record = index.insert(MotionPath(Point(100.0, 100.0), Point(110.0, 110.0)))
        region = Rectangle(Point(90.0, 90.0), Point(120.0, 120.0))
        results = index.paths_intersecting(region)
        assert [r.path_id for r in results] == [record.path_id]

    @pytest.mark.skipif(not HAVE_NUMPY, reason="the columnar kernel needs numpy")
    def test_paths_intersecting_needs_the_object_kernel(self, unit_bounds):
        """The DP baseline's query: a columnar index refuses it instead of answering empty."""
        columnar = GridIndex(GridConfig(unit_bounds, cells_per_axis=16), kernel="columnar")
        columnar.insert(MotionPath(Point(100.0, 100.0), Point(110.0, 110.0)))
        with pytest.raises(CoordinatorError):
            columnar.paths_intersecting(Rectangle(Point(90.0, 90.0), Point(120.0, 120.0)))

    def test_points_outside_bounds_are_clamped_into_border_cells(self, index):
        # Endpoint beyond the nominal bounds must still be indexed and findable.
        record = index.insert(MotionPath(Point(500.0, 500.0), Point(1500.0, 1500.0)))
        region = Rectangle(Point(990.0, 990.0), Point(2000.0, 2000.0))
        results = index.paths_intersecting(region)
        assert [r.path_id for r in results] == [record.path_id]

    def test_query_spanning_many_cells(self, index):
        inserted = [
            index.insert(MotionPath(Point(50.0 * i, 50.0 * i), Point(50.0 * i + 10, 50.0 * i + 10)))
            for i in range(1, 10)
        ]
        region = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
        results = index.paths_intersecting(region)
        assert len(results) == len(inserted)
