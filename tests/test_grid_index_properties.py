"""Property-based tests for :mod:`repro.coordinator.grid_index`.

Random insert/delete/query sequences run against a brute-force reference
index (a flat list of records with exact-geometry predicates).  Coordinates
are drawn from a small pool spanning inside, on-the-border and outside the
grid bounds, so the sequences routinely produce duplicate endpoints, paths
with both endpoints in one cell and points clamped into border cells — the
configurations behind historical delete bugs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.coordinator.columnar import KERNELS
from repro.coordinator.grid_index import CellTable, GridConfig, GridIndex
from repro.coordinator.partition import ShardGrid

BOUNDS = Rectangle(Point(0.0, 0.0), Point(100.0, 100.0))

# Deliberately coarse coordinate pool: values collide (duplicate endpoints),
# sit exactly on cell borders (12.5 with 8 cells per axis) and fall outside
# the bounds (clamped into border cells).
coordinate_pool = st.sampled_from(
    [-30.0, -1.0, 0.0, 3.0, 12.5, 25.0, 49.9, 50.0, 62.5, 99.0, 100.0, 130.0]
)
pool_points = st.builds(Point, coordinate_pool, coordinate_pool)


@st.composite
def regions(draw) -> Rectangle:
    """Query rectangles: degenerate, empty-region and cross-border shapes."""
    a = draw(pool_points)
    b = draw(pool_points)
    return Rectangle.bounding(a, b)


@st.composite
def operations(draw) -> List[Tuple[str, object]]:
    """A random op sequence: (insert path) | (delete nth live path)."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        if live and draw(st.booleans()) and draw(st.booleans()):
            ops.append(("delete", draw(st.integers(min_value=0, max_value=live - 1))))
            live -= 1
        else:
            ops.append(("insert", MotionPath(draw(pool_points), draw(pool_points))))
            live += 1
    return ops


class ReferenceIndex:
    """Brute-force reference: a list of records, exact geometry everywhere."""

    def __init__(self) -> None:
        self.records: Dict[int, MotionPathRecord] = {}

    def insert(self, record: MotionPathRecord) -> None:
        self.records[record.path_id] = record

    def delete(self, path_id: int) -> None:
        del self.records[path_id]

    def paths_from_into(self, start: Point, region: Rectangle) -> List[int]:
        return sorted(
            r.path_id
            for r in self.records.values()
            if r.path.start == start and region.contains_point(r.path.end)
        )

    def path_between(self, start: Point, end: Point) -> Optional[int]:
        """The earliest-inserted live path from ``start`` to exactly ``end``."""
        return min(
            (
                r.path_id
                for r in self.records.values()
                if r.path.start == start and r.path.end == end
            ),
            default=None,
        )

    def end_vertices_in(self, region: Rectangle) -> Dict[Tuple[float, float], Tuple[str, List[int]]]:
        """``(x, y) -> (repr of the earliest live end there, sorted ids)``."""
        vertices: Dict[Tuple[float, float], Tuple[Point, List[int]]] = {}
        for r in self.records.values():
            if region.contains_point(r.path.end):
                vertices.setdefault(r.path.end.as_tuple(), (r.path.end, []))[1].append(r.path_id)
        return {key: (repr(end), sorted(ids)) for key, (end, ids) in vertices.items()}


def assert_empty_cells(index: GridIndex) -> None:
    """No stale entry may survive in the index's endpoint table, whichever
    the kernel picked."""
    table = index._table
    if isinstance(table, CellTable):
        assert table._cells == {}
    else:
        assert table._by_start == table._after == table._end_of == {}
        assert table._xs == table._ys == table._ends == table._pids == []


def build_both(ops, kernel: str = "object") -> Tuple[GridIndex, ReferenceIndex]:
    index = GridIndex(GridConfig(BOUNDS, cells_per_axis=8), kernel=kernel)
    reference = ReferenceIndex()
    live: List[int] = []
    for op, payload in ops:
        if op == "insert":
            record = index.insert(payload)
            reference.insert(record)
            live.append(record.path_id)
        else:
            path_id = live.pop(payload)
            index.delete(path_id)
            reference.delete(path_id)
    return index, reference


class TestAgainstReference:
    kernel = "object"

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.differing_executors])
    @given(operations())
    def test_membership_and_size(self, ops):
        index, reference = build_both(ops, self.kernel)
        assert len(index) == len(reference.records)
        for path_id, record in reference.records.items():
            assert path_id in index
            assert index.get(path_id).path == record.path

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.differing_executors])
    @given(operations(), pool_points, regions())
    def test_paths_from_into_matches_reference(self, ops, start, region):
        """The paths from ``start`` into ``region``, probed one exact end at a
        time through ``path_between``: each probe returns the earliest live
        path from ``start`` to that end, or ``None``."""
        index, reference = build_both(ops, self.kernel)
        ends = {r.path.end for r in reference.records.values() if region.contains_point(r.path.end)}
        for end in ends | {start}:
            assert index.path_between(start, end) == reference.path_between(start, end)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.differing_executors])
    @given(operations(), pool_points, regions())
    def test_starting_at_matches_paths_from_into(self, ops, start, region):
        index, reference = build_both(ops, self.kernel)
        by_start_cell = sorted(index.starting_at(start, region))
        assert by_start_cell == reference.paths_from_into(start, region)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.differing_executors])
    @given(operations(), regions())
    def test_end_vertices_matches_reference(self, ops, region):
        index, reference = build_both(ops, self.kernel)
        result = {
            key: (repr(vertex), sorted(ids))
            for key, (vertex, ids) in index.end_vertices_in(region).items()
        }
        assert result == reference.end_vertices_in(region)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.differing_executors])
    @given(operations())
    def test_deleting_everything_empties_the_cells(self, ops):
        index, reference = build_both(ops, self.kernel)
        for path_id in list(reference.records):
            index.delete(path_id)
        assert len(index) == 0
        assert_empty_cells(index)


class TestAgainstReferenceColumnar(TestAgainstReference):
    """The reference suite again, over the index-wide endpoint table."""

    kernel = "columnar"


# Cell widths that are not exactly representable in binary (100/cells), so
# repeated accumulation ``low + k * width`` and the division in ``clamped_cell``
# disagree in the last ulp — the configurations behind max-edge mapping bugs.
ODD_CELL_COUNTS = (3, 7, 8, 13)
KERNEL_AND_CELLS = [
    (kernel, cells) for kernel in KERNELS for cells in ODD_CELL_COUNTS
]


class TestBoundaryCells:
    """Pins for the cell-math audit (max-edge clamping, float accumulation).

    ``clamped_cell`` truncates then clamps into ``[0, cells_per_axis - 1]``:
    a point exactly on the bounds' max edge must land in the last cell (not
    one past it) — of the cell table and of the shard grid, which share the
    rule — and because ``add_path``, ``remove_path`` and every query funnel
    through the same ``_cell_of``, an entry added at any boundary point must
    be findable and removable regardless of which side of a cell border the
    float division puts it on.
    """

    def test_max_edge_maps_to_last_cell(self):
        import pytest  # noqa: F401  (parametrize applied below)

        for cells in ODD_CELL_COUNTS:
            index = GridIndex(GridConfig(BOUNDS, cells_per_axis=cells))
            last = cells - 1
            for cell_of in (index._table._cell_of, ShardGrid(BOUNDS, cells, cells).cell_of):
                assert cell_of(BOUNDS.high) == (last, last)
                assert cell_of(Point(BOUNDS.high.x, 0.0)) == (last, 0)
                assert cell_of(Point(0.0, BOUNDS.high.y)) == (0, last)
                # Outside points clamp into border cells rather than indexing
                # past the table.
                assert cell_of(Point(BOUNDS.high.x + 1.0, -5.0)) == (last, 0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(ODD_CELL_COUNTS),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    )
    def test_cell_of_stays_in_range_under_accumulation(self, cells, i, j):
        """Accumulated ``low + k * width`` points never index out of range."""
        table = CellTable(GridConfig(BOUNDS, cells_per_axis=cells))
        width = BOUNDS.width / cells
        x = min(BOUNDS.low.x + (i / 200.0) * cells * width, BOUNDS.high.x)
        y = min(BOUNDS.low.y + (j / 200.0) * cells * width, BOUNDS.high.y)
        col, row = table._cell_of(Point(x, y))
        assert 0 <= col < cells and 0 <= row < cells

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(KERNEL_AND_CELLS), st.data())
    def test_add_query_remove_agree_on_boundary_points(self, kernel_cells, data):
        """Entries at cell-border and max-edge points round-trip exactly."""
        kernel, cells = kernel_cells
        width = BOUNDS.width / cells
        # Accumulated cell corners (k * width drifts off the exact border for
        # odd counts), the exact max edge, just-outside points, and values
        # that compare equal but are different objects (-0.0 / 0.0, 2 / 2.0).
        pool = [BOUNDS.low.x + k * width for k in range(cells + 1)]
        pool += [BOUNDS.high.x, BOUNDS.high.x - 1e-9, -2.0, BOUNDS.high.x + 2.0]
        pool += [-0.0, 2, 2.0]
        coords = st.sampled_from(pool)
        points = st.builds(Point, coords, coords)
        index = GridIndex(GridConfig(BOUNDS, cells_per_axis=cells), kernel=kernel)
        inserted = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            record = index.insert(MotionPath(data.draw(points), data.draw(points)))
            inserted.append(record)
        for record in inserted:
            # Every (start, end) pair of stored endpoints, probed exactly:
            # the earliest insert from that start to that end, or None —
            # whichever cell the float division picked, the probe picks the
            # same one.
            for other in inserted:
                start, end = record.path.start, other.path.end
                expected = next(
                    (r.path_id for r in inserted if r.path.start == start and r.path.end == end),
                    None,
                )
                assert index.path_between(start, end) == expected
        for record in inserted:
            # The degenerate query at each endpoint must see the entry the
            # matching _add_entry stored.
            end = record.path.end
            probe = Rectangle.degenerate(end)
            assert any(
                vertex == end and record.path_id in ids
                for vertex, ids in index.end_vertices_in(probe).values()
            )
        for record in inserted:
            index.delete(record.path_id)
        assert len(index) == 0
        assert_empty_cells(index)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.differing_executors])
    @given(st.sampled_from(KERNELS), st.data())
    def test_end_vertices_at_query_max_edge_inclusive(self, kernel, data):
        """A vertex exactly on a query region's max edge is found (closed
        containment), including vertices on the bounds' own max edge — the
        cell-range scan must include the clamped last cell."""
        index = GridIndex(GridConfig(BOUNDS, cells_per_axis=8), kernel=kernel)
        edge = data.draw(
            st.sampled_from([12.5, 25.0, 50.0, 62.5, BOUNDS.high.x])
        )
        end = Point(edge, data.draw(st.sampled_from([0.0, 12.5, edge])))
        record = index.insert(MotionPath(Point(1.0, 1.0), end))
        region = Rectangle(BOUNDS.low, Point(edge, max(end.y, BOUNDS.low.y)))
        found = index.end_vertices_in(region)
        assert (end.x, end.y) in found and record.path_id in found[(end.x, end.y)][1]
        # Just below the edge the same closed-bound scan must exclude it.
        if edge > 0.0:
            below = Rectangle(BOUNDS.low, Point(edge - 1e-9, BOUNDS.high.y))
            assert (end.x, end.y) not in index.end_vertices_in(below)
