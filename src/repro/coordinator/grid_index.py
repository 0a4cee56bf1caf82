"""Lightweight grid index over motion-path endpoints (paper Section 5.1).

The space is partitioned into a fixed number of square cells.  For every
stored motion path both endpoints are indexed: each cell keeps one entry per
endpoint that falls inside it, keyed by ``(path_id, is_start)`` and carrying
the coordinates of the endpoint itself plus the *other* endpoint, organised in
a hash table for constant-time insertion and deletion.  Keying by the full
``(path_id, is_start)`` pair (rather than the path id alone) matters when both
endpoints of a path land in the same cell — e.g. short paths, or endpoints
clamped into the same border cell — since each endpoint must keep its own
entry.  The ``kernel`` picks the endpoint table once: ``object`` keeps these
cell dicts (:class:`CellTable`), ``columnar`` one row per path in an x-sorted
:class:`~repro.coordinator.columnar.EndpointTable`; both have one interface
and answer every query below identically, so each :class:`GridIndex` method
is one delegation and SinglePath runs the same epoch pass over either.

Query operations mirror what SinglePath needs:

* :meth:`GridIndex.paths_starting_at` — motion paths that start at a given
  vertex and end inside a query rectangle, answered from the single cell
  containing the start vertex (Case 1 candidates);
* :meth:`GridIndex.path_between` — the first stored path from a given start
  vertex to a given end vertex (the duplicate-path probe of SinglePath's
  inserts);
* :meth:`GridIndex.end_vertices_in` — distinct end vertices of stored paths
  inside a query rectangle, keyed by their coordinates, together with the
  ids of the paths terminating there (Case 2 candidates).

The coordinator holds exactly one index, whatever ``num_shards`` says: the
shard grid only labels records for diagnostics
(:mod:`repro.coordinator.sharding`), by the same :func:`clamped_cell` rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple, Union

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.coordinator.columnar import EndpointTable, VertexGroup, resolve_kernel

__all__ = ["GridConfig", "GridIndex", "CellTable", "clamped_cell"]

#: One indexed endpoint: ``(path_id, is_start) -> (indexed endpoint, other endpoint)``.
EntryKey = Tuple[int, bool]
Entry = Tuple[Point, Point]


@dataclass(frozen=True)
class GridConfig:
    """Extent and resolution of the grid index.

    ``bounds`` is the rectangle covering the monitored area; points outside it
    are clamped into the border cells so that objects briefly straying outside
    the nominal area are still indexed.  ``cells_per_axis`` controls the grid
    resolution.
    """

    bounds: Rectangle
    cells_per_axis: int = 64

    def __post_init__(self) -> None:
        if self.cells_per_axis <= 0:
            raise ConfigurationError(
                f"cells_per_axis must be positive, got {self.cells_per_axis}"
            )
        if self.bounds.width <= 0 or self.bounds.height <= 0:
            raise ConfigurationError("grid bounds must have positive area")


def clamped_cell(
    low: Point, width: float, height: float, cols: int, rows: int, point: Point
) -> Tuple[int, int]:
    """``(col, row)`` of ``point`` in ``cols`` x ``rows`` cells of ``width`` x
    ``height`` from ``low``: truncated, then clamped, so the max edge maps to
    the last cell and an outside point to a border cell.  The grid comes
    first, so a grid binds it once with ``functools.partial``."""
    col = int((point.x - low.x) / width)
    row = int((point.y - low.y) / height)
    return (min(max(col, 0), cols - 1), min(max(row, 0), rows - 1))


class CellTable:
    """The ``object`` endpoint table: ``cell -> {(path_id, is_start) ->
    (indexed endpoint, other endpoint)}``.  Equal coordinates share a cell,
    whose dict keeps insertion order, so among ends that compare equal but
    print apart (``0.0`` / ``-0.0``) the earliest insert is met first."""

    __slots__ = ("_cell_of", "_cells")

    def __init__(self, config: GridConfig) -> None:
        cells, bounds = config.cells_per_axis, config.bounds
        self._cell_of = partial(
            clamped_cell, bounds.low, bounds.width / cells, bounds.height / cells, cells, cells
        )
        self._cells: Dict[Tuple[int, int], Dict[EntryKey, Entry]] = {}

    def add_path(self, path_id: int, start: Point, end: Point) -> None:
        """Store the path ``start -> end`` under ``path_id``: one entry per endpoint."""
        for is_start, endpoint, other in ((True, start, end), (False, end, start)):
            self._cells.setdefault(self._cell_of(endpoint), {})[(path_id, is_start)] = (endpoint, other)

    def remove_path(self, path_id: int, start: Point, end: Point) -> None:
        """Drop the live path ``start -> end`` stored under ``path_id``."""
        for is_start, endpoint in ((True, start), (False, end)):
            key = self._cell_of(endpoint)
            cell = self._cells[key]
            del cell[(path_id, is_start)]
            if not cell:
                del self._cells[key]

    def starting_at(self, start: Point, region: Rectangle) -> List[int]:
        """Case 1: paths starting at ``start`` whose end lies inside ``region``,
        from the one cell holding ``start``."""
        cell = self._cells.get(self._cell_of(start), {})
        return [
            path_id
            for (path_id, is_start), (endpoint, other) in cell.items()
            if is_start and endpoint == start and region.contains_point(other)
        ]

    def path_between(self, start: Point, end: Point) -> Optional[int]:
        """The earliest-inserted live path from ``start`` ending at ``end``,
        from the one cell holding ``end``."""
        cell = self._cells.get(self._cell_of(end), {})
        for (path_id, is_start), (endpoint, other) in cell.items():
            if not is_start and other == start and endpoint == end:
                return path_id
        return None

    def end_vertices_in(self, region: Rectangle) -> Dict[Tuple[float, float], VertexGroup]:
        """Case 2: the distinct end vertices inside ``region`` (closed
        bounds), each as ``(x, y) -> (vertex, ids of the paths ending
        there)``, by cell."""
        vertices: Dict[Tuple[float, float], VertexGroup] = {}
        for (path_id, is_start), (endpoint, _other) in self._entries_in(region):
            if not is_start and region.contains_point(endpoint):
                key = (endpoint.x, endpoint.y)
                group = vertices.get(key)
                if group is None:
                    vertices[key] = (endpoint, [path_id])
                else:
                    group[1].append(path_id)
        return vertices

    def paths_intersecting(self, region: Rectangle) -> List[int]:
        """The DP baseline's query: paths with an endpoint inside ``region``."""
        seen: Set[int] = set()
        results: List[int] = []
        for (path_id, _is_start), (endpoint, _other) in self._entries_in(region):
            if path_id in seen:
                continue
            if region.contains_point(endpoint):
                seen.add(path_id)
                results.append(path_id)
        return results

    def _entries_in(self, region: Rectangle) -> Iterator[Tuple[EntryKey, Entry]]:
        """Every entry of the cells ``region`` overlaps, column by column."""
        low_col, low_row = self._cell_of(region.low)
        high_col, high_row = self._cell_of(region.high)
        cells = self._cells
        for col in range(low_col, high_col + 1):
            for row in range(low_row, high_row + 1):
                cell = cells.get((col, row))
                if cell:
                    yield from cell.items()


class GridIndex:
    """Grid-based index of motion-path endpoints keyed by path id."""

    def __init__(self, config: GridConfig, kernel: str = "object") -> None:
        self.config = config
        # The default stays ``object`` at this layer: the coordinator config
        # flips it fleet-wide.
        self._table: Union[CellTable, EndpointTable] = (
            CellTable(config) if resolve_kernel(kernel) == "object" else EndpointTable()
        )
        # path_id -> record, for direct lookups and deletion.
        self._records: Dict[int, MotionPathRecord] = {}
        self._next_path_id = 0
        #: Lifetime :meth:`delete` calls — lets the query view notice a record
        #: removed behind the coordinator's back.
        self.deletions = 0

    # -- bookkeeping -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, path_id: int) -> bool:
        return path_id in self._records

    @property
    def records(self) -> Iterable[MotionPathRecord]:
        """All stored motion-path records (unspecified order)."""
        return self._records.values()

    @property
    def by_id(self) -> Mapping[int, MotionPathRecord]:
        """The live ``path_id -> record`` table, so a hot loop can bind its
        ``get``; read it, never write it."""
        return self._records

    def get(self, path_id: int) -> MotionPathRecord:
        """Return the record for ``path_id``; raises if absent."""
        try:
            return self._records[path_id]
        except KeyError:
            raise CoordinatorError(f"motion path {path_id} is not in the index") from None

    # -- insertion / deletion -------------------------------------------------------

    def insert(self, path: MotionPath, created_at: int = 0) -> MotionPathRecord:
        """Insert a new motion path and return its record (with a fresh id)."""
        record = MotionPathRecord(self._next_path_id, path, created_at)
        self._next_path_id += 1
        self._records[record.path_id] = record
        self._table.add_path(record.path_id, path.start, path.end)
        return record

    def delete(self, path_id: int) -> None:
        """Remove a motion path from the index (e.g. when its hotness expires)."""
        path = self.get(path_id).path
        self._table.remove_path(path_id, path.start, path.end)
        del self._records[path_id]
        self.deletions += 1

    # -- queries ----------------------------------------------------------------------

    def paths_starting_at(self, start: Point, region: Rectangle) -> List[MotionPathRecord]:
        """Motion paths starting exactly at ``start`` whose end lies inside ``region``.

        Answered from the single cell containing ``start`` (the columnar
        storage: from that vertex's hash bucket), whatever the rectangle's
        size — the hot-loop form of the Case 1 candidate query.
        """
        return [self._records[pid] for pid in self._table.starting_at(start, region)]

    def path_between(self, start: Point, end: Point) -> Optional[MotionPathRecord]:
        """The earliest-inserted live path from exactly ``start`` to exactly
        ``end``, or ``None``.

        ``start`` must match the stored start vertex exactly: the covering-set
        chaining guarantees that a reporting object's SSA start coincides with
        the endpoint the coordinator previously assigned to it.  Answered
        from the one cell holding ``end`` (the columnar storage: from the
        start vertex's hash bucket), which keeps insertion order.
        """
        path_id = self._table.path_between(start, end)
        return None if path_id is None else self._records[path_id]

    def end_vertices_in(self, region: Rectangle) -> Dict[Tuple[float, float], VertexGroup]:
        """The distinct end vertices inside ``region`` (closed bounds), each
        as ``(x, y) -> (vertex, ids of the paths ending there)``.

        Among stored ends that compare equal but print apart (``0.0`` /
        ``-0.0``, ``2`` / ``2.0``) the earliest insert is the vertex under
        both storages.  The order of the groups differs by storage; no
        caller may read it.
        """
        return self._table.end_vertices_in(region)

    def paths_intersecting(self, region: Rectangle) -> List[MotionPathRecord]:
        """Motion paths with at least one endpoint inside ``region``.

        The DP baseline's query, answered by the ``object`` storage only (the
        baseline's index; the end table refuses it); SinglePath relies on
        the more specific queries above.
        """
        return [self._records[pid] for pid in self._table.paths_intersecting(region)]
