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
and answer every query below identically, so each :class:`GridIndex` query
is the table's (a delegation, or the bound method itself) and SinglePath
runs the same epoch pass over either.

Query operations mirror what SinglePath needs:

* ``GridIndex.starting_at`` — the ids of the motion paths that start at a
  given vertex and end inside a query rectangle, answered from the single
  cell containing the start vertex (Case 1 candidates);
* ``GridIndex.path_between`` — the id of the first stored path from a given
  start vertex to a given end vertex (the duplicate-path probe of
  SinglePath's inserts);
* ``GridIndex.end_vertices_in`` — distinct end vertices of stored paths
  inside a query rectangle, keyed by their coordinates, together with the
  ids of the paths terminating there (Case 2 candidates).

The three reads a report makes, ``starting_at``, ``end_vertices_in`` and
``path_between``, are the endpoint table's own methods, bound to the index
once at construction: a call costs no delegation frame.  The epoch's
expiry is one call too, :meth:`GridIndex.delete_live`.

The coordinator holds exactly one index, whatever ``num_shards`` says: the
shard grid only labels stored paths for diagnostics
(:mod:`repro.coordinator.sharding`), by the same :func:`clamped_cell` rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
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
        cell = self._cells.get(self._cell_of(start))
        if cell is None:
            return []
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
        there)``, from the cells ``region`` overlaps, column by column."""
        low_col, low_row = self._cell_of(region.low)
        high_col, high_row = self._cell_of(region.high)
        cells = self._cells
        vertices: Dict[Tuple[float, float], VertexGroup] = {}
        for col in range(low_col, high_col + 1):
            for row in range(low_row, high_row + 1):
                for (path_id, is_start), (endpoint, _other) in cells.get((col, row), {}).items():
                    if not is_start and region.contains_point(endpoint):
                        key = (endpoint.x, endpoint.y)
                        group = vertices.get(key)
                        if group is None:
                            vertices[key] = (endpoint, [path_id])
                        else:
                            group[1].append(path_id)
        return vertices


class GridIndex:
    """Grid-based index of motion-path endpoints keyed by path id.

    Three reads are the endpoint table's own bound methods, which both
    tables share:

    * ``starting_at(start, region)`` — the ids of the paths starting exactly
      at ``start`` whose end lies inside ``region``, answered from the single
      cell containing ``start`` (the columnar storage: from that vertex's
      hash bucket), whatever the rectangle's size;
    * ``path_between(start, end)`` — the id of the earliest-inserted live
      path from exactly ``start`` to exactly ``end``, or ``None``: the
      duplicate check of an insert.  ``start`` must match the stored start
      vertex exactly: the covering-set chaining guarantees that a reporting
      object's SSA start coincides with the endpoint the coordinator
      previously assigned to it.  Answered from the one cell holding ``end``
      (the columnar storage: from the start vertex's hash bucket), which
      keeps insertion order;
    * ``end_vertices_in(region)`` — the distinct end vertices inside
      ``region`` (closed bounds), each as ``(x, y) -> (vertex, ids of the
      paths ending there)``.  Among stored ends that compare equal but print
      apart (``0.0`` / ``-0.0``, ``2`` / ``2.0``) the earliest insert is the
      vertex under both storages.  The order of the groups differs by
      storage; no caller may read it.
    """

    def __init__(self, config: GridConfig, kernel: str = "object") -> None:
        self.config = config
        # The default stays ``object`` at this layer: the coordinator config
        # flips it fleet-wide.
        self._table: Union[CellTable, EndpointTable] = (
            CellTable(config) if resolve_kernel(kernel) == "object" else EndpointTable()
        )
        # The per-report reads are the table's own methods, bound once, so a
        # call costs no delegation frame (see the class docstring).
        self.starting_at = self._table.starting_at
        self.path_between = self._table.path_between
        self.end_vertices_in = self._table.end_vertices_in
        # path_id -> stored path, for direct lookups and deletion.
        self._paths: Dict[int, MotionPath] = {}
        self._next_path_id = 0
        #: Lifetime :meth:`delete` calls — lets the query view notice a path
        #: removed behind the coordinator's back.
        self.deletions = 0

    # -- bookkeeping -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path_id: int) -> bool:
        return path_id in self._paths

    @property
    def records(self) -> Iterable[MotionPath]:
        """All stored motion paths (unspecified order)."""
        return self._paths.values()

    @property
    def by_id(self) -> Mapping[int, MotionPath]:
        """The live ``path_id -> path`` table, so a hot loop can bind its
        ``get``; read it, never write it."""
        return self._paths

    def get(self, path_id: int) -> MotionPath:
        """Return the stored path ``path_id``; raises if absent."""
        try:
            return self._paths[path_id]
        except KeyError:
            raise CoordinatorError(f"motion path {path_id} is not in the index") from None

    # -- insertion / deletion -------------------------------------------------------

    def insert(self, start: Point, end: Point, created_at: int = 0) -> MotionPath:
        """Store the motion path ``start -> end`` under a fresh id and return it."""
        path_id = self._next_path_id
        self._next_path_id = path_id + 1
        path = self._paths[path_id] = MotionPath(start, end, path_id, created_at)
        self._table.add_path(path_id, start, end)
        return path

    def delete(self, path_id: int) -> None:
        """Remove a motion path from the index (e.g. when its hotness expires)."""
        path = self._paths.pop(path_id, None)
        if path is None:
            raise CoordinatorError(f"motion path {path_id} is not in the index")
        self._table.remove_path(path_id, path.start, path.end)
        self.deletions += 1

    def delete_live(self, path_ids: Iterable[int]) -> List[int]:
        """Remove every id of ``path_ids`` that is in the index (an epoch's
        expired ids, in one call); returns the removed ids, in order."""
        paths, remove_path = self._paths, self._table.remove_path
        deleted: List[int] = []
        for path_id in path_ids:
            path = paths.pop(path_id, None)
            if path is not None:
                remove_path(path_id, path.start, path.end)
                deleted.append(path_id)
        self.deletions += len(deleted)
        return deleted
