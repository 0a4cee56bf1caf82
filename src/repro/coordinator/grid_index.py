"""Lightweight grid index over motion-path endpoints (paper Section 5.1).

The space is partitioned into a fixed number of square cells.  For every
stored motion path both endpoints are indexed: each cell keeps one entry per
endpoint that falls inside it, keyed by ``(path_id, is_start)`` and carrying
the coordinates of the endpoint itself plus the *other* endpoint, organised in
a hash table for constant-time insertion and deletion.  Keying by the full
``(path_id, is_start)`` pair (rather than the path id alone) matters when both
endpoints of a path land in the same cell — e.g. short paths, or endpoints
clamped into the same border cell — since each endpoint must keep its own
entry.  The columnar kernel keeps one row per path instead
(:class:`~repro.coordinator.columnar.EndpointTable`).

Query operations mirror what SinglePath needs:

* :meth:`paths_starting_at` — motion paths that start at a given vertex and
  end inside a query rectangle, answered from the single cell containing the
  start vertex (Case 1 candidates);
* :meth:`path_between` — the first stored path from a given start vertex to
  a given end vertex (the duplicate-path probe of SinglePath's inserts);
* :meth:`end_vertices_in` — distinct end vertices of stored paths inside a
  query rectangle together with the ids of the paths terminating there
  (Case 2 candidates).

The coordinator holds exactly one index, whatever ``num_shards`` says: the
shard grid only labels records for diagnostics
(:mod:`repro.coordinator.sharding`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.coordinator.columnar import EndpointTable, resolve_kernel

__all__ = ["GridConfig", "GridIndex"]

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


class GridIndex:
    """Grid-based index of motion-path endpoints keyed by path id."""

    def __init__(self, config: GridConfig, kernel: str = "object") -> None:
        self.config = config
        self._cell_width = config.bounds.width / config.cells_per_axis
        self._cell_height = config.bounds.height / config.cells_per_axis
        # ``object`` keeps entries in per-cell dicts (the scalar reference);
        # ``columnar`` keeps one endpoint table for the whole index — a row
        # per path, ends sorted by x plus a start-vertex hash — and answers
        # the queries below from it, bit-for-bit equal (see
        # :mod:`repro.coordinator.columnar`).  The default stays ``object``
        # at this layer: the coordinator config flips it fleet-wide.
        self.kernel = resolve_kernel(kernel)
        # cell -> {(path_id, is_start) -> (indexed endpoint, other endpoint)}
        self._cells: Dict[Tuple[int, int], Dict[EntryKey, Entry]] = {}
        self._endpoints: Optional[EndpointTable] = (
            EndpointTable() if self.kernel == "columnar" else None
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
        if self._endpoints is not None:
            self._endpoints.add_path(record.path_id, path.start, path.end)
        else:
            for is_start, endpoint, other in ((True, path.start, path.end), (False, path.end, path.start)):
                self._cells.setdefault(self._cell_of(endpoint), {})[
                    (record.path_id, is_start)
                ] = (endpoint, other)
        return record

    def delete(self, path_id: int) -> None:
        """Remove a motion path from the index (e.g. when its hotness expires)."""
        path = self.get(path_id).path
        if self._endpoints is not None:
            self._endpoints.remove_path(path_id)
        else:
            for is_start, endpoint in ((True, path.start), (False, path.end)):
                key = self._cell_of(endpoint)
                cell = self._cells[key]
                del cell[(path_id, is_start)]
                if not cell:
                    del self._cells[key]
        del self._records[path_id]
        self.deletions += 1

    # -- queries ----------------------------------------------------------------------

    def paths_starting_at(self, start: Point, region: Rectangle) -> List[MotionPathRecord]:
        """Motion paths starting exactly at ``start`` whose end lies inside ``region``.

        Answered from the single cell containing ``start`` (the columnar
        kernel: from that vertex's hash bucket), so the cost is independent
        of the query rectangle's size — this is the hot-loop form of the
        Case 1 candidate query.
        """
        if self._endpoints is not None:
            return [
                self._records[pid] for pid in self._endpoints.starting_at(start, region)
            ]
        cell = self._cells.get(self._cell_of(start))
        results: List[MotionPathRecord] = []
        if cell:
            for (path_id, is_start), (endpoint, other) in cell.items():
                if is_start and endpoint == start and region.contains_point(other):
                    results.append(self._records[path_id])
        return results

    def path_between(self, start: Point, end: Point) -> Optional[MotionPathRecord]:
        """The earliest-inserted live path from exactly ``start`` to exactly
        ``end``, or ``None``.

        ``start`` must match the stored start vertex exactly: the covering-set
        chaining guarantees that a reporting object's SSA start coincides with
        the endpoint the coordinator previously assigned to it.  Answered
        from the start vertex's hash bucket under the columnar kernel and from
        the one cell holding ``end`` under the object kernel, both of which
        keep insertion order.
        """
        if self._endpoints is not None:
            path_id = self._endpoints.path_between(start, end)
            return None if path_id is None else self._records[path_id]
        cell = self._cells.get(self._cell_of(end))
        if cell:
            for (path_id, is_start), (endpoint, other) in cell.items():
                if not is_start and other == start and endpoint == end:
                    return self._records[path_id]
        return None

    def end_vertices_in(self, region: Rectangle) -> Dict[Point, List[int]]:
        """Distinct end vertices inside ``region`` mapped to the ids of paths ending there."""
        if self._endpoints is not None:
            return dict(self._endpoints.end_vertices_in(region).values())
        vertices: Dict[Point, List[int]] = {}
        for (path_id, is_start), (endpoint, _other) in self._entries_in(region):
            if is_start:
                continue
            if region.contains_point(endpoint):
                vertices.setdefault(endpoint, []).append(path_id)
        return vertices

    def paths_intersecting(self, region: Rectangle) -> List[MotionPathRecord]:
        """Motion paths with at least one endpoint inside ``region``.

        The DP baseline's query, answered by the ``object`` kernel only (the
        baseline's index); SinglePath relies on the more specific queries
        above.
        """
        if self._endpoints is not None:
            raise CoordinatorError("paths_intersecting needs the object kernel")
        seen: Set[int] = set()
        results: List[MotionPathRecord] = []
        for (path_id, _is_start), (endpoint, _other) in self._entries_in(region):
            if path_id in seen:
                continue
            if region.contains_point(endpoint):
                seen.add(path_id)
                results.append(self._records[path_id])
        return results

    def end_table(self) -> Optional[EndpointTable]:
        """Columnar kernel: the index's :class:`EndpointTable`, ends sorted by x.

        The input of the epoch pass
        (:func:`repro.coordinator.single_path.prefetch_vertex_candidates`),
        which bisects it onto each pending FSA's x range and tests y on that
        run only.  ``None`` under the object kernel.
        """
        return self._endpoints

    # -- cell arithmetic ------------------------------------------------------------------

    def _cell_of(self, point: Point) -> Tuple[int, int]:
        bounds = self.config.bounds
        col = int((point.x - bounds.low.x) / self._cell_width)
        row = int((point.y - bounds.low.y) / self._cell_height)
        last = self.config.cells_per_axis - 1
        return (min(max(col, 0), last), min(max(row, 0), last))

    def _cells_overlapping(self, region: Rectangle) -> Iterator[Tuple[int, int]]:
        low_col, low_row = self._cell_of(region.low)
        high_col, high_row = self._cell_of(region.high)
        for col in range(low_col, high_col + 1):
            for row in range(low_row, high_row + 1):
                yield (col, row)

    def _entries_in(self, region: Rectangle) -> Iterator[Tuple[EntryKey, Entry]]:
        for cell_key in self._cells_overlapping(region):
            cell = self._cells.get(cell_key)
            if not cell:
                continue
            for entry_key, entry in cell.items():
                yield entry_key, entry
