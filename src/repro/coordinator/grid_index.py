"""Lightweight grid index over motion-path endpoints (paper Section 5.1).

The space is partitioned into a fixed number of square cells.  For every
stored motion path both endpoints are indexed: each cell keeps one entry per
endpoint that falls inside it, keyed by ``(path_id, is_start)`` and carrying
the coordinates of the endpoint itself plus the *other* endpoint, organised in
a hash table for constant-time insertion and deletion.  Keying by the full
``(path_id, is_start)`` pair (rather than the path id alone) matters when both
endpoints of a path land in the same cell — e.g. short paths, or endpoints
clamped into the same border cell — since each endpoint must keep its own
entry.

Query operations mirror what SinglePath needs:

* :meth:`paths_starting_at` — motion paths that start at a given vertex and
  end inside a query rectangle, answered from the single cell containing the
  start vertex (Case 1 candidates);
* :meth:`paths_from_into` — the same result set, answered by scanning the end
  entries inside the query rectangle instead;
* :meth:`end_vertices_in` — distinct end vertices of stored paths inside a
  query rectangle together with the ids of the paths terminating there
  (Case 2 candidates).

For sharded deployments (see :mod:`repro.coordinator.sharding`) the record
store and the endpoint entries can be decoupled: a shard indexes only the
endpoints it owns via :meth:`add_entry` / :meth:`remove_entry`, registers only
the records it owns via :meth:`register`, and resolves foreign records through
the optional ``record_resolver`` callback.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

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

    def __init__(
        self,
        config: GridConfig,
        record_resolver: Optional[Callable[[int], Optional[MotionPathRecord]]] = None,
        kernel: str = "object",
    ) -> None:
        self.config = config
        self._cell_width = config.bounds.width / config.cells_per_axis
        self._cell_height = config.bounds.height / config.cells_per_axis
        # ``object`` keeps entries in per-cell dicts (the scalar reference);
        # ``columnar`` keeps them in one endpoint table for the whole index
        # — a flat SoA of end entries plus a start-vertex hash — and answers
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
        self._record_resolver = record_resolver

    # -- bookkeeping -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, path_id: int) -> bool:
        return path_id in self._records

    @property
    def records(self) -> Iterable[MotionPathRecord]:
        """All stored motion-path records (unspecified order)."""
        return self._records.values()

    def get(self, path_id: int) -> MotionPathRecord:
        """Return the record for ``path_id``; raises if absent."""
        try:
            return self._records[path_id]
        except KeyError:
            raise CoordinatorError(f"motion path {path_id} is not in the index") from None

    def _record_of(self, path_id: int) -> MotionPathRecord:
        """Resolve a record, falling back to the foreign-record resolver."""
        record = self._records.get(path_id)
        if record is None and self._record_resolver is not None:
            record = self._record_resolver(path_id)
        if record is None:
            raise CoordinatorError(f"motion path {path_id} is not in the index")
        return record

    # -- insertion / deletion -------------------------------------------------------

    def insert(self, path: MotionPath, created_at: int = 0) -> MotionPathRecord:
        """Insert a new motion path and return its record (with a fresh id)."""
        record = MotionPathRecord(self._next_path_id, path, created_at)
        self._next_path_id += 1
        self.register(record)
        self.add_entry(record, is_start=True)
        self.add_entry(record, is_start=False)
        return record

    def delete(self, path_id: int) -> None:
        """Remove a motion path from the index (e.g. when its hotness expires)."""
        record = self.get(path_id)
        self.remove_entry(path_id, record.path.start, is_start=True)
        self.remove_entry(path_id, record.path.end, is_start=False)
        self.unregister(path_id)
        self.deletions += 1

    # -- entry-level primitives (used directly by the sharded router) ---------------

    def register(self, record: MotionPathRecord) -> None:
        """Store a record in the record table without indexing its endpoints."""
        self._records[record.path_id] = record

    def unregister(self, path_id: int) -> None:
        """Drop a record from the record table (its entries must be gone already)."""
        del self._records[path_id]

    def add_entry(self, record: MotionPathRecord, is_start: bool) -> None:
        """Index one endpoint of ``record`` in the cell that contains it."""
        if is_start:
            endpoint, other = record.path.start, record.path.end
        else:
            endpoint, other = record.path.end, record.path.start
        if self._endpoints is not None:
            self._endpoints.upsert((record.path_id, is_start), endpoint, other)
            return
        self._cells.setdefault(self._cell_of(endpoint), {})[
            (record.path_id, is_start)
        ] = (endpoint, other)

    def remove_entry(self, path_id: int, endpoint: Point, is_start: bool) -> None:
        """Remove one endpoint entry, dropping its cell when it becomes empty."""
        if self._endpoints is not None:
            self._endpoints.remove((path_id, is_start))
            return
        key = self._cell_of(endpoint)
        cell = self._cells.get(key)
        if cell is not None:
            cell.pop((path_id, is_start), None)
            if not cell:
                del self._cells[key]

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
                self._record_of(pid) for pid in self._endpoints.starting_at(start, region)
            ]
        cell = self._cells.get(self._cell_of(start))
        results: List[MotionPathRecord] = []
        if cell:
            for (path_id, is_start), (endpoint, other) in cell.items():
                if is_start and endpoint == start and region.contains_point(other):
                    results.append(self._record_of(path_id))
        return results

    def paths_from_into(self, start: Point, region: Rectangle) -> List[MotionPathRecord]:
        """Motion paths starting at ``start`` whose end vertex lies inside ``region``.

        ``start`` must match the stored start vertex exactly: the covering-set
        chaining guarantees that a reporting object's SSA start coincides with
        the endpoint the coordinator previously assigned to it.
        """
        if self._endpoints is not None:
            return [
                self._record_of(pid) for pid in self._endpoints.from_into(start, region)
            ]
        results: List[MotionPathRecord] = []
        for (path_id, is_start), (endpoint, other) in self._entries_in(region):
            if is_start:
                continue
            if other == start and region.contains_point(endpoint):
                results.append(self._record_of(path_id))
        return results

    def end_vertices_in(self, region: Rectangle) -> Dict[Point, List[int]]:
        """Distinct end vertices inside ``region`` mapped to the ids of paths ending there."""
        vertices: Dict[Point, List[int]] = {}
        if self._endpoints is not None:
            pids, xs, ys = self._endpoints.end_rows_in(region)
            for pid, x, y in zip(pids.tolist(), xs.tolist(), ys.tolist()):
                vertices.setdefault(Point(x, y), []).append(pid)
            return vertices
        for (path_id, is_start), (endpoint, _other) in self._entries_in(region):
            if is_start:
                continue
            if region.contains_point(endpoint):
                vertices.setdefault(endpoint, []).append(path_id)
        return vertices

    def paths_intersecting(self, region: Rectangle) -> List[MotionPathRecord]:
        """Motion paths with at least one endpoint inside ``region``.

        Used by the DP baseline and by analyses; SinglePath itself relies on
        the more specific queries above.
        """
        seen: Set[int] = set()
        results: List[MotionPathRecord] = []
        if self._endpoints is not None:
            for path_id in self._endpoints.endpoints_in(region):
                if path_id not in seen:
                    seen.add(path_id)
                    results.append(self._record_of(path_id))
            return results
        for (path_id, _is_start), (endpoint, _other) in self._entries_in(region):
            if path_id in seen:
                continue
            if region.contains_point(endpoint):
                seen.add(path_id)
                results.append(self._record_of(path_id))
        return results

    def end_table(self):
        """Columnar kernel: live ``(path ids, xs, ys)`` columns of the end entries.

        The input of the epoch pass
        (:func:`repro.coordinator.single_path.prefetch_vertex_candidates`),
        which tests every reporting object's FSA against them in one
        broadcast.  ``None`` under the object kernel.
        """
        return self._endpoints.end_columns() if self._endpoints is not None else None

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

    # -- diagnostics --------------------------------------------------------------------------

    def cell_statistics(self) -> Dict[str, float]:
        """Occupancy statistics of the grid, useful for the resolution ablation."""
        if self._endpoints is not None:
            # The object kernel's figures, derived from the table on demand.
            occupied = list(
                Counter(map(self._cell_of, self._endpoints.indexed_endpoints())).values()
            )
        else:
            occupied = [len(cell) for cell in self._cells.values()]
        total_cells = self.config.cells_per_axis ** 2
        if not occupied:
            return {
                "occupied_cells": 0,
                "total_cells": total_cells,
                "max_entries_per_cell": 0,
                "mean_entries_per_occupied_cell": 0.0,
            }
        return {
            "occupied_cells": len(occupied),
            "total_cells": total_cells,
            "max_entries_per_cell": max(occupied),
            "mean_entries_per_occupied_cell": sum(occupied) / len(occupied),
        }
