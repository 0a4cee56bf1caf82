"""The fixed shard grid that labels records with an owning shard.

``num_shards`` divides the **whole plane** into a uniform R x C grid of cells,
one per shard (:class:`ShardGrid`): border cells extend past the monitored
bounds, which is how points outside the nominal area are "clamped" into
border shards without a special case.  The grid is fixed at construction.
Its contract:

* :meth:`ShardGrid.shard_id_of` is total — every point maps to exactly one
  shard, whose cell contains the clamped point;
* :meth:`ShardGrid.shard_ids_overlapping` returns every shard whose cell
  intersects a query rectangle, in ascending shard-id order (only
  :func:`~repro.coordinator.execution.conflict_groups` asks).

Only the labels of :mod:`repro.coordinator.sharding` read the grid; no epoch
stage does, so every shape answers bit for bit like the seed coordinator.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.coordinator.grid_index import clamped_cell

__all__ = ["shard_layout", "ShardGrid"]


def shard_layout(num_shards: int) -> Tuple[int, int]:
    """Factor ``num_shards`` into the most square ``(rows, cols)`` grid.

    4 becomes 2x2, 16 becomes 4x4, 6 becomes 2x3; a prime count degrades to a
    single row of column stripes.
    """
    if num_shards <= 0:
        raise ConfigurationError(f"num_shards must be positive, got {num_shards}")
    rows = int(math.isqrt(num_shards))
    while num_shards % rows:
        rows -= 1
    return rows, num_shards // rows


class ShardGrid:
    """Point-to-shard assignment over an R x C partition of the bounds.

    Uses the grid index's clamped-cell rule (:func:`clamped_cell`), so ownership
    is monotone in each coordinate: any query rectangle maps to a contiguous
    inclusive range of shard rows and columns, and a point inside the
    rectangle is always owned by a shard in that range (including points
    clamped in from outside the monitored area).
    """

    def __init__(self, bounds: Rectangle, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(f"shard grid must be positive, got {rows}x{cols}")
        self.bounds = bounds
        self.rows = rows
        self.cols = cols
        self._shard_width = bounds.width / cols
        self._shard_height = bounds.height / rows

    @property
    def num_shards(self) -> int:
        return self.rows * self.cols

    def cell_of(self, point: Point) -> Tuple[int, int]:
        """The ``(col, row)`` of the shard owning ``point`` (clamped)."""
        return clamped_cell(
            self.bounds.low, self._shard_width, self._shard_height, self.cols, self.rows, point
        )

    def shard_id_of(self, point: Point) -> int:
        """The shard owning ``point`` (total: outside points hit border cells)."""
        col, row = self.cell_of(point)
        return row * self.cols + col

    def span_of(self, region: Rectangle) -> Tuple[int, int, int, int]:
        """Inclusive ``(col_lo, col_hi, row_lo, row_hi)`` shard range of ``region``."""
        col_lo, row_lo = self.cell_of(region.low)
        col_hi, row_hi = self.cell_of(region.high)
        return col_lo, col_hi, row_lo, row_hi

    def shard_ids_overlapping(self, region: Rectangle) -> Iterator[int]:
        """Every shard whose cell intersects ``region``, ascending by id."""
        col_lo, col_hi, row_lo, row_hi = self.span_of(region)
        for row in range(row_lo, row_hi + 1):
            base = row * self.cols
            for col in range(col_lo, col_hi + 1):
                yield base + col
