"""Spatial partition layer behind the shard router.

PR 1 hard-wired the shard fleet to a uniform R x C grid: routing and conflict
grouping did grid arithmetic directly.  This module extracts the partition into one small abstraction so
the fleet can run non-uniform, load-adaptive layouts behind the unchanged
:class:`~repro.coordinator.sharding.ShardRouter` interface:

* :class:`UniformGridPartition` (aliased as ``ShardGrid`` for backwards
  compatibility) — the original R x C grid with clamped floor arithmetic;
* :class:`KdSplitPartition` — a kd-split tree built by recursive quantile
  splits on endpoint density, the standard fix for skewed workloads (hot
  downtown cells vs. empty suburbs) in distributed spatial indexing.

Every partition divides the **whole plane** into exactly ``num_shards``
cells: border cells extend past the monitored bounds, which is how points
outside the nominal area are "clamped" into border shards without a special
case.  The contract the router relies on:

* :meth:`Partition.shard_id_of` is total — every point maps to exactly one
  shard;
* :meth:`Partition.shard_ids_overlapping` returns every shard whose cell
  intersects a query rectangle (so region queries fanning out over it never
  miss an endpoint entry), in ascending shard-id order;
* :meth:`Partition.single_shard_of` is the fast path of the shard-local
  view: the one shard fully containing a rectangle, or ``None``;
* :meth:`Partition.describe` is a canonical value-equality key — two
  partitions with equal descriptions route every point identically, which
  the rebalance protocol uses to skip no-op migrations.

**Exactness.**  Nothing the differential harness pins depends on the
partition's *shape*: path ids come from a global counter, decisions replay
submission order, endpoint-owner routing holds every vertex's entries with
exactly one shard, and the epoch's overlap structure never consults the
layout (:func:`~repro.coordinator.overlaps.plan_shard_overlaps`).  Swapping the uniform grid for a kd partition — or migrating
between two kd partitions mid-stream — therefore preserves bit-for-bit
equivalence with the seed coordinator; ``tests/test_sharding_equivalence.py``
asserts it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle

__all__ = [
    "PARTITION_KINDS",
    "shard_layout",
    "Partition",
    "UniformGridPartition",
    "KdSplitPartition",
    "create_partition",
]

#: Partition kinds accepted by the config layers and the CLI ``--partition``
#: flag: ``uniform`` is the fixed R x C grid, ``kd`` the load-adaptive
#: kd-split partition (refitted by the epoch-boundary rebalance protocol).
PARTITION_KINDS: Tuple[str, ...] = ("uniform", "kd")

#: A kd tree node: ``(axis, value, left, right)`` internal nodes with
#: ``axis`` 0 for x and 1 for y (coordinates ``< value`` descend left,
#: ``>= value`` right), or an ``int`` leaf holding its shard id.
_KdNode = Union[int, Tuple[int, float, "_KdNode", "_KdNode"]]


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


class Partition(ABC):
    """How the monitored plane is divided into shard cells."""

    #: Name of the partition family (one of :data:`PARTITION_KINDS`).
    kind: str = "abstract"
    #: The monitored area the partition was built over (cells at the border
    #: own everything beyond it as well).
    bounds: Rectangle

    @property
    @abstractmethod
    def num_shards(self) -> int:
        """Number of cells (= shards) in the partition."""

    @abstractmethod
    def shard_id_of(self, point: Point) -> int:
        """The shard owning ``point`` (total: outside points hit border cells)."""

    @abstractmethod
    def shard_ids_overlapping(self, region: Rectangle) -> Iterator[int]:
        """Every shard whose cell intersects ``region``, ascending by id."""

    @abstractmethod
    def shard_bounds(self, shard_id: int) -> Rectangle:
        """The sub-rectangle of the monitored bounds covered by ``shard_id``."""

    @abstractmethod
    def single_shard_of(self, region: Rectangle) -> Optional[int]:
        """The one shard whose cell contains all of ``region``, else ``None``."""

    @abstractmethod
    def describe(self) -> tuple:
        """Canonical description: equal descriptions route identically."""

    # -- elastic operations -----------------------------------------------------

    @abstractmethod
    def split(
        self, shard_id: int, points: Sequence[Tuple[float, float]] = ()
    ) -> "KdSplitPartition":
        """A new partition with ``shard_id``'s cell split in two.

        The split leaf keeps its id and the new sibling is appended at
        ``num_shards`` — every other shard keeps both its id and its cell,
        so shard ids are a deterministic function of the action sequence
        (nothing else depends on the numbering: no backend holds per-shard
        state).  ``points`` (endpoint samples inside the cell) place the cut
        at the load median; without a sample the cut is the cell midpoint on
        its wider axis.
        """

    @abstractmethod
    def merge(self, a: int, b: int) -> "KdSplitPartition":
        """A new partition with sibling cells ``a`` and ``b`` coalesced.

        Only *sibling* leaves — cells whose union is exactly their parent's
        cell — can merge (:meth:`mergeable_pairs` enumerates them).  The
        merged cell takes ``min(a, b)``'s id; ids above ``max(a, b)`` shift
        down by one to keep shard ids contiguous.
        """

    @abstractmethod
    def mergeable_pairs(self) -> List[Tuple[int, int]]:
        """All ``(a, b)`` sibling leaf pairs eligible for :meth:`merge`."""


class UniformGridPartition(Partition):
    """Point-to-shard assignment over an R x C partition of the bounds.

    Uses the same clamped floor arithmetic as :class:`GridIndex`, so ownership
    is monotone in each coordinate: any query rectangle maps to a contiguous
    inclusive range of shard rows and columns, and a point inside the
    rectangle is always owned by a shard in that range (including points
    clamped in from outside the monitored area).
    """

    kind = "uniform"

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
        col = int((point.x - self.bounds.low.x) / self._shard_width)
        row = int((point.y - self.bounds.low.y) / self._shard_height)
        return (
            min(max(col, 0), self.cols - 1),
            min(max(row, 0), self.rows - 1),
        )

    def shard_id_of(self, point: Point) -> int:
        col, row = self.cell_of(point)
        return row * self.cols + col

    def span_of(self, region: Rectangle) -> Tuple[int, int, int, int]:
        """Inclusive ``(col_lo, col_hi, row_lo, row_hi)`` shard range of ``region``."""
        col_lo, row_lo = self.cell_of(region.low)
        col_hi, row_hi = self.cell_of(region.high)
        return col_lo, col_hi, row_lo, row_hi

    def shard_ids_overlapping(self, region: Rectangle) -> Iterator[int]:
        col_lo, col_hi, row_lo, row_hi = self.span_of(region)
        for row in range(row_lo, row_hi + 1):
            base = row * self.cols
            for col in range(col_lo, col_hi + 1):
                yield base + col

    def single_shard_of(self, region: Rectangle) -> Optional[int]:
        col_lo, col_hi, row_lo, row_hi = self.span_of(region)
        if col_lo != col_hi or row_lo != row_hi:
            return None
        return row_lo * self.cols + col_lo

    def sub_bounds(self, col: int, row: int) -> Rectangle:
        """The sub-rectangle covered by shard ``(col, row)``.

        The last row/column extends exactly to the global bounds so no strip
        of the area is lost to floating-point division.
        """
        low = Point(
            self.bounds.low.x + col * self._shard_width,
            self.bounds.low.y + row * self._shard_height,
        )
        high = Point(
            self.bounds.high.x if col == self.cols - 1 else low.x + self._shard_width,
            self.bounds.high.y if row == self.rows - 1 else low.y + self._shard_height,
        )
        return Rectangle(low, high)

    def shard_bounds(self, shard_id: int) -> Rectangle:
        row, col = divmod(shard_id, self.cols)
        return self.sub_bounds(col, row)

    def describe(self) -> tuple:
        return (
            "uniform",
            self.rows,
            self.cols,
            self.bounds.low.as_tuple(),
            self.bounds.high.as_tuple(),
        )

    # -- elastic operations -----------------------------------------------------

    def to_kd(self) -> "KdSplitPartition":
        """The kd-tree equivalent of this grid, shard ids preserved.

        Guillotine-cuts the cell range recursively (columns before rows) at
        the exact grid-line coordinates and labels each leaf with its
        row-major shard id, so the kd tree reports the same ids over the
        same cells.  Elastic split/merge then operates on the tree — a
        uniform fleet's first elastic action migrates it onto the kd
        representation once and stays there.
        """
        leaf_bounds: List[Optional[Rectangle]] = [None] * self.num_shards

        def build(col_lo: int, col_hi: int, row_lo: int, row_hi: int) -> _KdNode:
            if col_hi - col_lo == 1 and row_hi - row_lo == 1:
                shard_id = row_lo * self.cols + col_lo
                leaf_bounds[shard_id] = self.sub_bounds(col_lo, row_lo)
                return shard_id
            if col_hi - col_lo >= row_hi - row_lo and col_hi - col_lo > 1:
                cut = (col_lo + col_hi) // 2
                value = self.bounds.low.x + cut * self._shard_width
                return (
                    0,
                    value,
                    build(col_lo, cut, row_lo, row_hi),
                    build(cut, col_hi, row_lo, row_hi),
                )
            cut = (row_lo + row_hi) // 2
            value = self.bounds.low.y + cut * self._shard_height
            return (
                1,
                value,
                build(col_lo, col_hi, row_lo, cut),
                build(col_lo, col_hi, cut, row_hi),
            )

        root = build(0, self.cols, 0, self.rows)
        return KdSplitPartition(self.bounds, root, leaf_bounds)

    def split(
        self, shard_id: int, points: Sequence[Tuple[float, float]] = ()
    ) -> "KdSplitPartition":
        return self.to_kd().split(shard_id, points)

    def merge(self, a: int, b: int) -> "KdSplitPartition":
        return self.to_kd().merge(a, b)

    def mergeable_pairs(self) -> List[Tuple[int, int]]:
        return self.to_kd().mergeable_pairs()


class KdSplitPartition(Partition):
    """Leaves of a kd-split tree: non-uniform cells fitted to point density.

    Built by :meth:`fit`: recursive splits on the wider axis of each cell, at
    the weighted quantile of the sample coordinates that sends each side a
    leaf count proportional to its sample mass — i.e. recursive median
    splits when the leaf count is a power of two.  Leaves are numbered in
    in-order (left-to-right) traversal order, so shard ids are a
    deterministic function of the fitted splits.

    The tree divides the whole plane: coordinates below a split descend
    left, coordinates at or above it descend right, and border cells are
    unbounded — the kd equivalent of the uniform grid's clamping.
    :meth:`shard_bounds` reports each leaf cell clipped to the monitored
    bounds (every split lies strictly inside its cell, so clipped cells
    always have positive area and can seat a per-shard grid index).
    """

    kind = "kd"

    def __init__(self, bounds: Rectangle, root: _KdNode, leaf_bounds: Sequence[Rectangle]) -> None:
        self.bounds = bounds
        self._root = root
        self._leaf_bounds: List[Rectangle] = list(leaf_bounds)

    # -- construction -----------------------------------------------------------

    @classmethod
    def fit(
        cls,
        bounds: Rectangle,
        num_shards: int,
        points: Sequence[Tuple[float, float]] = (),
    ) -> "KdSplitPartition":
        """Fit a ``num_shards``-leaf kd partition to a point sample.

        ``points`` are ``(x, y)`` tuples (endpoint density samples); with no
        sample every split falls back to the cell midpoint, which degrades to
        a balanced binary-space partition of the bounds.  The fit is a pure
        function of the *set* of samples: the sample is sorted per axis once
        up front (so sample order never changes the splits) and each split
        partitions the sorted lists in place — the whole fit is
        O(n log n + n log shards).
        """
        if num_shards <= 0:
            raise ConfigurationError(f"num_shards must be positive, got {num_shards}")
        if bounds.width <= 0 or bounds.height <= 0:
            raise ConfigurationError("partition bounds must have positive area")
        leaf_bounds: List[Rectangle] = []

        def split(
            cell: Rectangle,
            leaves: int,
            by_x: List[Tuple[float, float]],
            by_y: List[Tuple[float, float]],
        ) -> _KdNode:
            if leaves == 1:
                leaf_bounds.append(cell)
                return len(leaf_bounds) - 1
            left_leaves = (leaves + 1) // 2
            # The wider axis first; the other one only when the wider has no
            # representable coordinate strictly inside the cell (its extent
            # is a single ulp — halving a cell cut between samples a few
            # ulps apart gets there).
            for axis in (0, 1) if cell.width >= cell.height else (1, 0):
                low = cell.low.x if axis == 0 else cell.low.y
                high = cell.high.x if axis == 0 else cell.high.y
                value = cls._split_value(
                    [p[axis] for p in (by_x if axis == 0 else by_y)],
                    left_leaves / leaves,
                    low,
                    high,
                )
                if value is not None:
                    break
            else:
                raise ConfigurationError(
                    f"cannot fit {leaves} cells into {cell}: no coordinate lies "
                    "strictly inside it on either axis"
                )
            # Filtering the pre-sorted lists preserves their order, so each
            # tree level costs O(sample) — the sample is sorted once per
            # axis up front, never inside the recursion.
            left_x = [p for p in by_x if p[axis] < value]
            right_x = [p for p in by_x if p[axis] >= value]
            left_y = [p for p in by_y if p[axis] < value]
            right_y = [p for p in by_y if p[axis] >= value]
            if axis == 0:
                left_cell = Rectangle(cell.low, Point(value, cell.high.y))
                right_cell = Rectangle(Point(value, cell.low.y), cell.high)
            else:
                left_cell = Rectangle(cell.low, Point(cell.high.x, value))
                right_cell = Rectangle(Point(cell.low.x, value), cell.high)
            left = split(left_cell, left_leaves, left_x, left_y)
            right = split(right_cell, leaves - left_leaves, right_x, right_y)
            return (axis, value, left, right)

        sample = [(p[0], p[1]) for p in points]
        root = split(
            bounds,
            num_shards,
            sorted(sample),
            sorted(sample, key=lambda p: (p[1], p[0])),
        )
        return cls(bounds, root, leaf_bounds)

    @staticmethod
    def _split_value(
        coords: List[float], fraction: float, low: float, high: float
    ) -> Optional[float]:
        """The split coordinate: a sample quantile, clamped well inside the cell.

        The quantile is the midpoint of two adjacent sorted samples — which
        coincides with a sample coordinate when duplicates surround the cut
        (the coordinate then routes right, like any on-split point).  What
        rules out degenerate cells is the clamp, not the midpoint: a quantile
        cut is refused — and the cell midpoint used instead — whenever it
        would leave a side without a coordinate strictly inside it (empty
        sample, all coordinates equal, a cut on or within an ulp of the cell
        edge), so only halving ever produces a cell one ulp wide.  Such a
        cell has no strictly interior coordinate at all (its "midpoint"
        rounds onto an edge, and a cut there would leave a zero-extent
        sibling): ``None``, and the caller cuts the other axis.
        """

        def roomy(a: float, b: float) -> bool:
            return a < (a + b) / 2.0 < b

        if not roomy(low, high):
            return None
        midpoint = (low + high) / 2.0
        if len(coords) < 2:
            return midpoint
        cut = min(len(coords) - 1, max(1, round(fraction * len(coords))))
        value = (coords[cut - 1] + coords[cut]) / 2.0
        if not (roomy(low, value) and roomy(value, high)):
            return midpoint
        return value

    # -- partition interface ----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._leaf_bounds)

    def shard_id_of(self, point: Point) -> int:
        node = self._root
        while not isinstance(node, int):
            axis, value, left, right = node
            coordinate = point.x if axis == 0 else point.y
            node = left if coordinate < value else right
        return node

    def shard_ids_overlapping(self, region: Rectangle) -> Iterator[int]:
        stack: List[_KdNode] = [self._root]
        found: List[int] = []
        while stack:
            node = stack.pop()
            if isinstance(node, int):
                found.append(node)
                continue
            axis, value, left, right = node
            low = region.low.x if axis == 0 else region.low.y
            high = region.high.x if axis == 0 else region.high.y
            if high >= value:
                stack.append(right)
            if low < value:
                stack.append(left)
        # Ascending id order, matching the uniform grid's iteration contract.
        return iter(sorted(found))

    def shard_bounds(self, shard_id: int) -> Rectangle:
        return self._leaf_bounds[shard_id]

    def single_shard_of(self, region: Rectangle) -> Optional[int]:
        node = self._root
        while not isinstance(node, int):
            axis, value, left, right = node
            low = region.low.x if axis == 0 else region.low.y
            high = region.high.x if axis == 0 else region.high.y
            if high < value:
                node = left
            elif low >= value:
                node = right
            else:
                return None
        return node

    def describe(self) -> tuple:
        def serialize(node: _KdNode) -> tuple:
            if isinstance(node, int):
                return ("leaf", node)
            axis, value, left, right = node
            return (axis, value, serialize(left), serialize(right))

        return (
            "kd",
            self.bounds.low.as_tuple(),
            self.bounds.high.as_tuple(),
            serialize(self._root),
        )

    # -- elastic operations -----------------------------------------------------

    def split(
        self, shard_id: int, points: Sequence[Tuple[float, float]] = ()
    ) -> "KdSplitPartition":
        if not 0 <= shard_id < self.num_shards:
            raise ConfigurationError(
                f"cannot split shard {shard_id}: partition has {self.num_shards} shards"
            )
        cell = self._leaf_bounds[shard_id]
        axis = 0 if cell.width >= cell.height else 1
        low = cell.low.x if axis == 0 else cell.low.y
        high = cell.high.x if axis == 0 else cell.high.y
        if not low < (low + high) / 2.0 < high:
            raise ConfigurationError(
                f"cannot split shard {shard_id}: cell extent degenerate at {low}..{high}"
            )
        inside = sorted(
            p[axis]
            for p in points
            if cell.low.x <= p[0] <= cell.high.x and cell.low.y <= p[1] <= cell.high.y
        )
        value = self._split_value(inside, 0.5, low, high)
        new_id = self.num_shards
        if axis == 0:
            left_cell = Rectangle(cell.low, Point(value, cell.high.y))
            right_cell = Rectangle(Point(value, cell.low.y), cell.high)
        else:
            left_cell = Rectangle(cell.low, Point(cell.high.x, value))
            right_cell = Rectangle(Point(cell.low.x, value), cell.high)

        def rebuild(node: _KdNode) -> _KdNode:
            if isinstance(node, int):
                return (axis, value, shard_id, new_id) if node == shard_id else node
            node_axis, node_value, left, right = node
            return (node_axis, node_value, rebuild(left), rebuild(right))

        leaf_bounds = list(self._leaf_bounds)
        leaf_bounds[shard_id] = left_cell
        leaf_bounds.append(right_cell)
        return KdSplitPartition(self.bounds, rebuild(self._root), leaf_bounds)

    def merge(self, a: int, b: int) -> "KdSplitPartition":
        if a == b or not (0 <= a < self.num_shards and 0 <= b < self.num_shards):
            raise ConfigurationError(
                f"cannot merge shards {a} and {b} in a {self.num_shards}-shard partition"
            )
        pair = {a, b}
        keep, drop = min(a, b), max(a, b)
        found = False

        def rebuild(node: _KdNode) -> _KdNode:
            nonlocal found
            if isinstance(node, int):
                return node - 1 if node > drop else node
            node_axis, node_value, left, right = node
            if isinstance(left, int) and isinstance(right, int) and {left, right} == pair:
                found = True
                return keep
            return (node_axis, node_value, rebuild(left), rebuild(right))

        root = rebuild(self._root)
        if not found:
            raise ConfigurationError(
                f"shards {a} and {b} are not sibling cells; only siblings can merge "
                f"(see mergeable_pairs())"
            )
        cell_a, cell_b = self._leaf_bounds[a], self._leaf_bounds[b]
        merged = Rectangle(
            Point(min(cell_a.low.x, cell_b.low.x), min(cell_a.low.y, cell_b.low.y)),
            Point(max(cell_a.high.x, cell_b.high.x), max(cell_a.high.y, cell_b.high.y)),
        )
        leaf_bounds: List[Rectangle] = []
        for old_id, bounds in enumerate(self._leaf_bounds):
            if old_id == keep:
                leaf_bounds.append(merged)
            elif old_id != drop:
                leaf_bounds.append(bounds)
        return KdSplitPartition(self.bounds, root, leaf_bounds)

    def mergeable_pairs(self) -> List[Tuple[int, int]]:
        pairs: List[Tuple[int, int]] = []

        def walk(node: _KdNode) -> None:
            if isinstance(node, int):
                return
            _axis, _value, left, right = node
            if isinstance(left, int) and isinstance(right, int):
                pairs.append((min(left, right), max(left, right)))
            walk(left)
            walk(right)

        walk(self._root)
        return sorted(pairs)


def create_partition(kind: str, bounds: Rectangle, num_shards: int) -> Partition:
    """Build the initial partition of a fresh router (no density data yet).

    ``uniform`` factors ``num_shards`` into the most square R x C grid;
    ``kd`` fits a sample-free kd partition (midpoint splits — a balanced
    binary-space partition the rebalance protocol refits once load exists).
    """
    if kind == "uniform":
        rows, cols = shard_layout(num_shards)
        return UniformGridPartition(bounds, rows, cols)
    if kind == "kd":
        return KdSplitPartition.fit(bounds, num_shards)
    raise ConfigurationError(
        f"partition must be one of {', '.join(PARTITION_KINDS)}, got {kind!r}"
    )
