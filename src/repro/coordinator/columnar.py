"""Columnar (structure-of-arrays) kernels for the coordinator hot path.

The scalar pipeline spends its epochs in per-object python geometry: grid-cell
membership tests, closed-interval rectangle containment, FSA intersection
scans and the region tie-break loops of the overlap queries.  The grid of
Section 5.1 exists to keep 1-3 entries per cell, so a kernel that vectorises
*inside* a cell pays numpy's per-call overhead on arrays of one to three
rows; the batching unit here is the **epoch** instead (SinglePath runs once
per epoch over the whole batch of state messages):

* :class:`EndpointTable` — the endpoint entries of one
  :class:`~repro.coordinator.grid_index.GridIndex`: one flat SoA table of its
  *end* entries, so a region query is a single mask over the table, and a
  hash from a path's exact start vertex to its entries, which answers the two
  exact-match lookups without numpy.
* :class:`RegionTable` — a lazily built SoA view over an
  :class:`~repro.coordinator.overlaps.FsaOverlapStructure`'s region table,
  ranked once in each query's total order, so a query is one mask and its
  first set bit; the batched forms answer many points / many FSAs at once.
* :func:`end_entries_in` — the states x end-entries broadcast of the epoch
  pass (:func:`repro.coordinator.single_path.prefetch_vertex_candidates`).
* :class:`ShipmentRing` / :func:`decode_work_shipment` — the shared-memory
  transport of :class:`~repro.coordinator.execution.ProcessBackend`: one
  reusable ``multiprocessing.shared_memory`` block per worker carrying its
  share of the epoch's cache-missed FSA pools as packed ``int64``/``float64``
  sections, so build workers read arrays instead of unpickling per-member
  tuples.

**Exactness.**  Every kernel is required to be bit-for-bit equal to the
scalar reference (``kernel="object"``), which stays the pinned
differential baseline exactly like ``--epoch-mode full`` does for the delta
pipeline.  The equality argument is mechanical: coordinates are stored
verbatim (python floats and ``float64`` are the same IEEE doubles, and
``==`` / ``<=`` agree), areas are computed with the same two double
multiplications, and wherever the scalar code breaks ties by encounter
order the ranking carries the insertion index as its last sort key.
``tests/test_columnar_equivalence.py`` enforces the contract over the
full harness matrix and with hypothesis kernel-level suites.

**Scale.**  A region query scans every live end entry of its index —
O(entries) per epoch batch, hundreds of records at the benchmark's sizes.
No cell-pruned variant is kept beside it; if a workload with >= 10^4 paths
per shard shows the scan, sorting the table by cell is the fix.

numpy is an optional dependency: without it :func:`resolve_kernel` degrades
``columnar`` to ``object`` (logging one warning per process) so every
configuration keeps working on a bare interpreter.
"""

from __future__ import annotations

import logging
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle

try:  # pragma: no cover - exercised implicitly by every columnar test
    import numpy as _np
except ImportError:  # pragma: no cover - the container bakes numpy in
    _np = None

__all__ = [
    "KERNELS",
    "HAVE_NUMPY",
    "resolve_kernel",
    "EndpointTable",
    "RegionTable",
    "concat_end_tables",
    "end_entries_in",
    "overlapping_pairs",
    "ShipmentRing",
    "decode_work_shipment",
    "close_attachments",
]

HAVE_NUMPY = _np is not None

#: Values accepted by the ``kernel`` knob (config layers and ``--kernel``):
#: ``object`` is the scalar per-object reference pipeline; ``columnar`` (the
#: default) runs the vectorized kernels of this module, bit-for-bit equal.
KERNELS: Tuple[str, ...] = ("object", "columnar")

_log = logging.getLogger(__name__)
_degrade_logged = False


def resolve_kernel(kernel: str) -> str:
    """Validate a kernel name, degrading ``columnar`` without numpy.

    The fallback is deliberate rather than an error: the two kernels are
    bit-for-bit equal, so a numpy-less interpreter running the scalar
    reference is a performance change, never a behaviour change.  It is
    logged once per process so the slower kernel is not a silent surprise.
    """
    global _degrade_logged
    if kernel not in KERNELS:
        raise ConfigurationError(
            f"kernel must be one of {', '.join(KERNELS)}, got {kernel!r}"
        )
    if kernel == "columnar" and not HAVE_NUMPY:
        if not _degrade_logged:
            _degrade_logged = True
            _log.warning(
                "numpy is not installed: kernel 'columnar' degrades to the scalar "
                "'object' kernel (same answers, scalar speed)"
            )
        return "object"
    return kernel


#: Cells of one transient broadcast (rows x columns of a boolean mask); the
#: batched kernels chunk their row axis so a large epoch against a large
#: table never materialises more than this at once.
_BROADCAST_CELLS = 1 << 20


def _row_chunks(rows: int, columns: int) -> Iterator[slice]:
    step = max(1, _BROADCAST_CELLS // max(1, columns))
    for start in range(0, rows, step):
        yield slice(start, start + step)


def _bounds(rectangles: Sequence[Rectangle]):
    """An ``(n, 4)`` array of ``(low x, low y, high x, high y)`` rows."""
    return _np.array(
        [(r.low.x, r.low.y, r.high.x, r.high.y) for r in rectangles], dtype=_np.float64
    ).reshape(len(rectangles), 4)


def _box_columns(rectangles: Sequence[Rectangle]):
    """:func:`_bounds` as four column vectors, to broadcast against a table's rows."""
    boxes = _bounds(rectangles)
    return tuple(boxes[:, column, None] for column in range(4))


def concat_end_tables(tables: Sequence[tuple]) -> tuple:
    """One ``(path ids, xs, ys)`` table out of many (a fleet's shards)."""
    return tuple(_np.concatenate(columns) for columns in zip(*tables))


def end_entries_in(end_table: tuple, regions: Sequence[Rectangle]):
    """Every (region, end entry inside it) pair, in one broadcast.

    ``end_table`` is an index's ``(path ids, xs, ys)`` columns
    (:meth:`EndpointTable.end_columns`).  Returns four parallel python lists
    ``(region indexes, path ids, xs, ys)`` sorted by region — closed
    containment, the batched form of :meth:`EndpointTable.end_rows_in`.
    """
    pids, xs, ys = end_table
    lx, ly, hx, hy = _box_columns(regions)
    region_hits, row_hits = [], []
    for chunk in _row_chunks(len(regions), len(xs)):
        mask = (lx[chunk] <= xs) & (xs <= hx[chunk]) & (ly[chunk] <= ys) & (ys <= hy[chunk])
        region_index, row_index = _np.nonzero(mask)
        region_hits.append(region_index + chunk.start)
        row_hits.append(row_index)
    if not row_hits:
        return [], [], [], []
    rows = _np.concatenate(row_hits)
    return (
        _np.concatenate(region_hits).tolist(),
        pids[rows].tolist(),
        xs[rows].tolist(),
        ys[rows].tolist(),
    )


def overlapping_pairs(rectangles: Sequence[Rectangle]):
    """Index pairs ``i < j`` of rectangles sharing positive area, in one broadcast.

    The edges of the epoch's overlap components
    (:func:`repro.coordinator.overlaps.plan_shard_overlaps`): strict
    comparisons, because an intersection of zero width or height is dropped
    by the build as well.
    """
    lx, ly, hx, hy = _box_columns(rectangles)
    firsts, seconds = [], []
    for chunk in _row_chunks(len(rectangles), len(rectangles)):
        mask = (_np.maximum(lx[chunk], lx.T) < _np.minimum(hx[chunk], hx.T)) & (
            _np.maximum(ly[chunk], ly.T) < _np.minimum(hy[chunk], hy.T)
        )
        first, second = _np.nonzero(mask)
        first += chunk.start
        above = first < second
        firsts.append(first[above])
        seconds.append(second[above])
    if not firsts:
        return []
    return zip(_np.concatenate(firsts).tolist(), _np.concatenate(seconds).tolist())


# ---------------------------------------------------------------------------
# Grid-index endpoint table
# ---------------------------------------------------------------------------

_INITIAL_CAPACITY = 64

#: ``(path_id, is_start)`` — the entry key of the object kernel's cell dicts.
EntryKey = Tuple[int, bool]


class EndpointTable:
    """The endpoint entries of one grid index under the columnar kernel.

    ``pids, ex, ey`` are parallel capacity-doubling columns over the *end*
    entries (``_rows`` maps a path id to its row; removal swaps the last row
    in, so the table is always dense in ``[0, count)``): a region query is
    one mask over them, whatever the number of grid cells it overlaps.
    ``_by_start`` maps a path's start vertex to ``{entry key: path end}`` for
    every entry — start entries (indexed at that vertex) and end entries
    (whose *other* endpoint it is) alike — so ``paths_starting_at`` and
    ``paths_from_into`` are one dict probe and a scan of that vertex's
    paths.
    """

    __slots__ = ("count", "pids", "ex", "ey", "_rows", "_by_start", "_start_of")

    def __init__(self) -> None:
        self.count = 0
        self.pids = _np.empty(_INITIAL_CAPACITY, dtype=_np.int64)
        self.ex = _np.empty(_INITIAL_CAPACITY, dtype=_np.float64)
        self.ey = _np.empty(_INITIAL_CAPACITY, dtype=_np.float64)
        self._rows: Dict[int, int] = {}
        self._by_start: Dict[Point, Dict[EntryKey, Point]] = {}
        self._start_of: Dict[EntryKey, Point] = {}

    def __len__(self) -> int:
        return len(self._start_of)

    def upsert(self, key: EntryKey, endpoint: Point, other: Point) -> None:
        """Insert or overwrite one entry (matches the scalar dict assignment)."""
        if key in self._start_of:
            self.remove(key)
        path_id, is_start = key
        start, end = (endpoint, other) if is_start else (other, endpoint)
        self._start_of[key] = start
        self._by_start.setdefault(start, {})[key] = end
        if is_start:
            return
        row = self.count
        if row == len(self.pids):
            for name in ("pids", "ex", "ey"):
                column = getattr(self, name)
                grown = _np.empty(2 * row, dtype=column.dtype)
                grown[:row] = column
                setattr(self, name, grown)
        self.count = row + 1
        self._rows[path_id] = row
        self.pids[row] = path_id
        self.ex[row] = end.x
        self.ey[row] = end.y

    def remove(self, key: EntryKey) -> None:
        """Drop one entry; an absent key is a no-op."""
        start = self._start_of.pop(key, None)
        if start is None:
            return
        bucket = self._by_start[start]
        del bucket[key]
        if not bucket:
            del self._by_start[start]
        if key[1]:
            return
        row = self._rows.pop(key[0])
        last = self.count - 1
        if row != last:
            self._rows[int(self.pids[last])] = row
            self.pids[row] = self.pids[last]
            self.ex[row] = self.ex[last]
            self.ey[row] = self.ey[last]
        self.count = last

    # -- exact-match lookups (no numpy) ---------------------------------------

    def starting_at(self, start: Point, region: Rectangle) -> List[int]:
        """Case 1: start entries at ``start`` whose path ends inside ``region``."""
        return [
            path_id
            for (path_id, is_start), end in self._by_start.get(start, {}).items()
            if is_start and region.contains_point(end)
        ]

    def from_into(self, start: Point, region: Rectangle) -> List[int]:
        """End entries inside ``region`` whose path starts at ``start``."""
        return [
            path_id
            for (path_id, is_start), end in self._by_start.get(start, {}).items()
            if not is_start and region.contains_point(end)
        ]

    # -- region scans (one mask over the end columns) -------------------------------

    def end_columns(self):
        """Live views ``(path ids, xs, ys)`` of the end entries."""
        n = self.count
        return self.pids[:n], self.ex[:n], self.ey[:n]

    def end_rows_in(self, region: Rectangle):
        """Case 2: ``(path ids, xs, ys)`` of the end entries inside ``region``."""
        pids, xs, ys = self.end_columns()
        mask = (region.low.x <= xs) & (xs <= region.high.x)
        mask &= (region.low.y <= ys) & (ys <= region.high.y)
        return pids[mask], xs[mask], ys[mask]

    def endpoints_in(self, region: Rectangle) -> List[int]:
        """Path ids (possibly repeated) with an indexed endpoint inside ``region``."""
        found = self.end_rows_in(region)[0].tolist()
        for start, bucket in self._by_start.items():
            if region.contains_point(start):
                found.extend(path_id for path_id, is_start in bucket if is_start)
        return found

    def indexed_endpoints(self) -> Iterator[Point]:
        """The indexed endpoint of every entry (occupancy diagnostics)."""
        for start, bucket in self._by_start.items():
            for (_path_id, is_start), end in bucket.items():
                yield start if is_start else end


# ---------------------------------------------------------------------------
# Overlap-structure region table
# ---------------------------------------------------------------------------


class RegionTable:
    """SoA query accelerator over an overlap structure's region dict.

    Built once per structure (lazily, invalidated by ``add``) from the
    regions *in insertion order*, and ranked once in each query's total
    order with that order as the last sort key:

    * smallest containing region — min by ``(area, -count, insertion index)``;
    * hottest intersecting region — min by ``(-count, area, insertion index)``.

    Each ranking keeps its own copy of the bound columns in rank order, so a
    query is one mask and its first set bit — by construction the winner of
    the scalar loops' first-encountered-wins tie-breaks.  Winners are
    insertion indexes into ``members`` / ``rects`` / ``counts``.
    """

    __slots__ = ("members", "rects", "counts", "_smallest", "_hottest")

    def __init__(self, regions: Dict) -> None:
        self.members = list(regions.keys())
        self.rects = list(regions.values())
        self.counts = [len(members) for members in self.members]
        bounds = _bounds(self.rects)
        lx, ly, hx, hy = bounds.T
        # The same two IEEE multiplications Rectangle.area performs, so a
        # float area tie in the scalar loop is a float area tie here too.
        area = (hx - lx) * (hy - ly)
        neg_count = -_np.array(self.counts, dtype=_np.int64)
        index = _np.arange(len(self.rects))
        self._smallest = self._ranked(_np.lexsort((index, neg_count, area)), bounds)
        self._hottest = self._ranked(_np.lexsort((index, area, neg_count)), bounds)

    @staticmethod
    def _ranked(rank, bounds):
        lx, ly, hx, hy = _np.ascontiguousarray(bounds[rank].T)
        return rank, lx, ly, hx, hy

    @staticmethod
    def _first_hit(rank, mask) -> Optional[int]:
        if not rank.size:
            return None
        first = int(mask.argmax())
        return int(rank[first]) if mask[first] else None

    @staticmethod
    def _first_hits(rank, mask) -> List[int]:
        """Per mask row, the insertion index of its first set bit, or -1."""
        if not rank.size:
            return [-1] * len(mask)
        first = mask.argmax(axis=1)
        hit = mask[_np.arange(len(mask)), first]
        return _np.where(hit, rank[first], -1).tolist()

    def smallest_containing(self, point: Point) -> Optional[int]:
        """Index of the scalar winner of ``smallest_region_containing``."""
        rank, lx, ly, hx, hy = self._smallest
        mask = (lx <= point.x) & (point.x <= hx) & (ly <= point.y) & (point.y <= hy)
        return self._first_hit(rank, mask)

    def hottest_intersecting(self, fsa: Rectangle) -> Optional[int]:
        """Index of the scalar winner of ``hottest_region_intersecting``."""
        rank, lx, ly, hx, hy = self._hottest
        mask = (lx <= fsa.high.x) & (fsa.low.x <= hx)
        mask &= (ly <= fsa.high.y) & (fsa.low.y <= hy)
        return self._first_hit(rank, mask)

    def smallest_containing_many(self, points: Sequence[Point]) -> List[int]:
        """Per point, :meth:`smallest_containing`'s winner (-1 for none)."""
        rank, lx, ly, hx, hy = self._smallest
        xs = _np.array([point.x for point in points], dtype=_np.float64)[:, None]
        ys = _np.array([point.y for point in points], dtype=_np.float64)[:, None]
        winners: List[int] = []
        for chunk in _row_chunks(len(points), rank.size):
            x, y = xs[chunk], ys[chunk]
            winners.extend(
                self._first_hits(rank, (lx <= x) & (x <= hx) & (ly <= y) & (y <= hy))
            )
        return winners

    def hottest_intersecting_many(self, fsas: Sequence[Rectangle]) -> List[int]:
        """Per FSA, :meth:`hottest_intersecting`'s winner (-1 for none)."""
        rank, lx, ly, hx, hy = self._hottest
        f_lx, f_ly, f_hx, f_hy = _box_columns(fsas)
        winners: List[int] = []
        for chunk in _row_chunks(len(fsas), rank.size):
            mask = (lx <= f_hx[chunk]) & (f_lx[chunk] <= hx)
            mask &= (ly <= f_hy[chunk]) & (f_ly[chunk] <= hy)
            winners.extend(self._first_hits(rank, mask))
        return winners


# ---------------------------------------------------------------------------
# Shared-memory epoch shipments (ProcessBackend transport)
# ---------------------------------------------------------------------------
#
# Wire layout of one "work" shipment inside a worker's shared block: an
# ``int64`` section followed by a ``float64`` section (the float offset is
# the block's integer capacity, carried in the pipe header so parent and
# worker never disagree about it).  Section order is fixed:
#
#   ints:   pools[n_pools, 2]  -- (pool_index, member_count)
#           members[n_entries] -- object ids, pool-concatenated
#   floats: members[n_entries, 4] -- FSA (lx, ly, hx, hy), pool-concatenated
#
# The pipe still carries a small header per shipment (and all replies), so
# it keeps providing the happens-before edge between the parent's writes
# and the worker's reads; the block itself is plain memory.


def _shipment_sections(buffer, int_capacity: int, n_pools: int, n_entries: int):
    """``(pools, member ids, member FSAs)`` views of a block, per the layout above."""
    ints = _np.ndarray((2 * n_pools + n_entries,), dtype=_np.int64, buffer=buffer)
    floats = _np.ndarray(
        (n_entries, 4), dtype=_np.float64, buffer=buffer, offset=8 * int_capacity
    )
    return ints[: 2 * n_pools].reshape(n_pools, 2), ints[2 * n_pools :], floats


class ShipmentRing:
    """One worker's reusable shared-memory shipment block (parent side).

    Grows geometrically and is reused across epochs, so the steady state
    allocates nothing: the parent packs the worker's share of each epoch's
    cache-missed FSA pools into the existing block and ships a constant-size
    header over the pipe.  ``pack`` returns that header;
    :func:`decode_work_shipment` is its worker-side inverse.
    """

    __slots__ = ("_shm", "_int_capacity", "_float_capacity")

    def __init__(self) -> None:
        self._shm = None
        self._int_capacity = 0
        self._float_capacity = 0

    def _ensure_capacity(self, ints: int, floats: int) -> None:
        if self._shm is not None and ints <= self._int_capacity and floats <= self._float_capacity:
            return
        from multiprocessing import shared_memory

        int_capacity = max(self._int_capacity * 2, ints, 256)
        float_capacity = max(self._float_capacity * 2, floats, 256)
        if self._shm is not None:
            self.close(unlink=True)
        self._shm = shared_memory.SharedMemory(
            create=True, size=8 * (int_capacity + float_capacity)
        )
        self._int_capacity = int_capacity
        self._float_capacity = float_capacity

    def pack(self, overlap_tasks) -> tuple:
        """Write one build shipment; returns the ``("work_shm", ...)`` header."""
        n_pools = len(overlap_tasks)
        n_entries = sum(len(members) for _pool_index, members in overlap_tasks)
        self._ensure_capacity(2 * n_pools + n_entries, 4 * n_entries)
        pool_ints, member_ints, member_floats = _shipment_sections(
            self._shm.buf, self._int_capacity, n_pools, n_entries
        )
        entry = 0
        for row, (pool_index, members) in enumerate(overlap_tasks):
            pool_ints[row] = (pool_index, len(members))
            for object_id, f_lx, f_ly, f_hx, f_hy in members:
                member_ints[entry] = object_id
                member_floats[entry] = (f_lx, f_ly, f_hx, f_hy)
                entry += 1
        return ("work_shm", self._shm.name, self._int_capacity, n_pools, n_entries)

    def close(self, unlink: bool = True) -> None:
        """Release the block (and destroy it with ``unlink=True``)."""
        if self._shm is None:
            return
        try:
            self._shm.close()
            if unlink:
                self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - defensive
            pass
        self._shm = None
        self._int_capacity = 0
        self._float_capacity = 0


def _open_untracked(name: str):
    """Attach to the parent's block without telling the resource tracker.

    The tracker is for segments a process *owns*; ownership stays with the
    parent's :class:`ShipmentRing`.  A forked worker shares the parent's
    tracker process, so registering the attachment and unregistering it
    again (the usual bpo-39959 workaround) removes the **parent's** entry:
    the parent's ``unlink()`` then makes the tracker print a ``KeyError``
    traceback, and until then nothing would reclaim the block if the parent
    died abnormally.  Python 3.13 has ``track=False`` for this; below it the
    ``register`` call is suppressed around the attach — safe here because the
    worker loop is single-threaded, so no owned segment can be created in
    the gap.
    """
    import sys
    from multiprocessing import resource_tracker, shared_memory

    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    register = resource_tracker.register
    resource_tracker.register = lambda *_args, **_kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _attach(name: str, attachments: Dict[str, object]):
    """Worker-side attach with caching (see :func:`_open_untracked`)."""
    shm = attachments.get(name)
    if shm is None:
        shm = _open_untracked(name)
        # A reallocation (new name) replaces the ring wholesale, so stale
        # attachments can be dropped as soon as a new name arrives.
        for stale in list(attachments.values()):
            try:
                stale.close()
            except OSError:  # pragma: no cover - defensive
                pass
        attachments.clear()
        attachments[name] = shm
    return shm


def decode_work_shipment(header: Sequence, attachments: Dict[str, object]):
    """Worker-side inverse of :meth:`ShipmentRing.pack`.

    Returns ``overlap_tasks`` in exactly the shape the pickled pipe protocol
    ships, so the worker loop downstream of the decode is transport-agnostic.
    """
    _kind, name, int_capacity, n_pools, n_entries = header
    pool_ints, member_ints, member_floats = _shipment_sections(
        _attach(name, attachments).buf, int_capacity, n_pools, n_entries
    )
    overlap_tasks = []
    entry = 0
    for row in range(n_pools):
        pool_index, member_count = int(pool_ints[row, 0]), int(pool_ints[row, 1])
        members = [
            (
                int(member_ints[entry + offset]),
                float(member_floats[entry + offset, 0]),
                float(member_floats[entry + offset, 1]),
                float(member_floats[entry + offset, 2]),
                float(member_floats[entry + offset, 3]),
            )
            for offset in range(member_count)
        ]
        entry += member_count
        overlap_tasks.append((pool_index, members))
    return overlap_tasks


def close_attachments(attachments: Dict[str, object]) -> None:
    """Worker-side cleanup on shutdown."""
    for shm in attachments.values():
        try:
            shm.close()
        except OSError:  # pragma: no cover - defensive
            pass
    attachments.clear()
