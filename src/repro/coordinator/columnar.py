"""Columnar kernels for the coordinator hot path.

The scalar pipeline spends its epochs in per-object python geometry: grid-cell
membership tests, closed-interval rectangle containment, FSA intersection
scans and the region tie-break loops of the overlap queries.  The grid of
Section 5.1 exists to keep 1-3 entries per cell, so a kernel that vectorises
*inside* a cell pays numpy's per-call overhead on arrays of one to three
rows; the batching unit here is the **epoch** instead (SinglePath runs once
per epoch over the whole batch of state messages):

* :class:`EndpointTable` — the paths of one
  :class:`~repro.coordinator.grid_index.GridIndex`, one row each: their
  *ends* in plain lists sorted by end x, so a region query is two bisections
  and a closed y test on the x run between them, and a hash from the
  coordinates of a path's exact start vertex to ``{path id: end}``, which
  answers the exact-match lookups.  No numpy: an FSA's x run holds a few
  percent of the paths.
* :func:`touching_pairs` — the epoch's FSA-against-FSA pair pass: the pairs
  sharing positive area (the links of the overlap components) and the pairs
  that only touch along an edge or at a corner (which, with the first kind,
  link the *query components* of the epoch pass).  An x-sorted sweep, no
  numpy.
* :class:`RegionTable` — a lazily built SoA view over an
  :class:`~repro.coordinator.overlaps.FsaOverlapStructure`'s region boxes,
  ranked once in each query's total order, so a batch of points or FSAs is
  one mask and each row's first set bit.  It answers the batched queries of
  a structure whose batch is large enough to pay for it
  (:data:`repro.coordinator.overlaps.TABLE_WORK`); smaller batches and every
  single query run the structure's scalar loops.
* :class:`ShipmentRing` / :func:`decode_work_shipment` — the shared-memory
  transport of :class:`~repro.coordinator.execution.ProcessBackend`, used
  whenever numpy is installed, under either kernel: one reusable
  ``multiprocessing.shared_memory`` block per worker carrying its share of
  the epoch's cache-missed FSA pools as packed ``int64``/``float64``
  sections, so build workers read arrays instead of unpickling per-member
  tuples.  The float section stores every coordinate as a ``float64``, so
  an ``int`` bound comes back as the equal ``float``.

**Exactness.**  Every kernel is required to be bit-for-bit equal to the
scalar reference (``kernel="object"``), which stays the pinned
differential baseline exactly like ``--epoch-mode full`` does for the delta
pipeline.  The equality argument is mechanical: coordinates are stored
verbatim (python floats and ``float64`` are the same IEEE doubles, and
``==`` / ``<=`` agree), areas are computed with the same two double
multiplications, and wherever the scalar code breaks ties by encounter
order the ranking carries the insertion index as its last sort key.
The exactness harness (``tests/test_differential.py``) enforces the
contract over the whole configuration matrix, and ``tests/test_columnar.py``
holds each kernel to a scalar reference with hypothesis.

**Scale.**  An end-table query costs two bisections plus one y test per
path whose end x lies in the box's x range, an insert or a removal one
bisection plus a list shift (a ``memmove`` over the live paths, hundreds
at the benchmark's sizes).  A workload whose boxes span most of the x range
would pay a y test per live path for every box.

**numpy is optional and imported on first use.**  :data:`HAVE_NUMPY` only
asks whether it is installed (``importlib.util.find_spec``); the module is
loaded by the first region table or shipment, which costs about 0.1 s once
per process and logs one line.  A paper-sized or served epoch stays below
the table cut-off, so such a process never loads it (13.7 MiB of
resident memory).  Without numpy installed :func:`resolve_kernel` degrades
``columnar`` to ``object`` (logging one warning per process) so every
configuration keeps working on a bare interpreter.
"""

from __future__ import annotations

import importlib.util
import logging
import time
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle

__all__ = [
    "KERNELS",
    "HAVE_NUMPY",
    "resolve_kernel",
    "EndpointTable",
    "RegionTable",
    "touching_pairs",
    "ShipmentRing",
    "decode_work_shipment",
    "close_attachments",
]

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

#: Values accepted by the ``kernel`` knob (config layers and ``--kernel``):
#: ``object`` is the scalar per-object reference pipeline; ``columnar`` (the
#: default) runs the vectorized kernels of this module, bit-for-bit equal.
KERNELS: Tuple[str, ...] = ("object", "columnar")

_log = logging.getLogger(__name__)
_degrade_logged = False
_np = None


def _numpy():
    """The numpy module, imported by the first caller that needs it."""
    global _np
    if _np is None:
        started = time.perf_counter()
        import numpy

        _np = numpy
        _log.info(
            "numpy imported for the first large batch (%.0f ms, once per process)",
            (time.perf_counter() - started) * 1000.0,
        )
    return _np


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


def _box_columns(boxes: Sequence[Tuple[float, float, float, float]]):
    """``(low x, low y, high x, high y)`` boxes as four column vectors, to
    broadcast against a table's rows."""
    np = _numpy()
    bounds = np.array(boxes, dtype=np.float64).reshape(len(boxes), 4)
    return tuple(bounds[:, column, None] for column in range(4))


# ---------------------------------------------------------------------------
# The epoch's pair pass
# ---------------------------------------------------------------------------

#: Pairs a list of ``(i, j)`` index pairs with ``i < j``.
Pairs = List[Tuple[int, int]]


def touching_pairs(boxes: Sequence[Tuple[float, float, float, float]]) -> Tuple[Pairs, Pairs]:
    """``(overlapping, touching)``: the index pairs ``i < j`` of boxes sharing
    positive area, and of boxes whose closed boxes meet with zero area (an
    edge or a corner in common).

    The first kind are the edges of the epoch's overlap components
    (:func:`repro.coordinator.overlaps.plan_shard_overlaps`): strict
    comparisons, because an intersection of zero width or height is dropped
    by the build as well.  Both kinds link its query components.  The test is
    the same either way: ``max(lows) <= min(highs)`` on both axes is a touch,
    ``<`` on both an overlap.  An x-sorted sweep (boxes by low x; each one
    against the boxes whose low x lies in its x range, found by one
    bisection) tests only the pairs whose x ranges meet.  It beats a numpy
    ``n x n`` broadcast on every bench workload (``sim_paper`` 23 against 52
    us an epoch, ``serve_closed`` 26 against 48, ``fleet_dense`` 22 against
    32, ``fleet_steady`` 79 against 130; 2-core Intel Xeon, CPython 3.11),
    so the pair pass never loads numpy.
    """
    count = len(boxes)
    order = sorted(range(count), key=[box[0] for box in boxes].__getitem__)
    lows = [boxes[index][0] for index in order]
    overlapping: Pairs = []
    touching: Pairs = []
    for slot, index in enumerate(order):
        _low_x, low_y, high_x, high_y = boxes[index]
        for other in order[slot + 1 : bisect_right(lows, high_x, slot + 1)]:
            # ``other``'s low x lies in [this low x, this high x]: the x
            # ranges meet, and ``other``'s low x is the larger low.
            other_low_x, other_low_y, other_high_x, other_high_y = boxes[other]
            top = other_low_y if other_low_y > low_y else low_y
            bottom = other_high_y if other_high_y < high_y else high_y
            if top > bottom:
                continue
            pair = (index, other) if index < other else (other, index)
            if top < bottom and other_low_x < (other_high_x if other_high_x < high_x else high_x):
                overlapping.append(pair)
            else:
                touching.append(pair)
    return overlapping, touching


# ---------------------------------------------------------------------------
# Grid-index endpoint table
# ---------------------------------------------------------------------------

#: One distinct end vertex of :meth:`EndpointTable.end_vertices_in`: the
#: vertex and the ids of the paths ending there.
VertexGroup = Tuple[Point, List[int]]


class EndpointTable:
    """The paths of one grid index under the columnar kernel, one row each.

    The paths' *ends* sit in four parallel lists sorted by end x — ``_xs``,
    ``_ys``, the end ``Point`` itself (``_ends``) and the path id
    (``_pids``).  An insert bisects to the right of its equal-x run, so
    ends of equal x keep insertion order; a removal bisects to the run and
    scans it for the path id.  A region query bisects the x column onto
    ``[low x, high x]`` and tests y on that run only, with the closed
    ``<=`` of ``Rectangle.contains_point``.  Among stored ends that compare
    equal but are different objects (``0.0`` / ``-0.0``, ``2`` / ``2.0``),
    the earliest insert is met first, so it becomes the vertex — the one the
    object kernel's cell dicts, which keep insertion order, meet first.

    ``_by_start`` maps a start vertex's ``(x, y)`` to ``{path id: end}`` of
    the paths starting there, in insertion order, so ``starting_at`` and
    ``path_between`` are one dict probe and a scan of that vertex's paths;
    ``_start_of`` maps a path id back to that key.  A path id is added at
    most once while it is live.

    No method hashes a ``Point``: every key is a coordinate tuple, which
    compares and hashes like the ``Point`` it stands for (``Point``'s
    generated ``__eq__`` and ``__hash__`` read the same tuple) at about a
    third of the cost of the dataclass's Python-level methods.  The start
    keys never leave the table; :meth:`end_vertices_in` returns its group
    keys.
    """

    __slots__ = ("_xs", "_ys", "_ends", "_pids", "_by_start", "_start_of")

    def __init__(self) -> None:
        self._xs: List[float] = []
        self._ys: List[float] = []
        self._ends: List[Point] = []
        self._pids: List[int] = []
        self._by_start: Dict[Tuple[float, float], Dict[int, Point]] = {}
        self._start_of: Dict[int, Tuple[float, float]] = {}

    def add_path(self, path_id: int, start: Point, end: Point) -> None:
        """Store the path ``start -> end`` under ``path_id``."""
        key = (start.x, start.y)
        self._start_of[path_id] = key
        self._by_start.setdefault(key, {})[path_id] = end
        row = bisect_right(self._xs, end.x)
        self._xs.insert(row, end.x)
        self._ys.insert(row, end.y)
        self._ends.insert(row, end)
        self._pids.insert(row, path_id)

    def remove_path(self, path_id: int) -> None:
        """Drop a path; an absent id is a no-op."""
        key = self._start_of.pop(path_id, None)
        if key is None:
            return
        bucket = self._by_start[key]
        end = bucket.pop(path_id)
        if not bucket:
            del self._by_start[key]
        pids = self._pids
        row = bisect_left(self._xs, end.x)
        while pids[row] != path_id:
            row += 1
        del self._xs[row], self._ys[row], self._ends[row], pids[row]

    # -- exact-match lookups ------------------------------------------------------

    def starting_at(self, start: Point, region: Rectangle) -> List[int]:
        """Case 1: paths starting at ``start`` whose end lies inside ``region``."""
        bucket = self._by_start.get((start.x, start.y))
        if bucket is None:
            return []
        return [path_id for path_id, end in bucket.items() if region.contains_point(end)]

    def path_between(self, start: Point, end: Point) -> Optional[int]:
        """The earliest-inserted live path from ``start`` ending at ``end``."""
        for path_id, stored_end in self._by_start.get((start.x, start.y), {}).items():
            if stored_end == end:
                return path_id
        return None

    # -- region queries (two bisections and a y test) -------------------------------

    def end_vertices_in(self, region: Rectangle) -> Dict[Tuple[float, float], VertexGroup]:
        """Case 2: the distinct end vertices inside ``region`` (closed
        bounds), each as ``(x, y) -> (vertex, ids of the paths ending
        there)``, by end x."""
        xs, ys, ends, pids = self._xs, self._ys, self._ends, self._pids
        first = bisect_left(xs, region.low.x)
        last = bisect_right(xs, region.high.x, first)
        low_y, high_y = region.low.y, region.high.y
        vertices: Dict[Tuple[float, float], VertexGroup] = {}
        for row in range(first, last):
            y = ys[row]
            if low_y <= y <= high_y:
                key = (xs[row], y)
                group = vertices.get(key)
                if group is None:
                    vertices[key] = (ends[row], [pids[row]])
                else:
                    group[1].append(pids[row])
        return vertices


# ---------------------------------------------------------------------------
# Overlap-structure region table
# ---------------------------------------------------------------------------


class RegionTable:
    """SoA query accelerator over an overlap structure's ``members -> box`` dict.

    Built once per structure (lazily, invalidated by ``add``) from the
    regions' ``(low x, low y, high x, high y)`` boxes *in insertion order* —
    one ``np.array`` over the stored tuples — and ranked once in each
    query's total order with that order as the last sort key:

    * smallest containing region — min by ``(area, -count, insertion index)``;
    * hottest intersecting region — min by ``(-count, area, insertion index)``.

    Each ranking keeps its own copy of the bound columns in rank order, so a
    batched query is one mask and each row's first set bit — by construction
    the winner of the scalar loops' first-encountered-wins tie-breaks.
    Winners are insertion indexes into ``members`` / ``boxes`` / ``counts``.
    """

    __slots__ = ("members", "boxes", "counts", "_smallest", "_hottest")

    def __init__(self, regions: Dict) -> None:
        self.members = list(regions.keys())
        self.boxes = list(regions.values())
        self.counts = [len(members) for members in self.members]
        np = _numpy()
        bounds = np.array(self.boxes, dtype=np.float64).reshape(len(self.boxes), 4)
        lx, ly, hx, hy = bounds.T
        # The same two IEEE multiplications Rectangle.area performs, so a
        # float area tie in the scalar loop is a float area tie here too.
        area = (hx - lx) * (hy - ly)
        neg_count = -np.array(self.counts, dtype=np.int64)
        index = np.arange(len(self.boxes))
        self._smallest = self._ranked(np.lexsort((index, neg_count, area)), bounds)
        self._hottest = self._ranked(np.lexsort((index, area, neg_count)), bounds)

    @staticmethod
    def _ranked(rank, bounds):
        lx, ly, hx, hy = _numpy().ascontiguousarray(bounds[rank].T)
        return rank, lx, ly, hx, hy

    @staticmethod
    def _first_hits(rank, mask) -> List[int]:
        """Per mask row, the insertion index of its first set bit, or -1."""
        if not rank.size:
            return [-1] * len(mask)
        np = _numpy()
        first = mask.argmax(axis=1)
        hit = mask[np.arange(len(mask)), first]
        return np.where(hit, rank[first], -1).tolist()

    def smallest_containing_many(self, points: Sequence[Point]) -> List[int]:
        """Per point, the scalar winner of ``smallest_region_containing`` (-1 for none)."""
        np = _numpy()
        rank, lx, ly, hx, hy = self._smallest
        xs = np.array([point.x for point in points], dtype=np.float64)[:, None]
        ys = np.array([point.y for point in points], dtype=np.float64)[:, None]
        winners: List[int] = []
        for chunk in _row_chunks(len(points), rank.size):
            x, y = xs[chunk], ys[chunk]
            winners.extend(
                self._first_hits(rank, (lx <= x) & (x <= hx) & (ly <= y) & (y <= hy))
            )
        return winners

    def hottest_intersecting_many(self, fsas: Sequence[Rectangle]) -> List[int]:
        """Per FSA, the scalar winner of ``hottest_region_intersecting`` (-1 for none)."""
        rank, lx, ly, hx, hy = self._hottest
        f_lx, f_ly, f_hx, f_hy = _box_columns([fsa.as_bounds() for fsa in fsas])
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
    np = _numpy()
    ints = np.ndarray((2 * n_pools + n_entries,), dtype=np.int64, buffer=buffer)
    floats = np.ndarray(
        (n_entries, 4), dtype=np.float64, buffer=buffer, offset=8 * int_capacity
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
