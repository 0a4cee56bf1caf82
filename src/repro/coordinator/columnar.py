"""Columnar structures for the coordinator hot path.

The grid of Section 5.1 exists to keep 1-3 entries per cell, so a kernel that
vectorises *inside* a cell pays numpy's per-call overhead on arrays of one to
three rows; the batching unit here is the **epoch** instead (SinglePath runs
once per epoch over the whole batch of state messages):

* :class:`EndpointTable` — the ``columnar`` endpoint table of a
  :class:`~repro.coordinator.grid_index.GridIndex` (the interface the
  ``object`` storage's :class:`~repro.coordinator.grid_index.CellTable`
  shares), one row per path: their *ends* in plain lists sorted by end x,
  so a region query is two bisections and a closed y test on the x run
  between them, and a hash from the coordinates of a path's exact start
  vertex to ``{path id: end}``, which answers the exact-match lookups.  No
  numpy: an FSA's x run holds a few percent of the paths.  SinglePath's
  probe of an epoch's inserts is one too, under either storage.
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

**Exactness.**  Every structure is required to be bit-for-bit equal to the
scalar loop it replaces: the end table to the ``object`` storage's cell
dicts, the sweep to a pairwise test, the region table to the overlap
structure's scalar queries.  The equality argument is mechanical: coordinates are stored
verbatim (python floats and ``float64`` are the same IEEE doubles, and
``==`` / ``<=`` agree), areas are computed with the same two double
multiplications, and wherever the scalar code breaks ties by encounter
order the ranking carries the insertion index as its last sort key.
The exactness harness (``tests/test_differential.py``) enforces the
contract over the whole configuration matrix, ``tests/test_columnar.py``
holds each structure to a scalar reference with hypothesis, and
``tests/test_single_path_oracle.py`` holds the shipped pipeline to a literal
transcription of Algorithm 2.

**Scale.**  An end-table query costs two bisections plus one y test per
path whose end x lies in the box's x range, an insert or a removal one
bisection plus a list shift (a ``memmove`` over the live paths, hundreds
at the benchmark's sizes).  A workload whose boxes span most of the x range
would pay a y test per live path for every box.

**numpy is optional and imported on first use.**  :data:`HAVE_NUMPY` only
asks whether it is installed (``importlib.util.find_spec``); the module is
loaded by the first region table, which costs about 0.1 s once
per process and logs one line.  A paper-sized or served epoch stays below
the table cut-off, so such a process never loads it (13.7 MiB of
resident memory).  Without numpy installed :func:`resolve_kernel` degrades
``columnar`` to ``object`` (logging one warning per process), and the
overlap structure answers every batch with its scalar loops, so every
configuration keeps working on a bare interpreter.
"""

from __future__ import annotations

import importlib.util
import logging
import math
import time
from bisect import bisect_left, bisect_right
from operator import itemgetter
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
]

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

#: Values accepted by the ``kernel`` knob (config layers and ``--kernel``): the
#: grid index's storage, ``object`` for the per-cell dicts of Section 5.1,
#: ``columnar`` (the default) for :class:`EndpointTable`, bit-for-bit equal.
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

    The fallback is deliberate rather than an error: the two storages are
    bit-for-bit equal, so a numpy-less interpreter running the cell dicts
    is a performance change, never a behaviour change.  It is
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
    low_xs = list(map(itemgetter(0), boxes))
    order = sorted(range(len(boxes)), key=low_xs.__getitem__)
    lows = list(map(low_xs.__getitem__, order))
    lows.append(math.inf)  # past the last box: no low x lies beyond it
    overlapping: Pairs = []
    touching: Pairs = []
    for slot, index in enumerate(order):
        box = boxes[index]
        if lows[slot + 1] > box[2]:
            continue  # the next low x is past this high x: no other box in range
        _low_x, low_y, high_x, high_y = box
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
    """The paths of one grid index under the columnar storage, one row each.

    The paths' *ends* sit in four parallel lists sorted by end x — ``_xs``,
    ``_ys``, the end ``Point`` itself (``_ends``) and the path id
    (``_pids``).  An insert bisects to the right of its equal-x run, so
    ends of equal x keep insertion order; a removal bisects to the run and
    scans it for the path id.  A region query bisects the x column onto
    ``[low x, high x]`` and tests y on that run only, with the closed
    ``<=`` of ``Rectangle.contains_point``.  Among stored ends that compare
    equal but are different objects (``0.0`` / ``-0.0``, ``2`` / ``2.0``),
    the earliest insert is met first, so it becomes the vertex — the one the
    ``object`` storage's cell dicts, which keep insertion order, meet first.

    ``_by_start`` maps a start vertex's ``(x, y)`` to ``{path id: end}`` of
    the paths starting there, in insertion order, so ``starting_at`` and
    ``path_between`` are one dict probe and a scan of that vertex's paths.
    A path id is added at most once while it is live, and removed with the
    endpoints it was added with.

    No method hashes a ``Point``: every key is a coordinate tuple, which
    compares and hashes like the ``Point`` it stands for (``Point``'s
    ``__eq__`` and ``__hash__`` read the same tuple) without their
    Python-level calls.  The start keys never leave the table;
    :meth:`end_vertices_in` returns its group keys.
    """

    __slots__ = ("_xs", "_ys", "_ends", "_pids", "_by_start")

    def __init__(self) -> None:
        self._xs: List[float] = []
        self._ys: List[float] = []
        self._ends: List[Point] = []
        self._pids: List[int] = []
        self._by_start: Dict[Tuple[float, float], Dict[int, Point]] = {}

    def add_path(self, path_id: int, start: Point, end: Point) -> None:
        """Store the path ``start -> end`` under ``path_id``."""
        self._by_start.setdefault((start.x, start.y), {})[path_id] = end
        row = bisect_right(self._xs, end.x)
        self._xs.insert(row, end.x)
        self._ys.insert(row, end.y)
        self._ends.insert(row, end)
        self._pids.insert(row, path_id)

    def remove_path(self, path_id: int, start: Point, end: Point) -> None:
        """Drop the live path ``start -> end`` stored under ``path_id``."""
        key = (start.x, start.y)
        bucket = self._by_start[key]
        del bucket[path_id]
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
        low, high, xs = region.low, region.high, self._xs
        first = bisect_left(xs, low.x)
        last = bisect_right(xs, high.x, first)
        vertices: Dict[Tuple[float, float], VertexGroup] = {}
        if first == last:
            return vertices
        low_y, high_y = low.y, high.y
        for row, y in enumerate(self._ys[first:last], first):
            if low_y <= y <= high_y:
                key = (xs[row], y)
                group = vertices.get(key)
                if group is None:
                    vertices[key] = (self._ends[row], [self._pids[row]])
                else:
                    group[1].append(self._pids[row])
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

