"""Overlap analysis of reporting objects' Final Safe Areas (paper Section 5.3).

When several objects report in the same epoch and their FSAs overlap, choosing
a *shared* endpoint inside the overlap lets a single new vertex (and therefore
future motion paths through it) serve all of them, boosting hotness.  The
paper maintains a structure ``R_all`` holding the original FSAs and their
pairwise/multi-way intersections, each annotated with a *count*: the number of
FSAs participating in the overlap.

Computing every subset intersection is exponential; the structure here follows
the paper's intent with a practical incremental construction: regions are the
original FSAs plus intersections discovered by repeatedly intersecting new
FSAs with existing regions, keeping for each resulting rectangle the set of
contributing objects.  Because axis-aligned rectangles have Helly number two,
the incremental construction is *order-independent* below the region cap: the
stored regions are exactly the singletons plus every member subset whose
common intersection has positive area, and the rectangle of a subset is the
exact intersection of its members' FSAs regardless of insertion order.

**Regions are scalar boxes.**  A region is stored as ``members -> (low x,
low y, high x, high y)``, four floats in a tuple, and
:meth:`~FsaOverlapStructure.add` intersects on them inline with the IEEE
operations of ``Rectangle.intersection`` + ``is_degenerate``: the clipped
bounds are ``max(region, fsa)`` / ``min(region, fsa)``, and the overlap is
kept exactly when its width and height (``high - low``, as ``Rectangle``
computes them) are positive — for floats, ``max(lows) < min(highs)`` on both
axes.  On a tie the *stored region's* bound is kept (``fsa if fsa > region
else region``, and the mirror image for ``min``), as ``max`` / ``min`` with
the region first do — visible when two equal bounds are different objects,
``-0.0`` vs ``0.0`` or an ``int`` vs a ``float``, in
:meth:`~FsaOverlapStructure.serialized`.  A ``Rectangle`` or ``Point`` is
built only where a value leaves the structure: the region a single query
returns, :meth:`~FsaOverlapStructure.regions`, and one ``Point`` per
fabricated centroid.  The ``Rectangle`` formulation this replaced is kept
verbatim as the test oracle ``tests/overlap_oracle.py``.

**One structure per epoch, built per component.**  A stored subset has a
positive-area common intersection, so its members overlap pairwise: the region
set is the disjoint union, over the connected components of the pairwise
positive-area intersection graph, of each component's own region set.
:func:`plan_shard_overlaps` splits the epoch's FSA map into those components.
An FSA that overlaps no other one is a component whose whole region set is its
own singleton region, so the plan records just its box (the *singletons*);
only components of two or more FSAs become *pools* (disjoint, each in
submission order).  :class:`OverlapPoolCache` serves the pools that repeat
from earlier epochs, the rest are built independently
(:func:`build_structures` — on worker processes under that backend), and
:meth:`OverlapPlan.merge` interleaves the per-component region lists into the
one structure the sequential build would have produced, *order included*:
``add`` appends the block of regions whose latest-submitted member is the FSA
being added, and inside a block it walks the earlier regions in their own
order, so the sequential insertion order is the lexicographic order of each
region's member submission positions sorted descending.  The first element of
that key names one FSA, hence one component, whose own build already has the
block in sequential order — an isolated FSA's block is its singleton alone —
so placing every block at its FSA's submission position is the whole merge.
The seed coordinator and every shard of a fleet read that one structure;
nothing here knows the shard layout.

Queries used by SinglePath:

* :meth:`smallest_region_containing` — the region with the *fewest* members
  containing a vertex (its count bounds how many objects could adopt that
  vertex);
* :meth:`hottest_region_intersecting` — the region with the highest count that
  intersects a given FSA (source of the fabricated candidate vertex).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import ConfigurationError, InvalidGeometryError
from repro.core.geometry import Point, Rectangle
from repro.coordinator.columnar import RegionTable, overlapping_pairs, resolve_kernel

__all__ = [
    "OverlapRegion",
    "FsaOverlapStructure",
    "SerializedRegion",
    "OverlapPoolCache",
    "build_structures",
    "OverlapPlan",
    "plan_shard_overlaps",
]

#: Wire format of one region: ``(sorted member ids, low x, low y, high x, high y)``.
#: Region order is preserved by the surrounding list, so a structure rebuilt
#: with :meth:`FsaOverlapStructure.from_serialized` iterates its regions in
#: exactly the original insertion order (tie-breaks depend on it).
SerializedRegion = Tuple[Tuple[int, ...], float, float, float, float]

#: One stored region's bounds: ``(low x, low y, high x, high y)``.
Box = Tuple[float, float, float, float]


@dataclass(frozen=True)
class OverlapRegion:
    """A rectangle formed by intersecting the FSAs of ``members``."""

    rectangle: Rectangle
    members: FrozenSet[int]

    @property
    def count(self) -> int:
        """Number of FSAs participating in this overlap (the region's 'hotness')."""
        return len(self.members)


def _area(box: Box) -> float:
    """``Rectangle.area`` of a box: the same two subtractions and one multiplication."""
    low_x, low_y, high_x, high_y = box
    return (high_x - low_x) * (high_y - low_y)


def _center(box: Box) -> Point:
    """``Rectangle.center`` of a box."""
    low_x, low_y, high_x, high_y = box
    return Point((low_x + high_x) / 2.0, (low_y + high_y) / 2.0)


def _region(found: Optional[Tuple[FrozenSet[int], Box]]) -> Optional[OverlapRegion]:
    """The :class:`OverlapRegion` a query returns for its ``(members, box)`` winner."""
    if found is None:
        return None
    members, (low_x, low_y, high_x, high_y) = found
    return OverlapRegion(Rectangle(Point(low_x, low_y), Point(high_x, high_y)), members)


class FsaOverlapStructure:
    """The ``R_all`` structure of Algorithm 2: FSAs and their overlaps with counts.

    Regions live in one insertion-ordered dict ``members -> box`` of four
    floats (module docstring); the bounds are the FSAs' own coordinate
    objects, picked by ``max`` / ``min`` with the stored region's bound kept
    on a tie, never re-derived.
    """

    #: Region count below which the columnar kernel answers a *single* query
    #: with the scalar loops anyway (both paths are bit-for-bit equal; the
    #: crossover is purely a performance constant).  Measured on a 2-core
    #: Intel Xeon, CPython 3.11 / numpy 2.4, dense pools of 73-226 regions:
    #: one pre-ranked table query costs a flat 5.6-7.3 us of numpy call
    #: overhead, the scalar loops over boxes ~0.045 us a region plus ~1 us to
    #: build the returned region, so they cross at 94-108 regions.  (The
    #: ``Rectangle`` loops cost 0.10-0.19 us a region and crossed at 30-45.)
    #: The batched queries of the epoch pass amortise the call overhead over
    #: the whole epoch and always use the table.
    _COLUMNAR_MIN_REGIONS = 96

    def __init__(self, max_regions: int = 10000, kernel: str = "object") -> None:
        # Hard cap on the number of stored regions, guarding against
        # pathological inputs where thousands of FSAs overlap pairwise; the
        # cap trades a little candidate quality for bounded per-epoch work.
        # ``len(self) <= max_regions`` always holds (see :meth:`add`).
        self._max_regions = max_regions
        self._regions: Dict[FrozenSet[int], Box] = {}
        self._kernel = resolve_kernel(kernel)
        # Lazily built columnar query table (see
        # :class:`repro.coordinator.columnar.RegionTable`).  Mutable derived
        # state: invalidated by :meth:`add` and *never* shared by
        # :meth:`snapshot` — a snapshot aliasing a live table would serve
        # regions its own dict no longer matches once either copy grows.
        self._table: Optional[RegionTable] = None

    @classmethod
    def build(
        cls,
        fsas: Mapping[int, Rectangle],
        max_regions: int = 10000,
        base: Optional["FsaOverlapStructure"] = None,
        kernel: str = "object",
    ) -> "FsaOverlapStructure":
        """Build the structure from ``object_id -> FSA`` of all reporting objects.

        ``base`` resumes from a snapshot of an already-built structure instead
        of starting empty — the prefix path of :class:`OverlapPoolCache` (a
        pool that extends a cached pool by late arrivals builds only the tail).
        """
        structure = base.snapshot() if base is not None else cls(max_regions, kernel=kernel)
        for object_id, fsa in fsas.items():
            structure.add(object_id, fsa)
        return structure

    def snapshot(self) -> "FsaOverlapStructure":
        """A cheap independent copy (regions are immutable, the dict is not).

        The clone shares no mutable state with the original: the region dict
        is copied and the derived columnar table is left unbuilt rather than
        aliased.  Prefix resumption in :class:`OverlapPoolCache` depends on
        this — it extends a snapshot of a *cached* structure, and a verbatim
        hit later must return that cached entry un-extended.
        """
        clone = FsaOverlapStructure(self._max_regions, kernel=self._kernel)
        clone._regions = dict(self._regions)
        return clone

    def add(self, object_id: int, fsa: Rectangle) -> None:
        """Insert one object's FSA, deriving intersections with existing regions.

        Two deterministic guards bound the derivation:

        * **Zero-area intersections are dropped.**  Edge-adjacent FSAs touch in
          a degenerate rectangle; storing it would let the zero area win every
          ``area <`` tie-break and surface as a fabricated-vertex region even
          though no object can be *inside* it.  The singleton region of the FSA
          itself is always kept, degenerate or not — it represents the FSA.
        * **``max_regions`` is a hard bound with insertion-order priority.**
          Derivation stops once the budget is exhausted and the final merge
          never inserts a new member set into a full table (refinements of an
          already-stored member set are always applied — they do not grow it).
          Earlier-inserted FSAs therefore keep their derived overlaps when a
          flood of late arrivals would otherwise overflow the table, and
          ``len(self) <= max_regions`` holds unconditionally.

        Below the cap the stored set is order-independent; when it binds the
        kept subset depends on insertion order, which is why a saturated epoch
        is built whole rather than per component (:meth:`OverlapPlan.merge`).

        The member sets derived by one call are pairwise distinct (``members
        | {object_id}`` over stored sets without ``object_id``), so only the
        final merge can meet a set twice — when an id is added again.
        """
        self._table = None  # derived query table no longer matches the dict
        regions = self._regions
        fsa_low_x, fsa_low_y = fsa.low.x, fsa.low.y
        fsa_high_x, fsa_high_y = fsa.high.x, fsa.high.y
        singleton = frozenset([object_id])
        new_regions: Dict[FrozenSet[int], Box] = {
            singleton: (fsa_low_x, fsa_low_y, fsa_high_x, fsa_high_y)
        }
        room = self._max_regions - len(regions)
        for members, (low_x, low_y, high_x, high_y) in regions.items():
            if len(new_regions) >= room:
                break
            if object_id in members:
                continue
            # ``max(region, fsa)`` / ``min(region, fsa)``, inline: a tie keeps
            # the region's bound.  A positive width and height is
            # ``intersects`` and ``not is_degenerate`` in one test (a disjoint
            # pair clips to a negative or zero extent); the combined member
            # set is built only for real overlaps.
            if fsa_low_x > low_x:
                low_x = fsa_low_x
            if fsa_high_x < high_x:
                high_x = fsa_high_x
            if not high_x - low_x > 0.0:
                continue
            if fsa_low_y > low_y:
                low_y = fsa_low_y
            if fsa_high_y < high_y:
                high_y = fsa_high_y
            if high_y - low_y > 0.0:
                new_regions[members | singleton] = (low_x, low_y, high_x, high_y)
        for members, box in new_regions.items():
            current = regions.get(members)
            if current is not None:
                if _area(box) < _area(current):
                    regions[members] = box
            elif len(regions) < self._max_regions:
                regions[members] = box

    # -- serialization ---------------------------------------------------------------

    def serialized(self) -> List[SerializedRegion]:
        """Flat region list for shipping a worker-built structure to the parent."""
        return [(tuple(sorted(members)), *box) for members, box in self._regions.items()]

    @classmethod
    def from_serialized(
        cls,
        regions: Sequence[SerializedRegion],
        max_regions: int = 10000,
        kernel: str = "object",
    ) -> "FsaOverlapStructure":
        """Rebuild a structure from :meth:`serialized` output, preserving order.

        The regions come from another process, so each box is checked as a
        ``Rectangle`` would check it: finite bounds, low corner not above the
        high one (:class:`InvalidGeometryError` otherwise).
        """
        structure = cls(max_regions, kernel=kernel)
        isfinite = math.isfinite
        for members, low_x, low_y, high_x, high_y in regions:
            if not (
                isfinite(low_x) and isfinite(low_y) and isfinite(high_x) and isfinite(high_y)
                and low_x <= high_x and low_y <= high_y
            ):
                raise InvalidGeometryError(
                    f"region {members} has an invalid box "
                    f"({low_x}, {low_y}, {high_x}, {high_y})"
                )
            structure._regions[frozenset(members)] = (low_x, low_y, high_x, high_y)
        return structure

    # -- queries -------------------------------------------------------------------

    def _region_table(self) -> RegionTable:
        """The columnar query table, built lazily."""
        if self._table is None:
            self._table = RegionTable(self._regions)
        return self._table

    def _query_table(self) -> Optional[RegionTable]:
        """The table for a *single* query; ``None`` on the scalar path."""
        if self._kernel != "columnar" or len(self._regions) < self._COLUMNAR_MIN_REGIONS:
            return None
        return self._region_table()

    def __len__(self) -> int:
        return len(self._regions)

    def regions(self) -> Iterable[OverlapRegion]:
        """All stored regions (original FSAs and derived overlaps)."""
        return (_region(item) for item in self._regions.items())

    def smallest_region_containing(self, point: Point) -> Optional[OverlapRegion]:
        """Region with the smallest area containing ``point``.

        The smallest containing region is the deepest overlap the point lies
        in, and its count is the number of reporting objects whose FSA covers
        the point — exactly the potential extra hotness the paper adds to an
        available vertex (Lines 23-26 of Algorithm 2).
        """
        table = self._query_table()
        if table is not None:
            winner = table.smallest_containing(point)
            if winner is None:
                return None
            return _region((table.members[winner], table.boxes[winner]))
        x, y = point.x, point.y
        best = None
        best_area = best_count = 0
        for members, box in self._regions.items():
            low_x, low_y, high_x, high_y = box
            if not (low_x <= x <= high_x and low_y <= y <= high_y):
                continue
            area = (high_x - low_x) * (high_y - low_y)
            if best is None or area < best_area or (
                area == best_area and len(members) > best_count
            ):
                best, best_area, best_count = (members, box), area, len(members)
        return _region(best)

    def hottest_region_intersecting(self, fsa: Rectangle) -> Optional[OverlapRegion]:
        """Region with the highest count that intersects ``fsa`` (Lines 27-32).

        Ties are broken towards smaller area so the fabricated vertex lands in
        the most specific shared region.
        """
        return _region(self._hottest_intersecting(fsa))

    def _hottest_intersecting(self, fsa: Rectangle) -> Optional[Tuple[FrozenSet[int], Box]]:
        """The ``(members, box)`` of :meth:`hottest_region_intersecting`."""
        table = self._query_table()
        if table is not None:
            winner = table.hottest_intersecting(fsa)
            return None if winner is None else (table.members[winner], table.boxes[winner])
        fsa_low_x, fsa_low_y = fsa.low.x, fsa.low.y
        fsa_high_x, fsa_high_y = fsa.high.x, fsa.high.y
        best = None
        best_count = best_area = 0
        for members, box in self._regions.items():
            low_x, low_y, high_x, high_y = box
            if (
                high_x < fsa_low_x or fsa_high_x < low_x
                or high_y < fsa_low_y or fsa_high_y < low_y
            ):
                continue
            count = len(members)
            area = (high_x - low_x) * (high_y - low_y)
            if best is None or count > best_count or (
                count == best_count and area < best_area
            ):
                best, best_count, best_area = (members, box), count, area
        return best

    def candidate_vertex_for(self, fsa: Rectangle) -> Optional[Tuple[Point, int]]:
        """Fabricated candidate vertex for an object with Final Safe Area ``fsa``.

        Returns the centroid of the hottest intersecting region together with
        that region's count, or ``None`` when nothing intersects.  The centroid
        of the *region itself* is used (Line 33 of Algorithm 2) rather than of
        its intersection with the object's FSA, so that every object touching
        the same overlap adopts the exact same vertex and future paths through
        it can be shared.
        """
        found = self._hottest_intersecting(fsa)
        if found is None:
            return None
        members, box = found
        return (_center(box), len(members))

    # -- batched queries (columnar kernel; the epoch pass of SinglePath) ---------------

    def containing_counts(self, points: Sequence[Point]) -> List[int]:
        """Per point, the count of :meth:`smallest_region_containing` (0 for none)."""
        table = self._region_table()
        return [
            table.counts[winner] if winner >= 0 else 0
            for winner in table.smallest_containing_many(points)
        ]

    def candidate_vertices_for(
        self, fsas: Sequence[Rectangle]
    ) -> List[Optional[Tuple[Point, int]]]:
        """Per FSA, :meth:`candidate_vertex_for`."""
        table = self._region_table()
        return [
            (_center(table.boxes[winner]), table.counts[winner]) if winner >= 0 else None
            for winner in table.hottest_intersecting_many(fsas)
        ]




#: Content address of one component pool: its ``(object_id, FSA coordinates)``
#: entries *in pool order*.  Region insertion order feeds the structure's
#: area tie-breaks, so only an order-identical pool may share a structure.
PoolFingerprint = Tuple[Tuple[int, float, float, float, float], ...]

#: Default bound of :class:`OverlapPoolCache`, in cached *regions* (about
#: 0.5 kB each, query table included) left over from earlier epochs: one
#: dense component holds as many regions as a whole epoch of small ones, so
#: a bound on entries would let a run of never-repeating dense epochs pin
#: several times the memory a steady run needs.  Only pool regions count
#: (isolated FSAs never reach the cache).  Measured per epoch at seed 11,
#: median (max): ``fleet_steady``'s 123 reporters hold 209 (226) in their
#: pools, ``fleet_dense``'s 28 hold 122 (217), ``serve_closed``'s 60 hold 19
#: (34) and ``sim_paper``'s 64 hold 3 (15) — so this is four or more epochs
#: of history, and hits only ever come from the last one or two.
_CACHED_REGIONS = 1024


def pool_fingerprint(pool: Mapping[int, Rectangle]) -> PoolFingerprint:
    """The content address of a component pool (see :class:`OverlapPoolCache`)."""
    return tuple(
        (object_id, fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y)
        for object_id, fsa in pool.items()
    )


def zero_pool_stats() -> Dict[str, int]:
    """The all-zero pool-cache outcome (full mode, empty epochs)."""
    return {"pools_total": 0, "pools_reused": 0, "pools_prefix_reused": 0, "pools_rebuilt": 0}


class OverlapPoolCache:
    """Cross-epoch, content-addressed cache of built component structures.

    Under low churn most of an epoch's components repeat verbatim from one
    epoch to the next, and the rest usually extend a previous component by a
    few late arrivals.  The delta pipeline (``epoch_mode="delta"``) resolves
    every pool here first and ships only the misses to the execution
    backend's workers.  A component is dirtied by any fresh FSA overlapping
    any member, and by nothing else: neither the shard layout nor FSAs
    elsewhere in the epoch are part of its address.  Only pools — components
    of two or more FSAs — ever reach the cache: an isolated FSA's structure
    is its one singleton region, which :meth:`OverlapPlan.merge` places from
    the FSA's box for less than a fingerprint and a lookup would cost.

    Three outcomes per pool, every one bit-identical to a from-scratch build:

    * **reused** — the fingerprint matches a cached pool exactly; the cached
      structure is returned as-is (structures are read-only to the merge).
    * **prefix_reused** — a cached pool is an order-preserving *prefix* of
      this one; the tail is built parent-side resuming from the cached
      structure's snapshot (:meth:`FsaOverlapStructure.build` with ``base``).
    * **rebuilt** — no usable entry; the pool is built from scratch (on the
      backend) and stored for future epochs.

    The cache is LRU-bounded by the regions it holds (``capacity``), so long
    replays with high churn cannot grow it without bound.  The pools of the
    current epoch are exempt: their regions are alive in the epoch's own
    structure anyway, and a component larger than the bound — the most
    expensive kind to rebuild — must still be able to repeat.
    """

    def __init__(self, capacity: int = _CACHED_REGIONS, kernel: str = "object") -> None:
        if capacity <= 0:
            raise ConfigurationError(f"pool cache capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._kernel = resolve_kernel(kernel)
        self._table: "OrderedDict[PoolFingerprint, FsaOverlapStructure]" = OrderedDict()
        self._regions_held = 0
        # Fingerprints served or stored since the latest ``resolve`` began.
        self._current: Set[PoolFingerprint] = set()
        # Lifetime totals, surfaced by ``shard_statistics()``.
        self.reused = 0
        self.prefix_reused = 0
        self.rebuilt = 0

    def __len__(self) -> int:
        return len(self._table)

    def resolve(
        self, pools: Sequence[Mapping[int, Rectangle]], max_regions: int = 10000
    ) -> Tuple[List[Optional[FsaOverlapStructure]], Dict[int, PoolFingerprint], Dict[str, int]]:
        """Serve what the cache can; report the rest as misses.

        Returns ``(structures, misses, stats)`` where ``structures`` holds a
        ready structure per pool except at the missed indexes (``None`` there
        — the caller builds those, on workers, and hands them back via
        :meth:`store` together with ``misses``, which keeps each missed
        pool's fingerprint so it is computed once).  ``stats`` is the per-call
        outcome tally feeding :class:`repro.coordinator.delta.EpochDelta`.
        """
        self._current = set()
        structures: List[Optional[FsaOverlapStructure]] = [None] * len(pools)
        misses: Dict[int, PoolFingerprint] = {}
        stats = zero_pool_stats()
        stats["pools_total"] = len(pools)
        for index, pool in enumerate(pools):
            fingerprint = pool_fingerprint(pool)
            cached = self._table.get(fingerprint)
            if cached is not None:
                self._table.move_to_end(fingerprint)
                self._current.add(fingerprint)
                structures[index] = cached
                stats["pools_reused"] += 1
                self.reused += 1
                continue
            resumed = self._resume_from_prefix(fingerprint, pool, max_regions)
            if resumed is not None:
                self._insert(fingerprint, resumed)
                structures[index] = resumed
                stats["pools_prefix_reused"] += 1
                self.prefix_reused += 1
                continue
            misses[index] = fingerprint
            stats["pools_rebuilt"] += 1
            self.rebuilt += 1
        return structures, misses, stats

    def _resume_from_prefix(
        self,
        fingerprint: PoolFingerprint,
        pool: Mapping[int, Rectangle],
        max_regions: int,
    ) -> Optional[FsaOverlapStructure]:
        """Build from the longest cached proper prefix, or ``None`` without one."""
        for cut in range(len(fingerprint) - 1, 0, -1):
            base = self._table.get(fingerprint[:cut])
            if base is None:
                continue
            tail = {
                entry[0]: pool[entry[0]] for entry in fingerprint[cut:]
            }
            # ``build`` resumes from ``base.snapshot()`` — never from the
            # cached structure itself — so extending the tail here cannot
            # mutate the cached entry (pinned by tests/test_delta_properties).
            return FsaOverlapStructure.build(
                tail, max_regions, base=base, kernel=self._kernel
            )
        return None

    def store(
        self,
        misses: Mapping[int, PoolFingerprint],
        built: Sequence[FsaOverlapStructure],
    ) -> None:
        """Remember the structures built for :meth:`resolve`'s ``misses``."""
        for fingerprint, structure in zip(misses.values(), built):
            self._insert(fingerprint, structure)

    def _insert(self, fingerprint: PoolFingerprint, structure: FsaOverlapStructure) -> None:
        replaced = self._table.pop(fingerprint, None)
        self._table[fingerprint] = structure
        self._current.add(fingerprint)
        self._regions_held += len(structure) - (len(replaced) if replaced is not None else 0)
        # Hits and inserts both move to the end, so the first current-epoch
        # entry met from the old end means only current ones are left.
        while self._regions_held > self._capacity:
            oldest = next(iter(self._table))
            if oldest in self._current:
                break
            self._regions_held -= len(self._table.pop(oldest))


def build_structures(
    pools: Sequence[Mapping[int, Rectangle]],
    max_regions: int = 10000,
    kernel: str = "object",
) -> List[FsaOverlapStructure]:
    """Build one structure per component pool (the backends' unit of work)."""
    return [FsaOverlapStructure.build(pool, max_regions, kernel=kernel) for pool in pools]


def _overlapping_pairs(rectangles: Sequence[Rectangle]) -> Iterator[Tuple[int, int]]:
    """Index pairs ``i < j`` whose rectangles share positive area (scalar reference).

    The same predicate :meth:`FsaOverlapStructure.add` stores a derived region
    under, so two FSAs are linked exactly when the build would pair them.
    """
    for i, rectangle in enumerate(rectangles):
        for j in range(i + 1, len(rectangles)):
            intersection = rectangle.intersection(rectangles[j])
            if intersection is not None and not intersection.is_degenerate():
                yield i, j


@dataclass
class OverlapPlan:
    """One epoch's overlap stage between :func:`plan_shard_overlaps` and :meth:`merge`."""

    #: The epoch's ``object_id -> FSA`` map, in submission order.
    fsas: Mapping[int, Rectangle]
    #: Its connected components of two or more FSAs: disjoint pools, each in
    #: submission order, ordered by their first member.
    pools: List[Dict[int, Rectangle]]
    #: The FSAs no other FSA overlaps, ``object_id -> box`` in submission
    #: order: each one's whole component structure is its singleton region.
    #: With :attr:`pools` they partition the ids of :attr:`fsas`.
    singletons: Dict[int, Box]
    #: Per pool, the structure the cache served (``None`` where it missed).
    structures: List[Optional[FsaOverlapStructure]]
    #: ``pool index -> fingerprint`` of the pools still to build (the
    #: fingerprint is ``None`` without a cache).
    misses: Dict[int, Optional[PoolFingerprint]]
    #: Pool-cache outcome tally (zeros without a cache).
    stats: Dict[str, int]
    kernel: str
    cache: Optional[OverlapPoolCache]
    max_regions: int

    @property
    def missed_pools(self) -> List[Dict[int, Rectangle]]:
        """The pools to hand to :func:`build_structures` (or a backend)."""
        return [self.pools[index] for index in self.misses]

    def merge(self, built: Sequence[FsaOverlapStructure]) -> FsaOverlapStructure:
        """The epoch's one structure, given the structures of :attr:`missed_pools`.

        Equal to ``FsaOverlapStructure.build(fsas)``, region order included
        (module docstring).  When the components' regions — one per singleton
        plus every pool structure's — sum to the cap, the sequential build
        would have hit it and kept an order-dependent subset the components
        cannot reproduce (a capped pool reads exactly ``max_regions``, so the
        sum sees it) — the whole map is then built sequentially, which *is*
        that structure.
        """
        if self.cache is not None:
            self.cache.store(self.misses, built)
        structures = self.structures
        for index, structure in zip(self.misses, built):
            structures[index] = structure
        singletons = self.singletons
        if len(structures) == 1 and not singletons:
            return structures[0]
        regions_total = len(singletons) + sum(len(structure) for structure in structures)
        if regions_total >= self.max_regions:
            return FsaOverlapStructure.build(self.fsas, self.max_regions, kernel=self.kernel)
        # Every pool block opens with its FSA's singleton (always stored below
        # the cap), so one walk over each pool cuts its blocks by FSA; a walk
        # in submission order then places every block, singletons included.
        blocks: Dict[int, list] = {}
        for structure in structures:
            for item in structure._regions.items():
                if len(item[0]) == 1:
                    (object_id,) = item[0]
                    block = blocks[object_id] = []
                block.append(item)
        regions: Dict[FrozenSet[int], Box] = {}
        for object_id in self.fsas:
            box = singletons.get(object_id)
            if box is not None:
                regions[frozenset((object_id,))] = box
            else:
                regions.update(blocks[object_id])
        merged = FsaOverlapStructure(self.max_regions, kernel=self.kernel)
        merged._regions = regions
        return merged


def plan_shard_overlaps(
    kernel: str,
    cache: Optional[OverlapPoolCache],
    fsas: Mapping[int, Rectangle],
    max_regions: int = 10000,
) -> OverlapPlan:
    """Split an epoch's FSAs into overlap components and resolve them.

    ``fsas`` is the epoch's ``object_id -> final FSA`` map in submission order
    (a duplicate reporter keeps its first position but the later FSA — the
    same replacement the sequential build applies).  Two FSAs are linked when
    their intersection has positive area; each connected component of two or
    more FSAs becomes one pool, and an unlinked FSA is recorded as a
    singleton — no fingerprint, no cache entry, no build, no shipment.  The
    pairwise test is one broadcast under the columnar kernel and a scalar
    loop under ``object``, the pinned reference.  The plan is the same
    whatever the shard layout: every shard of a fleet, and the 1-shard
    strategy, read the one structure :meth:`OverlapPlan.merge` returns.
    (The name and ``fsas`` as third positional argument are what
    ``bench/trace.py`` wraps and reads.)
    """
    rectangles = list(fsas.values())
    columnar = resolve_kernel(kernel) == "columnar"
    pairs = overlapping_pairs(rectangles) if columnar else _overlapping_pairs(rectangles)
    # Union-find whose roots are the smallest index of their component, so a
    # pass in submission order meets the pools ordered by first member.
    root = list(range(len(rectangles)))
    linked = [False] * len(rectangles)

    def find(index: int) -> int:
        while root[index] != index:
            root[index] = index = root[root[index]]
        return index

    for i, j in pairs:
        linked[i] = linked[j] = True
        low, high = sorted((find(i), find(j)))
        root[high] = low
    pools: Dict[int, Dict[int, Rectangle]] = {}
    singletons: Dict[int, Box] = {}
    for index, (object_id, fsa) in enumerate(fsas.items()):
        if linked[index]:
            pools.setdefault(find(index), {})[object_id] = fsa
        else:
            singletons[object_id] = (fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y)
    plan_pools = list(pools.values())
    if cache is None:
        structures, misses, stats = (
            [None] * len(plan_pools), dict.fromkeys(range(len(plan_pools))), zero_pool_stats()
        )
    else:
        structures, misses, stats = cache.resolve(plan_pools, max_regions)
    return OverlapPlan(
        fsas, plan_pools, singletons, structures, misses, stats, kernel, cache, max_regions
    )
