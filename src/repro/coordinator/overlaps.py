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

**The structure carries no kernel.**  A single query is a scalar loop over
the boxes; a batched query — only the epoch pass of
:mod:`repro.coordinator.single_path` asks one — runs that loop per query
below :data:`TABLE_WORK` and reads the lazily built
:class:`~repro.coordinator.columnar.RegionTable` from there (or never, when
numpy is not installed).  The two are pinned bit-for-bit equal, and
:func:`plan_shard_overlaps` is one sweep for every plan, so nothing here
reads the kernel.

**One structure per epoch, built per component.**  A stored subset has a
positive-area common intersection, so its members overlap pairwise: the region
set is the disjoint union, over the connected components of the pairwise
positive-area intersection graph, of each component's own region set.
:func:`plan_shard_overlaps` splits the epoch's FSA map into those components.
An FSA that overlaps no other one is a component whose whole region set is its
own singleton region, so the plan records just its box (the *singletons*);
only components of two or more FSAs become *pools* (disjoint, each in
submission order).  :class:`OverlapPoolCache` serves the pools that repeat
verbatim from earlier epochs, the rest are built independently
(:func:`build_structures` — on worker processes under that backend), and
:meth:`OverlapPlan.merged` interleaves the per-component region lists into the
one structure the sequential build would have produced, *order included*:
``add`` appends the block of regions whose latest-submitted member is the FSA
being added, and inside a block it walks the earlier regions in their own
order, so the sequential insertion order is the lexicographic order of each
region's member submission positions sorted descending.  The first element of
that key names one FSA, hence one component, whose own build already has the
block in sequential order — an isolated FSA's block is its singleton alone —
so placing every block at its FSA's submission position is the whole merge.

**The region cap is per component.**  Each overlap component's ``R_all`` is
capped at ``max_regions`` in its own insertion order (the paper's has no
cap): a pool is built capped on its own, an FSA with no overlap keeps its
singleton, and the merge above interleaves capped pools too — a member that
met a full pool stored no region and has no block.

**Each FSA is answered inside its query component.**  The plan also
records the pairs that only touch (an edge or a corner, zero area): an FSA's
*query component* is its component over both kinds of link, and every
region that touches it or contains a vertex inside it lies there.  So the
epoch pass answers an FSA that touches nothing from its own box, a component
that is exactly one pool from that pool's structure (the merged order
restricted to the pool), and only the rest from the merged structure, which
:meth:`OverlapPlan.merged` builds on first use
(:attr:`OverlapPlan.components`).

Queries used by SinglePath:

* :meth:`smallest_region_containing` — the region with the *fewest* members
  containing a vertex (its count bounds how many objects could adopt that
  vertex);
* :meth:`hottest_region_intersecting` — the region with the highest count that
  intersects a given FSA (source of the fabricated candidate vertex).
"""

from __future__ import annotations

import marshal
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import ConfigurationError, InvalidGeometryError
from repro.core.geometry import Point, Rectangle
from repro.coordinator.columnar import HAVE_NUMPY, RegionTable, touching_pairs

__all__ = [
    "OverlapRegion",
    "FsaOverlapStructure",
    "SerializedRegion",
    "OverlapPoolCache",
    "build_structures",
    "OverlapPlan",
    "plan_shard_overlaps",
    "LONE",
    "TABLE_WORK",
]

#: Wire format of one region: ``(sorted member ids, low x, low y, high x, high y)``.
#: Region order is preserved by the surrounding list, so a structure rebuilt
#: with :meth:`FsaOverlapStructure.from_serialized` iterates its regions in
#: exactly the original insertion order (tie-breaks depend on it).
SerializedRegion = Tuple[Tuple[int, ...], float, float, float, float]

#: One stored region's bounds: ``(low x, low y, high x, high y)``.
Box = Tuple[float, float, float, float]

#: Work (queries x regions) from which a batched query reads the structure's
#: :class:`~repro.coordinator.columnar.RegionTable` instead of running the
#: scalar loop once per query; a structure whose table already exists (a
#: cache hit brings its table along) always reads it.  Measured on a 2-core
#: Intel Xeon (CPython 3.11, numpy 2.4) with a batch of FSAs and one of as
#: many points against fresh pool structures of 7-300 regions: the two tie
#: at ~500 per call (~60 us a pair of calls, the table's ranking included);
#: at 150 the scalar loops take half the table's time, at 2 000 twice it.
#: The bench workloads' batches (seed 11): ``sim_paper`` at most 9,
#: ``serve_closed`` at most 203 over 1 500 epochs of two seeds,
#: ``fleet_steady`` median 12 and at most 468, ``fleet_dense`` median 2 250.
TABLE_WORK = 512


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

    def __init__(self, max_regions: int = 10000) -> None:
        # Hard cap on the regions :meth:`add` stores, guarding against
        # pathological inputs where thousands of FSAs overlap pairwise; it
        # trades a little candidate quality for bounded per-component work.
        # The epoch's merged structure holds every component's regions.
        self._max_regions = max_regions
        self._regions: Dict[FrozenSet[int], Box] = {}
        # The batched queries' table (see
        # :class:`repro.coordinator.columnar.RegionTable`), built on their
        # first call and invalidated by :meth:`add`.
        self._table: Optional[RegionTable] = None

    @classmethod
    def build(
        cls, fsas: Mapping[int, Rectangle], max_regions: int = 10000
    ) -> "FsaOverlapStructure":
        """Build the structure from ``object_id -> FSA`` of all reporting objects."""
        structure = cls(max_regions)
        for object_id, fsa in fsas.items():
            structure.add(object_id, fsa)
        return structure

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
          ``len(self) <= max_regions`` holds for every structure built by
          ``add``.

        Below the cap the stored set is order-independent; when it binds the
        kept subset depends on insertion order.  The overlap stage builds one
        structure per component, so the cap binds each component in its own
        insertion order (:meth:`OverlapPlan.merged`).

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
        cls, regions: Sequence[SerializedRegion], max_regions: int = 10000
    ) -> "FsaOverlapStructure":
        """Rebuild a structure from :meth:`serialized` output, preserving order.

        The regions come from another process, so each box is checked as a
        ``Rectangle`` would check it: finite bounds, low corner not above the
        high one (:class:`InvalidGeometryError` otherwise).
        """
        structure = cls(max_regions)
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
        """The batched queries' table, built lazily."""
        if self._table is None:
            self._table = RegionTable(self._regions)
        return self._table

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
        return _region(self._smallest_containing(point))

    def _smallest_containing(self, point: Point) -> Optional[Tuple[FrozenSet[int], Box]]:
        """The ``(members, box)`` of :meth:`smallest_region_containing`."""
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
        return best

    def hottest_region_intersecting(self, fsa: Rectangle) -> Optional[OverlapRegion]:
        """Region with the highest count that intersects ``fsa`` (Lines 27-32).

        Ties are broken towards smaller area so the fabricated vertex lands in
        the most specific shared region.
        """
        return _region(self._hottest_intersecting(fsa))

    def _hottest_intersecting(self, fsa: Rectangle) -> Optional[Tuple[FrozenSet[int], Box]]:
        """The ``(members, box)`` of :meth:`hottest_region_intersecting`."""
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

    # -- batched queries (the epoch pass of SinglePath) --------------------------------

    def _batch_uses_table(self, queries: int) -> bool:
        """Whether a batch of ``queries`` reads the table (:data:`TABLE_WORK`;
        never without numpy, where the scalar loops answer every batch)."""
        return HAVE_NUMPY and (
            self._table is not None or queries * len(self._regions) >= TABLE_WORK
        )

    def containing_counts(self, points: Sequence[Point]) -> List[int]:
        """Per point, the count of :meth:`smallest_region_containing` (0 for none)."""
        if not self._batch_uses_table(len(points)):
            return [
                len(found[0]) if found is not None else 0
                for found in map(self._smallest_containing, points)
            ]
        table = self._region_table()
        return [
            table.counts[winner] if winner >= 0 else 0
            for winner in table.smallest_containing_many(points)
        ]

    def candidate_vertices_for(
        self, fsas: Sequence[Rectangle]
    ) -> List[Optional[Tuple[Point, int]]]:
        """Per FSA, :meth:`candidate_vertex_for`."""
        if not self._batch_uses_table(len(fsas)):
            return list(map(self.candidate_vertex_for, fsas))
        table = self._region_table()
        return [
            (_center(table.boxes[winner]), table.counts[winner]) if winner >= 0 else None
            for winner in table.hottest_intersecting_many(fsas)
        ]


#: Content address of one component pool (:func:`pool_fingerprint`).
PoolFingerprint = bytes

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
    """The content address of a component pool (see :class:`OverlapPoolCache`).

    Its ``(object_id, FSA coordinates)`` entries *in pool order* — region
    insertion order feeds the structure's area tie-breaks — marshalled
    (format 2, which never back-references a repeated object).  Two pools get
    the same bytes exactly when every coordinate has the same type and the
    same IEEE bits, so a hit is ``repr``-exact: ``5`` and ``5.0``, or
    ``-0.0`` and ``0.0``, compare equal but address different entries.
    """
    return marshal.dumps(
        tuple(
            (object_id, fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y)
            for object_id, fsa in pool.items()
        ),
        2,
    )


def zero_pool_stats() -> Dict[str, int]:
    """The all-zero pool-cache outcome (full mode, empty epochs)."""
    return {"pools_total": 0, "pools_reused": 0, "pools_rebuilt": 0}


class OverlapPoolCache:
    """Cross-epoch, content-addressed cache of built component structures.

    Under low churn most of an epoch's components repeat verbatim from one
    epoch to the next.  The delta pipeline (``epoch_mode="delta"``) resolves
    every pool here first and ships only the misses to the execution
    backend's workers.  A component is dirtied by any fresh FSA overlapping
    any member, and by nothing else: FSAs elsewhere in the epoch are not
    part of its address.  Only pools — components
    of two or more FSAs — ever reach the cache: an isolated FSA's structure
    is its one singleton region, which :meth:`OverlapPlan.merged` places from
    the FSA's box for less than a fingerprint and a lookup would cost.

    Two outcomes per pool, one table lookup each, both ``repr``-identical to
    a from-scratch build:

    * **reused** — the fingerprint matches a cached pool exactly; the cached
      structure is returned as-is (structures are read-only to the merge).
    * **rebuilt** — no entry; the pool is built from scratch (on the
      backend) and stored for future epochs.

    The cache is LRU-bounded by the regions it holds (``capacity``), so long
    replays with high churn cannot grow it without bound.  The pools of the
    current epoch are exempt: their regions are alive in the epoch's own
    structure anyway, and a component larger than the bound — the most
    expensive kind to rebuild — must still be able to repeat.
    """

    def __init__(self, capacity: int = _CACHED_REGIONS) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"pool cache capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._table: "OrderedDict[PoolFingerprint, FsaOverlapStructure]" = OrderedDict()
        self._regions_held = 0
        # Fingerprints served or stored since the latest ``resolve`` began.
        self._current: Set[PoolFingerprint] = set()
        # Lifetime totals, surfaced by ``shard_statistics()``.
        self.reused = 0
        self.rebuilt = 0

    def __len__(self) -> int:
        return len(self._table)

    def resolve(
        self, pools: Sequence[Mapping[int, Rectangle]]
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
        for index, pool in enumerate(pools):
            fingerprint = pool_fingerprint(pool)
            cached = self._table.get(fingerprint)
            if cached is None:
                misses[index] = fingerprint
                continue
            self._table.move_to_end(fingerprint)
            self._current.add(fingerprint)
            structures[index] = cached
        reused = len(pools) - len(misses)
        self.reused += reused
        self.rebuilt += len(misses)
        stats = {"pools_total": len(pools), "pools_reused": reused, "pools_rebuilt": len(misses)}
        return structures, misses, stats

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
    pools: Sequence[Mapping[int, Rectangle]], max_regions: int = 10000
) -> List[FsaOverlapStructure]:
    """Build one structure per component pool (the backends' unit of work)."""
    return [FsaOverlapStructure.build(pool, max_regions) for pool in pools]


#: :attr:`OverlapPlan.components` value of an FSA no other FSA touches.
LONE = -1


@dataclass
class OverlapPlan:
    """One epoch's overlap stage between :func:`plan_shard_overlaps` and :meth:`merged`."""

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
    cache: Optional[OverlapPoolCache]
    #: ``object_id ->`` :data:`LONE` for an FSA that touches
    #: no other FSA, or the index of its pool when its query component — its
    #: component over every touch, zero-area ones included — is exactly that
    #: pool.  Every other FSA is answered by the merged structure.
    components: Dict[int, int] = field(default_factory=dict)
    _merged: Optional[FsaOverlapStructure] = field(default=None, repr=False)

    @property
    def missed_pools(self) -> List[Dict[int, Rectangle]]:
        """The pools to hand to :func:`build_structures` (or a backend)."""
        return [self.pools[index] for index in self.misses]

    def complete(self, built: Sequence[FsaOverlapStructure]) -> None:
        """Take the structures of :attr:`missed_pools`, built, into :attr:`structures`."""
        if self.cache is not None:
            self.cache.store(self.misses, built)
        structures = self.structures
        for index, structure in zip(self.misses, built):
            structures[index] = structure

    def merged(self) -> FsaOverlapStructure:
        """The epoch's one structure, merged on first call (after :meth:`complete`).

        Every component's structure interleaved in submission order (module
        docstring): below the cap that is ``FsaOverlapStructure.build(fsas)``,
        region order included, and a pool that reaches the cap keeps its own
        capped build, whatever the rest of the epoch holds.  The cap binds
        each component alone, so the merged structure — never added to — may
        hold more regions than it.
        """
        if self._merged is None:
            self._merged = self._merge()
        return self._merged

    def _merge(self) -> FsaOverlapStructure:
        structures = self.structures
        singletons = self.singletons
        if len(structures) == 1 and not singletons:
            return structures[0]
        # Every pool block opens with its FSA's singleton, so one walk over
        # each pool cuts its blocks by FSA; a walk in submission order then
        # places every block, singletons included (module docstring).
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
                regions.update(blocks.get(object_id, ()))
        merged = FsaOverlapStructure()
        merged._regions = regions
        return merged


def plan_shard_overlaps(
    cache: Optional[OverlapPoolCache],
    fsas: Mapping[int, Rectangle],
) -> OverlapPlan:
    """Split an epoch's FSAs into overlap components and resolve them.

    ``fsas`` is the epoch's ``object_id -> final FSA`` map in submission order
    (a duplicate reporter keeps its first position but the later FSA — the
    same replacement the sequential build applies).  Two FSAs are linked when
    their intersection has positive area; each connected component of two or
    more FSAs becomes one pool, and an unlinked FSA is recorded as a
    singleton — no fingerprint, no cache entry, no build, no shipment.

    The same pass (:func:`touching_pairs`) also finds the pairs that touch
    with zero area, which join components into the epoch pass's query
    components (:attr:`OverlapPlan.components`).  (``bench/trace.py`` wraps
    this name as re-exported by :mod:`repro.coordinator.sharding`, which no
    caller resolves.)
    """
    boxes = [(fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y) for fsa in fsas.values()]
    pairs, touches = touching_pairs(boxes)
    # Union-find whose roots are the smallest index of their component, so a
    # pass in submission order meets the pools ordered by first member.
    root = list(range(len(boxes)))
    linked = [False] * len(boxes)

    def find(index: int) -> int:
        while root[index] != index:
            root[index] = index = root[root[index]]
        return index

    for i, j in pairs:
        linked[i] = linked[j] = True
        low, high = sorted((find(i), find(j)))
        root[high] = low
    # Roots of the components a zero-area touch joins to another component.
    shared: Set[int] = set()
    for i, j in touches:
        first, second = find(i), find(j)
        if first != second:
            shared.update((first, second))
    slots: Dict[int, int] = {}
    plan_pools: List[Dict[int, Rectangle]] = []
    singletons: Dict[int, Box] = {}
    components: Dict[int, int] = {}
    for index, (object_id, fsa) in enumerate(fsas.items()):
        if not linked[index]:
            singletons[object_id] = boxes[index]
            if index not in shared:
                components[object_id] = LONE
            continue
        top = find(index)
        slot = slots.get(top)
        if slot is None:
            slot = slots[top] = len(plan_pools)
            plan_pools.append({})
        plan_pools[slot][object_id] = fsa
        if top not in shared:
            components[object_id] = slot
    if cache is None:
        structures, misses, stats = (
            [None] * len(plan_pools), dict.fromkeys(range(len(plan_pools))), zero_pool_stats()
        )
    else:
        structures, misses, stats = cache.resolve(plan_pools)
    return OverlapPlan(
        fsas, plan_pools, singletons, structures, misses, stats, cache, components
    )
