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
exact intersection of its members' FSAs regardless of insertion order.  That
set-function property is what lets a sharded coordinator build one structure
per shard from a halo-filtered FSA pool and still answer every query exactly
as the global structure would (see :mod:`repro.coordinator.sharding`).

Queries used by SinglePath:

* :meth:`smallest_region_containing` — the region with the *fewest* members
  containing a vertex (its count bounds how many objects could adopt that
  vertex);
* :meth:`hottest_region_intersecting` — the region with the highest count that
  intersects a given FSA (source of the fabricated candidate vertex).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.coordinator.columnar import RegionTable, resolve_kernel

__all__ = [
    "OverlapRegion",
    "FsaOverlapStructure",
    "SerializedRegion",
    "OverlapPoolCache",
    "build_structures",
]

#: Wire format of one region: ``(sorted member ids, low x, low y, high x, high y)``.
#: Region order is preserved by the surrounding list, so a structure rebuilt
#: with :meth:`FsaOverlapStructure.from_serialized` iterates its regions in
#: exactly the original insertion order (tie-breaks depend on it).
SerializedRegion = Tuple[Tuple[int, ...], float, float, float, float]


@dataclass(frozen=True)
class OverlapRegion:
    """A rectangle formed by intersecting the FSAs of ``members``."""

    rectangle: Rectangle
    members: FrozenSet[int]

    @property
    def count(self) -> int:
        """Number of FSAs participating in this overlap (the region's 'hotness')."""
        return len(self.members)


class FsaOverlapStructure:
    """The ``R_all`` structure of Algorithm 2: FSAs and their overlaps with counts."""

    #: Region count below which the columnar kernel answers a *single* query
    #: with the scalar loops anyway: one pre-ranked table query costs a flat
    #: 4-7 us of numpy call overhead, the scalar loops 0.15-0.25 us a region,
    #: so they cross at 20-40 regions (both paths are bit-for-bit equal; the
    #: crossover is purely a performance constant).  The batched queries of
    #: the epoch pass amortise the call overhead over the whole epoch and
    #: always use the table.
    _COLUMNAR_MIN_REGIONS = 32

    def __init__(self, max_regions: int = 10000, kernel: str = "object") -> None:
        # Hard cap on the number of stored regions, guarding against
        # pathological inputs where thousands of FSAs overlap pairwise; the
        # cap trades a little candidate quality for bounded per-epoch work.
        # ``len(self) <= max_regions`` always holds (see :meth:`add`).
        self._max_regions = max_regions
        self._regions: Dict[FrozenSet[int], Rectangle] = {}
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
        of starting empty — the shared-prefix path of :func:`build_structures`
        (neighbouring shards see almost the same halo pool, so the common
        prefix of their pools is built once).
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

        When the cap binds, a halo-filtered shard-local build may keep a
        different subset of regions than the global build (both are
        deterministic); below the cap the stored set is order-independent.
        """
        self._table = None  # derived query table no longer matches the dict
        singleton = frozenset([object_id])
        new_regions: Dict[FrozenSet[int], Rectangle] = {singleton: fsa}
        for members, rectangle in self._regions.items():
            if len(self._regions) + len(new_regions) >= self._max_regions:
                break
            if object_id in members:
                continue
            # The (4-comparison) intersection comes first; the combined
            # member set is built only for real overlaps.
            intersection = rectangle.intersection(fsa)
            if intersection is None or intersection.is_degenerate():
                continue
            combined = members | singleton
            existing = new_regions.get(combined)
            if existing is None or intersection.area < existing.area:
                new_regions[combined] = intersection
        for members, rectangle in new_regions.items():
            current = self._regions.get(members)
            if current is not None:
                if rectangle.area < current.area:
                    self._regions[members] = rectangle
            elif len(self._regions) < self._max_regions:
                self._regions[members] = rectangle

    # -- serialization ---------------------------------------------------------------

    def serialized(self) -> List[SerializedRegion]:
        """Flat region list for shipping a worker-built structure to the parent."""
        return [
            (tuple(sorted(members)), rect.low.x, rect.low.y, rect.high.x, rect.high.y)
            for members, rect in self._regions.items()
        ]

    @classmethod
    def from_serialized(
        cls,
        regions: Sequence[SerializedRegion],
        max_regions: int = 10000,
        kernel: str = "object",
    ) -> "FsaOverlapStructure":
        """Rebuild a structure from :meth:`serialized` output, preserving order."""
        structure = cls(max_regions, kernel=kernel)
        for members, low_x, low_y, high_x, high_y in regions:
            structure._regions[frozenset(members)] = Rectangle(
                Point(low_x, low_y), Point(high_x, high_y)
            )
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
        return (
            OverlapRegion(rectangle, members) for members, rectangle in self._regions.items()
        )

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
            return OverlapRegion(table.rects[winner], table.members[winner])
        best: Optional[OverlapRegion] = None
        for members, rectangle in self._regions.items():
            if not rectangle.contains_point(point):
                continue
            if best is None or rectangle.area < best.rectangle.area or (
                rectangle.area == best.rectangle.area and len(members) > best.count
            ):
                best = OverlapRegion(rectangle, members)
        return best

    def hottest_region_intersecting(self, fsa: Rectangle) -> Optional[OverlapRegion]:
        """Region with the highest count that intersects ``fsa`` (Lines 27-32).

        Ties are broken towards smaller area so the fabricated vertex lands in
        the most specific shared region.
        """
        table = self._query_table()
        if table is not None:
            winner = table.hottest_intersecting(fsa)
            if winner is None:
                return None
            return OverlapRegion(table.rects[winner], table.members[winner])
        best: Optional[OverlapRegion] = None
        for members, rectangle in self._regions.items():
            if not rectangle.intersects(fsa):
                continue
            candidate = OverlapRegion(rectangle, members)
            if best is None:
                best = candidate
                continue
            if candidate.count > best.count or (
                candidate.count == best.count
                and candidate.rectangle.area < best.rectangle.area
            ):
                best = candidate
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
        region = self.hottest_region_intersecting(fsa)
        if region is None:
            return None
        return (region.rectangle.center, region.count)

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
            (table.rects[winner].center, table.counts[winner]) if winner >= 0 else None
            for winner in table.hottest_intersecting_many(fsas)
        ]


#: Content address of one halo pool: its ``(object_id, FSA coordinates)``
#: entries *in pool order*.  Region insertion order feeds the structure's
#: area tie-breaks, so only an order-identical pool may share a structure.
PoolFingerprint = Tuple[Tuple[int, float, float, float, float], ...]


def pool_fingerprint(pool: Mapping[int, Rectangle]) -> PoolFingerprint:
    """The content address of a halo pool (see :class:`OverlapPoolCache`)."""
    return tuple(
        (object_id, fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y)
        for object_id, fsa in pool.items()
    )


class OverlapPoolCache:
    """Cross-epoch, content-addressed cache of built halo-pool structures.

    :func:`build_structures` already shares work *within* one epoch's pools;
    under low churn the far bigger redundancy is *across* epochs — most
    shards' halo pools repeat verbatim from one epoch to the next, and the
    rest usually extend a previous pool by a few late arrivals.  The delta
    pipeline (``epoch_mode="delta"``) resolves every pool here first and
    ships only the misses to the execution backend's workers.

    Three outcomes per pool, every one bit-identical to a from-scratch build:

    * **reused** — the fingerprint matches a cached pool exactly; the cached
      structure is returned as-is (structures are read-only to the decision
      stage, exactly like the verbatim-repeat sharing inside
      :func:`build_structures`).
    * **prefix_reused** — a cached pool is an order-preserving *prefix* of
      this one; the tail is built parent-side resuming from the cached
      structure's snapshot (:meth:`FsaOverlapStructure.build` with ``base``),
      the same shared-prefix construction the intra-epoch builder uses.
    * **rebuilt** — no usable entry; the pool is built from scratch (on the
      backend) and stored for future epochs.

    Keying on content rather than shard ids means kd rebalances need no
    invalidation: a migrated shard whose halo pool happens to match any pool
    ever built still hits.  The cache is LRU-bounded (``capacity`` pools) so
    long replays with high churn cannot grow it without bound.
    """

    def __init__(self, capacity: int = 64, kernel: str = "object") -> None:
        if capacity <= 0:
            raise ConfigurationError(f"pool cache capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._kernel = resolve_kernel(kernel)
        self._table: "OrderedDict[PoolFingerprint, FsaOverlapStructure]" = OrderedDict()
        # Lifetime totals, surfaced by ``shard_statistics()``.
        self.reused = 0
        self.prefix_reused = 0
        self.rebuilt = 0

    def __len__(self) -> int:
        return len(self._table)

    def resolve(
        self, pools: Sequence[Mapping[int, Rectangle]], max_regions: int = 10000
    ) -> Tuple[List[Optional[FsaOverlapStructure]], List[int], Dict[str, int]]:
        """Serve what the cache can; report the rest as misses.

        Returns ``(structures, miss_indexes, stats)`` where ``structures``
        holds a ready structure per pool except at the ``miss_indexes``
        (``None`` there — the caller builds those, on workers, and hands them
        back via :meth:`store`).  ``stats`` is the per-call outcome tally
        feeding :class:`repro.coordinator.delta.EpochDelta`.
        """
        structures: List[Optional[FsaOverlapStructure]] = [None] * len(pools)
        miss_indexes: List[int] = []
        stats = {
            "pools_total": len(pools),
            "pools_reused": 0,
            "pools_prefix_reused": 0,
            "pools_rebuilt": 0,
        }
        for index, pool in enumerate(pools):
            fingerprint = pool_fingerprint(pool)
            cached = self._table.get(fingerprint)
            if cached is not None:
                self._table.move_to_end(fingerprint)
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
            miss_indexes.append(index)
            stats["pools_rebuilt"] += 1
            self.rebuilt += 1
        return structures, miss_indexes, stats

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
        pools: Sequence[Mapping[int, Rectangle]],
        structures: Sequence[FsaOverlapStructure],
    ) -> None:
        """Remember this epoch's built structures for future epochs."""
        for pool, structure in zip(pools, structures):
            self._insert(pool_fingerprint(pool), structure)

    def _insert(self, fingerprint: PoolFingerprint, structure: FsaOverlapStructure) -> None:
        self._table[fingerprint] = structure
        self._table.move_to_end(fingerprint)
        while len(self._table) > self._capacity:
            self._table.popitem(last=False)


def build_structures(
    pools: Sequence[Mapping[int, Rectangle]],
    max_regions: int = 10000,
    kernel: str = "object",
) -> List[FsaOverlapStructure]:
    """Build one structure per FSA pool, sharing work across related pools.

    The shared-prefix builder behind the shard-local overlap stage: pools are
    processed in sorted key order so that a pool repeating another verbatim
    reuses the same (read-only) structure object, and a pool extending another
    pool's *prefix* resumes from its snapshot instead of rebuilding from
    scratch.  Both shortcuts are bit-identical to an independent build —
    :meth:`FsaOverlapStructure.add` is a pure function of the current region
    table, so sharing reproduces the sequential build exactly, hard cap
    included.

    Pools must be id→FSA *consistent* (each object id maps to the identical
    FSA wherever it appears — true by construction for one epoch's overlap
    plan): pool dedup and prefix resume key on id tuples alone.
    """
    keys = [tuple(pool) for pool in pools]
    structures: List[Optional[FsaOverlapStructure]] = [None] * len(pools)
    # Stack of built (key, structure) pairs forming a prefix chain: popping
    # until the top is a prefix of the current key leaves the *longest*
    # already-built prefix, so sibling pools diverging in their tails (e.g.
    # (1,2,3) then (1,2,4)) still resume from the shared (1,2) snapshot
    # instead of rebuilding from scratch.
    stack: List[Tuple[Tuple[int, ...], FsaOverlapStructure]] = []
    for index in sorted(range(len(pools)), key=lambda i: keys[i]):
        key, pool = keys[index], pools[index]
        while stack and key[: len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        if stack and key == stack[-1][0]:
            structures[index] = stack[-1][1]
            continue
        if stack:
            base_key, base = stack[-1]
            tail = {object_id: pool[object_id] for object_id in key[len(base_key):]}
            structure = FsaOverlapStructure.build(
                tail, max_regions, base=base, kernel=kernel
            )
        else:
            structure = FsaOverlapStructure.build(pool, max_regions, kernel=kernel)
        structures[index] = structure
        stack.append((key, structure))
    return structures
