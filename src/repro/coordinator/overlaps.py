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

**One structure per epoch, built per component.**  A stored subset has a
positive-area common intersection, so its members overlap pairwise: the region
set is the disjoint union, over the connected components of the pairwise
positive-area intersection graph, of each component's own region set.
:func:`plan_shard_overlaps` splits the epoch's FSA map into those components
(disjoint *pools*, each in submission order), :class:`OverlapPoolCache` serves
the pools that repeat from earlier epochs, the rest are built independently
(:func:`build_structures` — on worker processes under that backend), and
:meth:`OverlapPlan.merge` interleaves the per-component region lists into the
one structure the sequential build would have produced, *order included*:
``add`` appends the block of regions whose latest-submitted member is the FSA
being added, and inside a block it walks the earlier regions in their own
order, so the sequential insertion order is the lexicographic order of each
region's member submission positions sorted descending.  The first element of
that key names one FSA, hence one component, whose own build already has the
block in sequential order — placing every component's blocks at their FSAs'
submission positions is the whole merge.  The seed coordinator and every
shard of a fleet read that one structure; nothing here knows the shard layout.

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
from itertools import chain
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

from repro.core.errors import ConfigurationError
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




#: Content address of one component pool: its ``(object_id, FSA coordinates)``
#: entries *in pool order*.  Region insertion order feeds the structure's
#: area tie-breaks, so only an order-identical pool may share a structure.
PoolFingerprint = Tuple[Tuple[int, float, float, float, float], ...]

#: Default bound of :class:`OverlapPoolCache`, in cached *regions* (about
#: 1.5 kB each) left over from earlier epochs: one dense component holds as
#: many regions as a whole epoch of small ones, so a bound on entries would
#: let a run of never-repeating dense epochs pin several times the memory a
#: steady run needs.  An epoch of ~120 reporters holds ~250 regions, so this
#: is a few epochs of history — hits only ever come from the last one or two.
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
    elsewhere in the epoch are part of its address.

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
    #: Its connected components: disjoint pools, each in submission order,
    #: ordered by their first member.
    pools: List[Dict[int, Rectangle]]
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
        (module docstring).  When the components' regions sum to the cap, the
        sequential build would have hit it and kept an order-dependent subset
        the components cannot reproduce (a capped component reads exactly
        ``max_regions``, so the sum sees it) — the whole map is then built
        sequentially, which *is* that structure.
        """
        if self.cache is not None:
            self.cache.store(self.misses, built)
        structures = self.structures
        for index, structure in zip(self.misses, built):
            structures[index] = structure
        if len(structures) == 1:
            return structures[0]
        if sum(len(structure) for structure in structures) >= self.max_regions:
            return FsaOverlapStructure.build(self.fsas, self.max_regions, kernel=self.kernel)
        # Every block opens with its FSA's singleton (always stored below the
        # cap), so a walk over each component drops its blocks into their
        # submission slots.
        position = {object_id: index for index, object_id in enumerate(self.fsas)}
        blocks: List[list] = [[] for _ in position]
        for structure in structures:
            for item in structure._regions.items():
                if len(item[0]) == 1:
                    (object_id,) = item[0]
                    block = blocks[position[object_id]]
                block.append(item)
        merged = FsaOverlapStructure(self.max_regions, kernel=self.kernel)
        merged._regions = dict(chain.from_iterable(blocks))
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
    their intersection has positive area; each connected component becomes
    one pool.  The pairwise test is one broadcast under the columnar kernel
    and a scalar loop under ``object``, the pinned reference.  The plan is
    the same whatever the shard layout: every shard of a fleet, and the
    1-shard strategy, read the one structure :meth:`OverlapPlan.merge`
    returns.  (The name and ``fsas`` as third positional argument are what
    ``bench/trace.py`` wraps and reads.)
    """
    rectangles = list(fsas.values())
    columnar = resolve_kernel(kernel) == "columnar"
    pairs = overlapping_pairs(rectangles) if columnar else _overlapping_pairs(rectangles)
    # Union-find whose roots are the smallest index of their component, so a
    # pass in submission order meets the pools ordered by first member.
    root = list(range(len(rectangles)))

    def find(index: int) -> int:
        while root[index] != index:
            root[index] = index = root[root[index]]
        return index

    for i, j in pairs:
        low, high = sorted((find(i), find(j)))
        root[high] = low
    pools: Dict[int, Dict[int, Rectangle]] = {}
    for index, (object_id, fsa) in enumerate(fsas.items()):
        pools.setdefault(find(index), {})[object_id] = fsa
    plan_pools = list(pools.values())
    if cache is None:
        structures, misses, stats = (
            [None] * len(plan_pools), dict.fromkeys(range(len(plan_pools))), zero_pool_stats()
        )
    else:
        structures, misses, stats = cache.resolve(plan_pools, max_regions)
    return OverlapPlan(fsas, plan_pools, structures, misses, stats, kernel, cache, max_regions)
