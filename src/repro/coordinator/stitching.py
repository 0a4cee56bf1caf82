"""Stitching of hot motion paths into composite corridors.

A hot *corridor* — a downtown artery, an evacuation route — is longer than any
single motion path: SinglePath deliberately stores short segments (each
RayTrace report contributes one path from the object's SSA start to its chosen
endpoint), so a corridor materialises in the index as a *chain* of hot paths,
each starting exactly where the previous one ends (the coordinator's response
endpoint becomes the next SSA start, so chains arise by construction).  This
module turns those chains into first-class :class:`CompositeCorridor` report
objects.

**Welds.**  Stitching is driven by a purely local rule at each vertex ``v``:

    ``v`` welds path ``p`` to path ``q`` iff ``p`` is the *only* hot path
    ending at ``v``, ``q`` is the *only* hot path starting at ``v``, and
    ``p != q``.

The degree-1 restriction makes the decomposition canonical: welds are a set
function of the hot-fragment set (no greedy choices, no enumeration-order
dependence), every fragment has at most one weld-successor (its single end
vertex) and at most one weld-predecessor (its single start vertex), so chains
are simple and the corridor partition is unique.  A junction where several
hot paths meet is a genuine fork — chaining through it would have to pick a
branch, so the corridor ends there.  :func:`stitch_paths` applies the rule to
every vertex at once, :class:`IncrementalStitcher` to the vertices an epoch
touched.

**Scoring.**  A corridor's ``hotness`` is the *minimum* member hotness (a
corridor is only as hot as its least-travelled link) and its ``score`` is the
*sum* of the member scores (``hotness_i * length_i`` — score is additive over
the chain, so stitching never inflates the quality metric).  Ranking uses the
same total-order tie-break style as :mod:`repro.coordinator.single_path`:
every comparison falls back to the lead path id, so the top-k merge is
independent of the order corridors were produced in.

Cycles (a chain that closes on itself) are broken deterministically at the
member with the smallest path id, which keeps the decomposition a pure
function of the fragment set.

A report's shape — fragments, welds, corridors and the ``boundary_welds``
whose two fragments carry different shard labels — is :func:`corridor_stats`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.core.scoring import RankKey, rank_top_k

__all__ = [
    "CorridorSegment",
    "CompositeCorridor",
    "IncrementalStitcher",
    "chain_fragments",
    "build_corridors",
    "stitch_paths",
    "corridor_stats",
    "select_top_k_corridors",
]

@dataclass(frozen=True)
class CorridorSegment:
    """One hot motion path inside a composite corridor."""

    path_id: int
    path: MotionPath
    hotness: int

    @property
    def score(self) -> float:
        """The member's contribution to the corridor score: ``hotness * length``."""
        return self.hotness * self.path.length


@dataclass(frozen=True)
class CompositeCorridor:
    """A maximal chain of hot motion paths welded end-to-start.

    Every hot path belongs to exactly one corridor (a path with no welds forms
    a singleton corridor), so the corridor report is a partition of the hot
    set — nothing is dropped, only grouped.
    """

    segments: Tuple[CorridorSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("a composite corridor needs at least one segment")

    @property
    def path_ids(self) -> Tuple[int, ...]:
        return tuple(segment.path_id for segment in self.segments)

    @property
    def lead_path_id(self) -> int:
        """Id of the head segment — the deterministic tie-break key."""
        return self.segments[0].path_id

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def start(self) -> Point:
        return self.segments[0].path.start

    @property
    def end(self) -> Point:
        return self.segments[-1].path.end

    # Computed once per instance and cached in ``__dict__`` (not fields, so
    # ``repr``, equality and hash are unchanged), like ``MotionPath.length``.

    @cached_property
    def length(self) -> float:
        """Total Euclidean length of the chain."""
        return sum(segment.path.length for segment in self.segments)

    @cached_property
    def hotness(self) -> int:
        """Merged hotness: the corridor is only as hot as its weakest link."""
        return min(segment.hotness for segment in self.segments)

    @cached_property
    def score(self) -> float:
        """Sum of the member scores — additive, so stitching never inflates it."""
        return sum(segment.score for segment in self.segments)


# ---------------------------------------------------------------------------
# Chaining
# ---------------------------------------------------------------------------


def chain_fragments(
    path_ids: Iterable[int],
    successor: Mapping[int, int],
    predecessor: Mapping[int, int],
) -> List[List[int]]:
    """Partition ``path_ids`` into maximal chains under the weld ``successor`` map.

    Deterministic and order-free: chains are walked from their unique heads
    (fragments with no predecessor, visited in ascending id order), cycles
    are broken at their smallest member id, and the resulting chain list is
    ordered by head id.  Fragments with no welds come out as singletons.

    ``predecessor`` is the inverse of ``successor`` (a fragment has at most
    one weld into its start vertex), so a head is found by testing
    ``path_ids`` alone, never the welds outside them.
    """
    ids = set(path_ids)
    has_predecessor = {path_id for path_id in ids if predecessor.get(path_id) in ids}
    chains: List[List[int]] = []
    visited = set()
    for head in sorted(ids):
        if head in visited or head in has_predecessor:
            continue
        chain = [head]
        visited.add(head)
        while True:
            next_id = successor.get(chain[-1])
            if next_id is None or next_id not in ids or next_id in visited:
                break
            chain.append(next_id)
            visited.add(next_id)
        chains.append(chain)
    # Whatever remains sits on weld cycles; ascending iteration makes the
    # first unvisited member of each cycle its minimum, where we break it.
    for head in sorted(ids - visited):
        if head in visited:
            continue
        chain = [head]
        visited.add(head)
        next_id = successor.get(head)
        while next_id is not None and next_id in ids and next_id not in visited:
            chain.append(next_id)
            visited.add(next_id)
            next_id = successor.get(next_id)
        chains.append(chain)
    return sorted(chains, key=lambda chain: chain[0])


def build_corridors(
    chains: Iterable[Sequence[int]],
    resolve: Callable[[int], Tuple[MotionPath, int]],
) -> List[CompositeCorridor]:
    """Materialise id-chains into corridors; ``resolve`` maps id -> (path, hotness)."""
    corridors = []
    for chain in chains:
        segments = []
        for path_id in chain:
            path, hotness = resolve(path_id)
            segments.append(CorridorSegment(path_id, path, hotness))
        corridors.append(CompositeCorridor(tuple(segments)))
    return corridors


def stitch_paths(
    hot_paths: Iterable[Tuple[MotionPathRecord, int]]
) -> List[CompositeCorridor]:
    """Global reference stitch: the seed coordinator's long-path report.

    ``hot_paths`` yields ``(record, hotness)`` pairs (the output of
    :meth:`Coordinator.hot_paths`).  The full-mode corridor report, and the
    oracle the delta mode's :class:`IncrementalStitcher` must reproduce bit
    for bit — the contract of ``tests/test_differential.py``.
    """
    info: Dict[int, Tuple[MotionPath, int]] = {}
    starts_at: Dict[Tuple[float, float], List[int]] = {}
    ends_at: Dict[Tuple[float, float], List[int]] = {}
    for record, hotness in hot_paths:
        path = record.path
        info[record.path_id] = (path, hotness)
        starts_at.setdefault((path.start.x, path.start.y), []).append(record.path_id)
        ends_at.setdefault((path.end.x, path.end.y), []).append(record.path_id)
    successor: Dict[int, int] = {}
    predecessor: Dict[int, int] = {}
    for vertex, enders in ends_at.items():
        starters = starts_at.get(vertex)
        if starters is None or len(enders) != 1 or len(starters) != 1:
            continue
        predecessor_id, successor_id = enders[0], starters[0]
        if predecessor_id != successor_id:  # a degenerate self-loop never welds
            successor[predecessor_id] = successor_id
            predecessor[successor_id] = predecessor_id
    chains = chain_fragments(info, successor, predecessor)
    return build_corridors(chains, info.__getitem__)


def corridor_stats(
    corridors: Sequence[CompositeCorridor], owner_of: Callable[[int], int]
) -> Dict[str, int]:
    """The shape of a corridor report, for the ``stitch_stats`` diagnostic.

    ``welds`` counts the welds the chains *consume* (a weld cycle's closing
    weld drops out when the cycle is broken), so ``fragments - welds ==
    corridors``; ``boundary_welds`` counts the consumed welds whose two
    fragments ``owner_of`` labels differently.
    """
    welds = boundary_welds = multi_segment = 0
    for corridor in corridors:
        path_ids = corridor.path_ids
        welds += len(path_ids) - 1
        multi_segment += len(path_ids) > 1
        boundary_welds += sum(
            owner_of(left) != owner_of(right) for left, right in zip(path_ids, path_ids[1:])
        )
    return {
        "fragments": welds + len(corridors),
        "welds": welds,
        "boundary_welds": boundary_welds,
        "corridors": len(corridors),
        "multi_segment_corridors": multi_segment,
    }


# ---------------------------------------------------------------------------
# Incremental stitching (epoch_mode="delta")
# ---------------------------------------------------------------------------


class IncrementalStitcher:
    """Maintain corridor chains incrementally under insert/expire/weld events.

    The full stitch re-welds the entire hot fragment set every time the
    corridor report is queried; this class keeps the weld structure — vertex
    occupancy, the weld decided at each vertex, the successor/predecessor
    maps, the chain partition, one rank key and the materialised
    :class:`CompositeCorridor` per chain — alive across epochs, so a query
    only pays for the fragments that changed since the last one.

    :meth:`apply` takes the state of the ids that *may* have changed — the
    dirty set the query view accumulated from the epoch's hotness
    transitions — never the whole hot set.  It re-decides the welds at the
    vertices of the ids that entered or left via the same degree-1 rule as
    :func:`stitch_paths`, and re-chains only the *tainted* chains: a chain is
    tainted when a member was added or removed or when a weld on it appeared
    or disappeared.  Every other chain — and its rank key and cached corridor
    — is reused untouched.  This is corridor-aware expiry: ``k`` fragments of
    one corridor expiring in the same epoch tear the chain down once, not
    ``k`` times (the coalescing is counted in ``expiry_coalesced``).

    **Exactness.**  The retained successor map always equals the one a global
    weld pass would compute (welds are a per-vertex set function of the hot
    set, and every touched vertex is re-decided).  Re-chaining only tainted
    chains is exact because tainted-ness is closed over weld edges: an edge
    between two surviving fragments either predates the change — then both
    ends sat on the same old chain, so they are rebuilt (or reused) together —
    or was created by it, which taints both endpoint chains.  Hence
    :func:`chain_fragments` over the rebuilt members alone (their heads found
    through the predecessor map, so no other weld is read) sees every edge a
    global re-chain would, and heads/cycle-breaks come out identically, so
    the report stays bit-for-bit equal to the full stitch — the contract of
    ``tests/test_differential.py`` and the delta property suite.
    A chain's rank key is ``min`` / ``sum`` over its members in chain order,
    the very expressions :class:`CompositeCorridor` evaluates, so
    :meth:`top_k` equals :func:`select_top_k_corridors` over the full report.

    Like the rest of this module, the class knows no shard layout: owners
    are resolved per :meth:`report` call, for :func:`corridor_stats` only.
    """

    def __init__(self) -> None:
        self._paths: Dict[int, MotionPath] = {}
        self._hotness: Dict[int, int] = {}
        self._starts: Dict[Tuple[float, float], set] = {}
        self._ends: Dict[Tuple[float, float], set] = {}
        self._weld_at: Dict[Tuple[float, float], Tuple[int, int]] = {}
        self._successor: Dict[int, int] = {}
        self._predecessor: Dict[int, int] = {}
        self._chains: Dict[int, List[int]] = {}
        self._chain_of: Dict[int, int] = {}
        #: head id -> ``(hotness, score, -head)``; always one per chain.
        self._keys: Dict[int, RankKey] = {}
        #: head id -> materialised corridor; filled on demand, dropped on re-key.
        self._corridors: Dict[int, CompositeCorridor] = {}
        #: Counters accumulated since the last :meth:`report` (folded into its
        #: stats dict and then reset).
        self._since_report: Dict[str, int] = self._zero_counters()
        #: Lifetime totals, surfaced by ``shard_statistics()``.
        self.totals: Dict[str, int] = self._zero_counters()

    @staticmethod
    def _zero_counters() -> Dict[str, int]:
        return {
            "fragments_added": 0,
            "fragments_removed": 0,
            "expiry_coalesced": 0,
            "chains_rewelded": 0,
            "chains_reused": 0,
            "corridors_patched": 0,
            "corridors_reused": 0,
        }

    def _bump(self, counter: str, amount: int = 1) -> None:
        self._since_report[counter] += amount
        self.totals[counter] += amount

    def _resolve(self, path_id: int) -> Tuple[MotionPath, int]:
        return self._paths[path_id], self._hotness[path_id]

    # -- weld maintenance ---------------------------------------------------------

    def _reweld(self, vertex: Tuple[float, float], taint: Callable[[int], None]) -> None:
        """Re-decide the degree-1 weld at ``vertex`` after its occupancy changed."""
        enders = self._ends.get(vertex)
        starters = self._starts.get(vertex)
        new_weld = None
        if enders is not None and starters is not None and len(enders) == 1 and len(starters) == 1:
            predecessor_id = next(iter(enders))
            successor_id = next(iter(starters))
            if predecessor_id != successor_id:  # a degenerate self-loop never welds
                new_weld = (predecessor_id, successor_id)
        old_weld = self._weld_at.get(vertex)
        if old_weld == new_weld:
            return
        if old_weld is not None:
            old_predecessor, old_successor = self._weld_at.pop(vertex)
            del self._successor[old_predecessor]
            del self._predecessor[old_successor]
            taint(old_predecessor)
            taint(old_successor)
        if new_weld is not None:
            predecessor_id, successor_id = new_weld
            self._weld_at[vertex] = new_weld
            self._successor[predecessor_id] = successor_id
            self._predecessor[successor_id] = predecessor_id
            taint(predecessor_id)
            taint(successor_id)

    # -- the per-query patch ------------------------------------------------------

    def apply(self, changes: Mapping[int, Optional[Tuple[MotionPath, int]]]) -> None:
        """Bring the ids in ``changes`` up to date; every other id is untouched.

        ``changes`` maps an id to its ``(path, hotness)`` if it is hot now and
        to ``None`` if it is not (ids are never reused, so a retained id keeps
        its path).  Ids that entered or left re-decide the welds at their two
        vertices and the tainted chains are re-chained; a hotness-only change
        re-keys its chain without re-welding anything; an id whose state
        already matches costs one dict probe.
        """
        dirty_heads: set = set()
        added: set = set()
        removed: set = set()
        reheated: set = set()  # heads of chains with a hotness-only change

        def taint(path_id: int) -> None:
            head = self._chain_of.get(path_id)
            if head is not None:  # else just added: re-chained anyway
                dirty_heads.add(head)

        removals_by_head: Dict[int, int] = {}
        for path_id, entry in changes.items():
            path = self._paths.get(path_id)
            if entry is None:
                if path is None:
                    continue
                removed.add(path_id)
                head = self._chain_of[path_id]
                removals_by_head[head] = removals_by_head.get(head, 0) + 1
                dirty_heads.add(head)
                del self._paths[path_id]
                del self._hotness[path_id]
                start_vertex = (path.start.x, path.start.y)
                end_vertex = (path.end.x, path.end.y)
                self._discard(self._starts, start_vertex, path_id)
                self._discard(self._ends, end_vertex, path_id)
            elif path is None:
                path, self._hotness[path_id] = entry
                self._paths[path_id] = path
                start_vertex = (path.start.x, path.start.y)
                end_vertex = (path.end.x, path.end.y)
                self._starts.setdefault(start_vertex, set()).add(path_id)
                self._ends.setdefault(end_vertex, set()).add(path_id)
                added.add(path_id)
            else:
                if self._hotness[path_id] != entry[1]:
                    self._hotness[path_id] = entry[1]
                    reheated.add(self._chain_of[path_id])
                continue
            self._reweld(start_vertex, taint)
            self._reweld(end_vertex, taint)

        rebuilt_members = set(added)
        for head in dirty_heads:
            rebuilt_members.update(self._chains.pop(head))
            del self._keys[head]
            self._corridors.pop(head, None)
        rebuilt_members -= removed
        for member in removed:
            del self._chain_of[member]
        new_chains = chain_fragments(rebuilt_members, self._successor, self._predecessor)
        for chain in new_chains:
            head = chain[0]
            self._chains[head] = chain
            for member in chain:
                self._chain_of[member] = head
            self._rekey(head)
        for head in reheated - dirty_heads:
            self._rekey(head)

        self._bump("fragments_added", len(added))
        self._bump("fragments_removed", len(removed))
        self._bump("chains_rewelded", len(new_chains))
        self._bump("chains_reused", len(self._chains) - len(new_chains))
        self._bump(
            "expiry_coalesced",
            sum(count - 1 for count in removals_by_head.values() if count > 1),
        )

    def _rekey(self, head: int) -> None:
        """Recompute one chain's rank key (and drop its now-stale corridor)."""
        hotness, paths, chain = self._hotness, self._paths, self._chains[head]
        self._keys[head] = (
            min(hotness[member] for member in chain),
            sum(hotness[member] * paths[member].length for member in chain),
            -head,
        )
        self._corridors.pop(head, None)

    def _corridor(self, head: int) -> CompositeCorridor:
        """The chain's corridor, materialised on first use after a re-key."""
        cached = self._corridors.get(head)
        if cached is None:
            cached = build_corridors([self._chains[head]], self._resolve)[0]
            self._corridors[head] = cached
            self._bump("corridors_patched")
        else:
            self._bump("corridors_reused")
        return cached

    def top_k(self, k: int, by_score: bool = False) -> List[CompositeCorridor]:
        """Top-k corridors read off the chain keys; only the winners are built."""
        return [
            self._corridor(-negated_head)
            for _hotness, _score, negated_head in rank_top_k(self._keys.values(), k, by_score)
        ]

    @staticmethod
    def _discard(occupancy: Dict[Tuple[float, float], set], vertex: Tuple[float, float], path_id: int) -> None:
        members = occupancy.get(vertex)
        if members is not None:
            members.discard(path_id)
            if not members:
                del occupancy[vertex]

    # -- the patched report -------------------------------------------------------

    def report(
        self, owner_of: Callable[[int], int]
    ) -> Tuple[List[CompositeCorridor], Dict[str, int]]:
        """The corridor report plus its stats, rebuilt only where dirtied.

        Chains come out sorted by head id — the canonical order
        :func:`chain_fragments` produces globally — and each untouched
        chain's corridor is served from the per-chain cache.  ``owner_of``
        only feeds the ``boundary_welds`` diagnostic of :func:`corridor_stats`;
        the stats also carry the counters accumulated since the last report.
        """
        corridors = [self._corridor(head) for head in sorted(self._chains)]
        stats = corridor_stats(corridors, owner_of)
        stats.update(self._since_report)
        self._since_report = self._zero_counters()
        return corridors, stats


# ---------------------------------------------------------------------------
# Ranking (the corridor top-k merge)
# ---------------------------------------------------------------------------


def select_top_k_corridors(
    corridors: Iterable[CompositeCorridor], k: int, by_score: bool = False
) -> List[CompositeCorridor]:
    """Top-k corridors ranked by hotness (default) or by score.

    Mirrors :func:`repro.core.scoring.select_top_k` for composite corridors:
    ties fall back to the score (respectively hotness) and finally to the
    lead path id, so the ranking is a total order — independent of the order
    in which the corridors were produced.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    if by_score:
        key = lambda corridor: (corridor.score, corridor.hotness, -corridor.lead_path_id)
    else:
        key = lambda corridor: (corridor.hotness, corridor.score, -corridor.lead_path_id)
    return heapq.nlargest(k, corridors, key=key)
