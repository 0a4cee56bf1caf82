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
every vertex at once, :class:`IncrementalStitcher` to the vertices the
changes since its last stitch touched.

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
from repro.core.scoring import RankKey, StandingTopK

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
    # ``repr``, equality and hash are unchanged).

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
    :class:`CompositeCorridor` per chain — alive across stitches, so a
    stitch only pays for the fragments that changed since the last one.

    :meth:`apply` takes the final state of the ids that *may* have changed
    since the previous apply — the pending map the query view folds from
    every refresh in between — never the whole hot set.  It makes one pass
    over the changes, updating the vertex occupancy in place and collecting
    every touched vertex into one set; then it re-decides the weld once per
    distinct touched vertex via the same degree-1 rule as
    :func:`stitch_paths`, and re-chains only the *tainted* chains: a chain
    is tainted when a member was added or removed or when a weld on it
    appeared or disappeared.  Every other chain — and its rank key and
    cached corridor — is reused untouched.  This is corridor-aware expiry:
    ``k`` fragments of one corridor expiring in the same apply tear the
    chain down once, not ``k`` times (counted in ``expiry_coalesced``).
    The counters therefore count net, coalesced patches: a weld that flips
    and flips back among the changes of one apply taints nothing.  The
    query view hands over only ids whose ``(path, hotness)`` changed, so a
    stitch whose changes all cancelled (steady traffic: each new crossing
    replaced one that expired) is no apply at all and counts nothing.  A
    standing top-k answer (:class:`~repro.core.scoring.StandingTopK`) is
    dropped when a chain key at or above its k-th key is edited.

    **Exactness.**  The retained successor map always equals the one a global
    weld pass would compute: the weld at a vertex is a function of that
    vertex's final occupancy alone, every touched vertex is re-decided after
    all occupancy updates, and ``successor[p]`` is only ever written by the
    weld at ``p``'s own end vertex.  Re-chaining only tainted chains is
    exact because tainted-ness is closed over weld edges: an edge between
    two surviving fragments either predates the change — then both ends sat
    on the same old chain, so they are rebuilt (or reused) together — or was
    created by it, which taints both endpoint chains.  So the rebuilt
    members' heads are exactly those whose predecessor lies outside them,
    walking from them sees every edge a global re-chain would, and what is
    left over sits on weld cycles, broken at their smallest id as
    :func:`chain_fragments` breaks them — the report stays bit-for-bit equal
    to the full stitch, the contract of ``tests/test_differential.py`` and
    the delta property suite.  A chain's rank key is ``min`` over its
    members' hotness and the builtin ``sum`` over their scores
    (``hotness * length``, stored per member) in chain order — the very
    expressions :class:`CompositeCorridor` evaluates, never a running total
    (``sum`` is compensated on CPython 3.12+) — so :meth:`top_k` equals
    :func:`select_top_k_corridors` over the full report.

    Like the rest of this module, the class knows no shard layout: owners
    are resolved per :meth:`report` call, for :func:`corridor_stats` only.
    """

    def __init__(self) -> None:
        #: id -> ``(path, start vertex, end vertex)``, stored when it is added.
        self._held: Dict[int, Tuple[MotionPath, Tuple[float, float], Tuple[float, float]]] = {}
        self._hotness: Dict[int, int] = {}
        #: id -> ``hotness * path.length``, the member's corridor score.
        self._score: Dict[int, float] = {}
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
        #: The last corridor top-k answer, kept while no edit reaches its k-th key.
        self._standing = StandingTopK()
        #: Counters accumulated since the last :meth:`report` (folded into its
        #: stats dict and then reset).
        self._since_report: Dict[str, int] = self._zero_counters()
        #: Lifetime totals, surfaced by ``shard_statistics()``.
        self.totals: Dict[str, int] = self._zero_counters()

    def __contains__(self, path_id: int) -> bool:
        """Whether ``path_id`` is one of the held (hot) fragments."""
        return path_id in self._held

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
        return self._held[path_id][0], self._hotness[path_id]

    # -- weld maintenance ---------------------------------------------------------

    def _reweld(self, vertex: Tuple[float, float], tainted: set) -> None:
        """Re-decide the degree-1 weld at ``vertex`` from its final occupancy;
        the ids of a weld that appeared or disappeared go into ``tainted``."""
        new_weld = None
        enders = self._ends.get(vertex)
        if enders is not None and len(enders) == 1:
            starters = self._starts.get(vertex)
            if starters is not None and len(starters) == 1:
                (predecessor_id,) = enders
                (successor_id,) = starters
                if predecessor_id != successor_id:  # a degenerate self-loop never welds
                    new_weld = (predecessor_id, successor_id)
        weld_at = self._weld_at
        old_weld = weld_at.get(vertex)
        if old_weld == new_weld:
            return
        if old_weld is not None:
            old_predecessor, old_successor = old_weld
            del weld_at[vertex]
            del self._successor[old_predecessor]
            del self._predecessor[old_successor]
            tainted.update(old_weld)
        if new_weld is not None:
            predecessor_id, successor_id = new_weld
            weld_at[vertex] = new_weld
            self._successor[predecessor_id] = successor_id
            self._predecessor[successor_id] = predecessor_id
            tainted.update(new_weld)

    # -- the per-stitch patch -----------------------------------------------------

    def apply(self, changes: Mapping[int, Optional[Tuple[MotionPath, int]]]) -> None:
        """Bring the ids in ``changes`` up to date; every other id is untouched.

        ``changes`` maps an id to its ``(path, hotness)`` if it is hot now and
        to ``None`` if it is not (ids are never reused, so a retained id keeps
        its path).  Ids that entered or left touch their two vertices, whose
        welds are re-decided once each and whose tainted chains are
        re-chained; a hotness-only change re-keys its chain without
        re-welding anything; an id whose state already matches costs one
        dict probe.
        """
        held, hotness, score = self._held, self._hotness, self._score
        starts, ends, chain_of = self._starts, self._ends, self._chain_of
        touched: set = set()
        added: List[int] = []
        removed: List[int] = []
        removed_from: List[int] = []  # the head of each removed id's chain
        reheated: set = set()  # heads of chains with a hotness-only change
        for path_id, entry in changes.items():
            if entry is None:
                entry = held.pop(path_id, None)
                if entry is None:
                    continue
                del hotness[path_id], score[path_id]
                removed.append(path_id)
                removed_from.append(chain_of.pop(path_id))
                _path, start_vertex, end_vertex = entry
                members = starts[start_vertex]
                if len(members) == 1:
                    del starts[start_vertex]
                else:
                    members.discard(path_id)
                members = ends[end_vertex]
                if len(members) == 1:
                    del ends[end_vertex]
                else:
                    members.discard(path_id)
            elif path_id not in held:
                path, count = entry
                start, end = path.start, path.end
                start_vertex = (start.x, start.y)
                end_vertex = (end.x, end.y)
                held[path_id] = (path, start_vertex, end_vertex)
                hotness[path_id] = count
                score[path_id] = count * path.length
                members = starts.get(start_vertex)
                if members is None:
                    starts[start_vertex] = {path_id}
                else:
                    members.add(path_id)
                members = ends.get(end_vertex)
                if members is None:
                    ends[end_vertex] = {path_id}
                else:
                    members.add(path_id)
                added.append(path_id)
            else:
                count = entry[1]
                if hotness[path_id] != count:
                    hotness[path_id] = count
                    score[path_id] = count * held[path_id][0].length
                    reheated.add(chain_of[path_id])
                continue
            touched.add(start_vertex)
            touched.add(end_vertex)

        tainted: set = set()
        for vertex in touched:
            self._reweld(vertex, tainted)
        dirty_heads = set(removed_from)
        coalesced = len(removed_from) - len(dirty_heads)
        for path_id in tainted:
            head = chain_of.get(path_id)
            if head is not None:  # else just added (re-chained anyway) or removed
                dirty_heads.add(head)

        chains, keys, corridors = self._chains, self._keys, self._corridors
        edited: List[RankKey] = []  # every chain key replaced, old and new
        rebuilt = set(added)
        for head in dirty_heads:
            rebuilt.update(chains.pop(head))
            edited.append(keys.pop(head))
            corridors.pop(head, None)
        rebuilt.difference_update(removed)
        rekeyed = reheated - dirty_heads  # intact chains: only their key and corridor are stale
        for head in rekeyed:
            edited.append(keys[head])
            corridors.pop(head, None)
        new_chains = self._rechain(rebuilt)
        for chain in new_chains:
            head = chain[0]
            chains[head] = chain
            for member in chain:
                chain_of[member] = head
            rekeyed.add(head)
        hotness_of, score_of = hotness.__getitem__, score.__getitem__
        for head in rekeyed:
            chain = chains[head]
            key = keys[head] = (min(map(hotness_of, chain)), sum(map(score_of, chain)), -head)
            edited.append(key)
        if edited:
            self._standing.edit(edited)

        self._bump("fragments_added", len(added))
        self._bump("fragments_removed", len(removed))
        self._bump("chains_rewelded", len(new_chains))
        self._bump("chains_reused", len(chains) - len(new_chains))
        self._bump("expiry_coalesced", coalesced)

    def _rechain(self, members: set) -> List[List[int]]:
        """The chains of ``members``, a set closed under weld edges.

        Heads are the members with no predecessor among them, walked in any
        order; what remains sits on weld cycles, each broken at its smallest
        id — :func:`chain_fragments`' partition, without its sorts.
        """
        successor, predecessor = self._successor, self._predecessor
        chains: List[List[int]] = []
        visited = 0
        for head in members:
            if predecessor.get(head) in members:
                continue
            chain = [head]
            next_id = successor.get(head)
            while next_id is not None and next_id in members:
                chain.append(next_id)
                next_id = successor.get(next_id)
            chains.append(chain)
            visited += len(chain)
        if visited < len(members):
            seen = set()
            for chain in chains:
                seen.update(chain)
            for head in sorted(members - seen):
                if head in seen:
                    continue
                chain = [head]
                seen.add(head)
                next_id = successor.get(head)
                while next_id is not None and next_id in members and next_id not in seen:
                    chain.append(next_id)
                    seen.add(next_id)
                    next_id = successor.get(next_id)
                chains.append(chain)
        return chains

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
        """Top-k corridors read off the chain keys; only the winners are built.

        The ranked keys are the standing answer while every chain key
        :meth:`apply` edited since it was computed lies below its k-th key;
        the winners still go through :meth:`_corridor`, so the counters read
        as if they had been re-ranked.
        """
        return [
            self._corridor(-negated_head)
            for _hotness, _score, negated_head in self._standing.top_k(
                self._keys.values(), k, by_score
            )
        ]

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
