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
from itertools import chain as chain_from
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.core.motion_path import MotionPath
from repro.core.scoring import RankKey, StandingTopK
from repro.core.value import FrozenValue

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


class CorridorSegment(FrozenValue):
    """One hot motion path inside a composite corridor.

    ``score`` (the member's contribution to the corridor score, ``hotness *
    path.length``) is computed once, at construction, into its own slot: not
    a field, so ``repr``, equality and hash are those of ``(path_id, path,
    hotness)``.
    """

    __slots__ = ("path_id", "path", "hotness", "score")
    __match_args__ = ("path_id", "path", "hotness")

    def __init__(self, path_id: int, path: MotionPath, hotness: int) -> None:
        _set_segment_path_id(self, path_id)
        _set_segment_path(self, path)
        _set_segment_hotness(self, hotness)
        _set_segment_score(self, hotness * path.length)


_set_segment_path_id = CorridorSegment.path_id.__set__
_set_segment_path = CorridorSegment.path.__set__
_set_segment_hotness = CorridorSegment.hotness.__set__
_set_segment_score = CorridorSegment.score.__set__
_PATH_LENGTH = attrgetter("path.length")
_HOTNESS = attrgetter("hotness")
_SCORE = attrgetter("score")


class CompositeCorridor(FrozenValue):
    """A maximal chain of hot motion paths welded end-to-start.

    Every hot path belongs to exactly one corridor (a path with no welds forms
    a singleton corridor), so the corridor report is a partition of the hot
    set — nothing is dropped, only grouped.

    ``length`` (the chain's total Euclidean length), ``hotness`` (the minimum
    member hotness: a corridor is only as hot as its weakest link) and
    ``score`` (the sum of the member scores — additive, so stitching never
    inflates it) are computed at construction into their own slots, with the
    builtin ``sum`` and ``min`` over the segments in chain order.  They are
    not fields: ``repr``, equality and hash are those of ``segments``.
    """

    __slots__ = ("segments", "length", "hotness", "score")
    __match_args__ = ("segments",)

    def __init__(self, segments: Tuple[CorridorSegment, ...]) -> None:
        if not segments:
            raise ConfigurationError("a composite corridor needs at least one segment")
        _set_segments(self, segments)
        _set_length(self, sum(map(_PATH_LENGTH, segments)))
        _set_hotness(self, min(map(_HOTNESS, segments)))
        _set_score(self, sum(map(_SCORE, segments)))

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


_set_segments = CompositeCorridor.segments.__set__
_set_length = CompositeCorridor.length.__set__
_set_hotness = CompositeCorridor.hotness.__set__
_set_score = CompositeCorridor.score.__set__


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
    hot_paths: Iterable[Tuple[MotionPath, int]]
) -> List[CompositeCorridor]:
    """Global reference stitch: the seed coordinator's long-path report.

    ``hot_paths`` yields ``(stored path, hotness)`` pairs (the output of
    :meth:`Coordinator.hot_paths`).  The full-mode corridor report, and the
    oracle the delta mode's :class:`IncrementalStitcher` must reproduce bit
    for bit — the contract of ``tests/test_differential.py``.
    """
    info: Dict[int, Tuple[MotionPath, int]] = {}
    starts_at: Dict[Tuple[float, float], List[int]] = {}
    ends_at: Dict[Tuple[float, float], List[int]] = {}
    for path, hotness in hot_paths:
        path_id = path.path_id
        info[path_id] = (path, hotness)
        starts_at.setdefault((path.start.x, path.start.y), []).append(path_id)
        ends_at.setdefault((path.end.x, path.end.y), []).append(path_id)
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


class _Vertex:
    """One stitch vertex: its point, the held ids ending and starting there,
    and its weld."""

    __slots__ = ("point", "enders", "starters", "weld")

    def __init__(self) -> None:
        self.point: Tuple[float, float] = (0.0, 0.0)
        self.enders: List[int] = []
        self.starters: List[int] = []
        self.weld: Optional[Tuple[int, int]] = None


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
    every refresh in between — never the whole hot set.  It does each step
    once per change, per vertex and per chain, in three loops:

    * one pass over the changes updates the vertex occupancy in place and
      collects every touched vertex into one set — a vertex the pass creates
      holds one path and no weld, so only a later arrival there touches it —
      and the chain heads of the ids that left or changed hotness;
    * one weld decision per distinct touched vertex, by the same degree-1
      rule as :func:`stitch_paths`; a weld that appeared or disappeared adds
      the chain heads of its two ids as it changes;
    * the members of those *dirty* chains, plus the ids that entered, are
      re-chained in one loop that walks, re-labels and re-keys each chain.

    A vertex is an object that holds its enders, its starters and its weld,
    so a held fragment reaches its two vertices without a lookup; the
    ``(x, y)`` -> vertex map is pruned of empty vertices as it grows past
    four per held fragment, and the pruned ones are reused for new points.

    Every other chain — and its rank key and cached corridor — is reused
    untouched.  This is corridor-aware expiry: ``k`` fragments of one
    corridor expiring in the same apply tear the chain down once, not ``k``
    times (counted in ``expiry_coalesced``).  The counters therefore count
    net, coalesced patches: a weld that flips and flips back among the
    changes of one apply dirties nothing, and a chain whose only change is a
    member's hotness is re-walked but counted as reused.  The query view
    hands over only ids whose ``(path, rank tuple)`` changed, so a stitch
    whose changes all cancelled (steady traffic: each new crossing replaced
    one that expired) is no apply at all and counts nothing.  Every chain
    key replaced, old and new, is reported to both kept top-k sets, one per
    order (:class:`~repro.core.scoring.StandingTopK`); ``weld_decisions``
    counts the weld decisions of every apply.

    **Exactness.**  The retained successor map always equals the one a global
    weld pass would compute: the weld at a vertex is a function of that
    vertex's final occupancy alone, every touched vertex is re-decided after
    all occupancy updates, and ``successor[p]`` is only ever written by the
    weld at ``p``'s own end vertex.  Re-chaining only dirty chains is exact
    because the rebuilt members are closed over weld edges: an edge between
    two surviving fragments either predates the change — then both ends sat
    on the same old chain, so they are rebuilt (or reused) together — or was
    created by it, which dirties both endpoint chains.  So a rebuilt member
    heads a chain exactly when it has no predecessor at all, walking from it
    sees every edge a global re-chain would, and what is left over sits on
    weld cycles, broken at their smallest id as :func:`chain_fragments`
    breaks them — the report stays bit-for-bit equal to the full stitch, the
    contract of ``tests/test_differential.py`` and the delta property suite.
    A chain's rank key is its least member hotness and the builtin ``sum``
    over its members' scores (``hotness * length``, the middle of the rank
    tuple ``(hotness, score, -id)`` each member was handed with) in chain
    order — the values :class:`CompositeCorridor` computes, never a running
    total of the scores (``sum`` is compensated on CPython 3.12+); a
    singleton chain's key is its member's rank tuple.  So :meth:`top_k` equals
    :func:`select_top_k_corridors` over the full report.

    Like the rest of this module, the class knows no shard layout: owners
    are resolved per :meth:`report` call, for :func:`corridor_stats` only.
    """

    def __init__(self) -> None:
        #: id -> ``(path, start vertex, end vertex)``, stored when it is added.
        self._held: Dict[int, Tuple[MotionPath, _Vertex, _Vertex]] = {}
        #: Whether an id is one of the held (hot) fragments.
        self.holds: Callable[[int], bool] = self._held.__contains__
        #: id -> its rank tuple ``(hotness, score, -id)``, as handed to
        #: :meth:`apply`; the score is the member's corridor score.
        self._rank: Dict[int, RankKey] = {}
        #: ``(x, y)`` -> its vertex, while a held fragment starts or ends there.
        self._vertices: Dict[Tuple[float, float], _Vertex] = {}
        #: Emptied vertices, each unwelded, for new points to reuse.
        self._spare: List[_Vertex] = []
        self._successor: Dict[int, int] = {}
        self._predecessor: Dict[int, int] = {}
        self._chains: Dict[int, List[int]] = {}
        self._chain_of: Dict[int, int] = {}
        #: head id -> ``(hotness, score, -head)``; always one per chain.
        self._keys: Dict[int, RankKey] = {}
        #: head id -> materialised corridor; filled on demand, dropped on re-key.
        self._corridors: Dict[int, CompositeCorridor] = {}
        #: The kept sets of the chain keys, by hotness and by score.
        self._standing = (StandingTopK(False), StandingTopK(True))
        #: Weld decisions made, one per distinct touched vertex of an apply.
        self.weld_decisions = 0
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

    # -- the per-stitch patch -----------------------------------------------------

    def apply(self, changes: Mapping[int, Optional[Tuple[MotionPath, RankKey]]]) -> None:
        """Bring the ids in ``changes`` up to date; every other id is untouched.

        ``changes`` maps an id to its ``(path, (hotness, hotness *
        path.length, -id))`` if it is hot now and to ``None`` if it is not
        (ids are never reused, so a retained id keeps its path); the rank
        tuple is stored as it is.  Ids that entered or left touch their
        vertices, whose welds are re-decided once each, and their dirty
        chains are re-chained; a re-heated id (a tuple unequal to the one
        stored) re-keys its chain without re-welding anything.
        """
        held, rank, chain_of = self._held, self._rank, self._chain_of
        vertices = self._vertices
        vertex_at, spare = vertices.get, self._spare
        touched: set = set()  # the vertices whose weld may have changed
        touch = touched.add
        added: List[int] = []
        removed: List[int] = []
        reheated: List[int] = []  # held ids whose rank tuple alone changed
        for path_id, entry in changes.items():
            if entry is None:
                entry = held.pop(path_id, None)
                if entry is None:
                    continue
                del rank[path_id]
                removed.append(path_id)
                _path, start_vertex, end_vertex = entry
                start_vertex.starters.remove(path_id)
                end_vertex.enders.remove(path_id)
                touch(start_vertex)
                touch(end_vertex)
            elif path_id not in held:
                # A new vertex holds this path alone, so it has no weld yet; a
                # weld needs an ender and a starter, and the other one's
                # arrival touches it.
                path, key = entry
                start, end = path.start, path.end
                point = (start.x, start.y)
                start_vertex = vertex_at(point)
                if start_vertex is None:
                    start_vertex = vertices[point] = spare.pop() if spare else _Vertex()
                    start_vertex.point = point
                else:
                    touch(start_vertex)
                point = (end.x, end.y)
                end_vertex = vertex_at(point)
                if end_vertex is None:
                    end_vertex = vertices[point] = spare.pop() if spare else _Vertex()
                    end_vertex.point = point
                else:
                    touch(end_vertex)
                held[path_id] = (path, start_vertex, end_vertex)
                rank[path_id] = key
                start_vertex.starters.append(path_id)
                end_vertex.enders.append(path_id)
                added.append(path_id)
            else:
                key = entry[1]
                if rank[path_id] != key:
                    rank[path_id] = key
                    reheated.append(path_id)
        removed_from = list(map(chain_of.pop, removed))  # the head of each one's chain

        # One weld decision per touched vertex; the ids of a weld that
        # appeared or disappeared dirty their chains (``None``: just added).
        dirty = set(removed_from)
        coalesced = len(removed_from) - len(dirty)
        mark, head_of = dirty.add, chain_of.get
        successor, predecessor = self._successor, self._predecessor
        emptied: List[_Vertex] = []
        for vertex in touched:
            new_weld = None
            enders = vertex.enders
            if len(enders) == 1:
                starters = vertex.starters
                if len(starters) == 1:
                    (predecessor_id,) = enders
                    (successor_id,) = starters
                    if predecessor_id != successor_id:  # a degenerate self-loop never welds
                        new_weld = (predecessor_id, successor_id)
            elif not enders and not vertex.starters:
                emptied.append(vertex)
            old_weld = vertex.weld
            if old_weld == new_weld:
                continue
            vertex.weld = new_weld
            if old_weld is not None:
                old_predecessor, old_successor = old_weld
                del successor[old_predecessor], predecessor[old_successor]
                mark(head_of(old_predecessor))
                mark(head_of(old_successor))
                if new_weld is None:
                    continue
            successor[predecessor_id] = successor_id
            predecessor[successor_id] = predecessor_id
            mark(head_of(predecessor_id))
            mark(head_of(successor_id))
        dirty.discard(None)
        self.weld_decisions += len(touched)
        # An emptied vertex leaves the map, unwelded, for a new point to reuse.
        for vertex in emptied:
            del vertices[vertex.point]
        spare += emptied
        del spare[len(held):]

        # Re-chain, re-label and re-key the members of every dirty chain and
        # of every re-heated one (rebuilt whole: the same chain comes out),
        # plus the ids that entered.
        rewelded = len(dirty)
        dirty.update(map(chain_of.__getitem__, reheated))
        rekeyed = len(dirty) - rewelded
        chains, keys, corridors = self._chains, self._keys, self._corridors
        edited = list(map(keys.pop, dirty))  # every chain key replaced, old and new
        # Every member of a dirty chain, the ones that left included, and the
        # ids that entered.
        members = list(chain_from(chain_from.from_iterable(map(chains.pop, dirty)), added))
        for head in dirty.intersection(corridors):
            del corridors[head]
        heads = [member for member in members if member not in predecessor and member in held]
        successor_of = successor.get
        for head in chain_from(heads, _cycle_heads(members, removed, heads, chains)):
            chain_of[head] = head
            next_id = successor_of(head)
            if next_id is None:
                chains[head] = [head]
                keys[head] = rank[head]
                continue
            # The key as ``CompositeCorridor`` evaluates it: the least member
            # hotness, and the builtin ``sum`` over the scores in chain order.
            chain = chains[head] = [head]
            least, member_score, _negated = rank[head]
            scores = [member_score]
            while next_id is not None and next_id != head:  # a cycle ends at its head
                chain.append(next_id)
                chain_of[next_id] = head
                count, member_score, _negated = rank[next_id]
                scores.append(member_score)
                if count < least:
                    least = count
                next_id = successor_of(next_id)
            keys[head] = (least, sum(scores), -head)
        edited.extend(map(keys.__getitem__, heads))
        if edited:
            for standing in self._standing:
                standing.edit(edited)

        self._bump("fragments_added", len(added))
        self._bump("fragments_removed", len(removed))
        self._bump("chains_rewelded", len(heads) - rekeyed)
        self._bump("chains_reused", len(chains) - len(heads) + rekeyed)
        self._bump("expiry_coalesced", coalesced)

    def _corridors_of(self, heads: Iterable[int]) -> List[CompositeCorridor]:
        """The chains' corridors, each materialised on first use after a re-key."""
        corridors, chains, held, rank = self._corridors, self._chains, self._held, self._rank
        answer = []
        patched = 0
        for head in heads:
            corridor = corridors.get(head)
            if corridor is None:
                corridor = corridors[head] = CompositeCorridor(tuple([
                    CorridorSegment(member, held[member][0], rank[member][0])
                    for member in chains[head]
                ]))
                patched += 1
            answer.append(corridor)
        self._bump("corridors_patched", patched)
        self._bump("corridors_reused", len(answer) - patched)
        return answer

    def top_k(self, k: int, by_score: bool = False) -> List[CompositeCorridor]:
        """Top-k corridors read off the kept chain keys; only the winners are built."""
        return self._corridors_of(
            -negated_head
            for _hotness, _score, negated_head in self._standing[bool(by_score)].top_k(
                self._keys.values(), k
            )
        )

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
        corridors = self._corridors_of(sorted(self._chains))
        stats = corridor_stats(corridors, owner_of)
        stats.update(self._since_report)
        self._since_report = self._zero_counters()
        return corridors, stats


def _cycle_heads(
    members: List[int], removed: List[int], heads: List[int], chains: Dict[int, List[int]]
) -> Iterator[int]:
    """The smallest id of each weld cycle among ``members``, once the chains
    from ``heads`` are walked (each is appended to ``heads``).

    Every member off a cycle lies on a chain from a head; a cycle has no
    head, so it is broken at its smallest id, as :func:`chain_fragments`
    breaks it.  The caller walks each yielded cycle before resuming.
    """
    if sum(map(len, map(chains.__getitem__, heads))) == len(members) - len(removed):
        return
    seen = set(chain_from.from_iterable(map(chains.__getitem__, heads)))
    seen.update(removed)
    for head in sorted(set(members) - seen):
        if head not in seen:
            heads.append(head)
            yield head
            seen.update(chains[head])


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
