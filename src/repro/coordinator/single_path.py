"""The SinglePath discovery strategy (paper Section 5.3, Algorithm 2).

SinglePath runs at the coordinator once per epoch, over the batch of state
messages received since the previous epoch.  For every reporting object it
determines the endpoint of the motion path the object just crossed, preferring
choices that concentrate hotness on few, long paths:

* **Case 1** — an already-stored motion path starts at the object's SSA start
  and ends inside its FSA: pick the hottest such path (hotness is temporarily
  boosted by the number of other reporting objects that could also adopt it).
* **Case 2** — no such path, but stored paths *end* inside the FSA: their end
  vertices become candidate endpoints, weighted by the summed hotness of the
  paths converging on them plus the count of the deepest FSA overlap they lie
  in.
* **Case 3** — nothing usable in the index: fabricate one extra candidate
  vertex inside the hottest overlap of reporting objects' FSAs intersecting
  this object's FSA, so simultaneous reporters converge on a shared endpoint.

In cases 2 and 3 a new motion path from the SSA start to the chosen vertex is
inserted into the grid index.  In every case a crossing is recorded with the
hotness tracker and the chosen endpoint is sent back to the object as the
start of its next Spatial Safe Area.

**Case 1 before the decision loop.**  The candidate stage returns each
state's Case 1 path ids, and :meth:`SinglePathStrategy.process_epoch`
settles every Case 1 choice before the first decision.  This is exact: the
ranking reads hotness as of the candidate stage, and no hotness write
separates the two stages.  A state with one candidate takes it and reads no
hotness, as the ``max`` of one element is that element.  Only a state with
two or more ranks its ids, by ``(hotness + the number of distinct objects
holding the path, -id)`` (:func:`apply_co_occurrence_boost`), which is the
paper's hotness plus one plus the other holders, the lowest id on a tie.

**The epoch pass.**  Decisions are sequential, but most of what a Case 2/3
decision reads is fixed before the first one is made: the index does not
change between the candidate stage and the decision stage, and the decision
stage only ever *inserts*.  A *lone* FSA — one that touches no other FSA of
the epoch (:data:`~repro.coordinator.overlaps.LONE`) — has its answers fixed
in advance: the only overlap region meeting it is its own singleton, so every
end vertex inside it has bonus 1 and its fabricated vertex is its centre with
count 1.  Its decision reads its end vertices from the live index, which
holds exactly what a pass would have read plus the paths inserted since; with
none, its answer is its centre, unranked.
:func:`prefetch_vertex_candidates` computes the rest for the whole epoch:
each other pending FSA's end vertices (``GridIndex.end_vertices_in``:
two bisections of the x-sorted end table and a y test on the run between
them, or a scan of the cells the FSA overlaps, by the index's storage), and
the overlap answers, each inside the FSA's query component
(:attr:`~repro.coordinator.overlaps.OverlapPlan.components`): one batch per
pool or for the merged structure — scalar loops for a small batch, the
region table for a large one.  The decision keeps what depends on decision
order — the hotness sums, the selection (inline, over the vertices: no
candidate list, no per-decision record), the insert, and, for an FSA the
pass read, the paths inserted earlier in the epoch, which it reads from the
epoch's probe, an :class:`~repro.coordinator.columnar.EndpointTable` of
those inserts, rather than rescanning them all.

**What the probe holds.**  A lone decision's insert ends inside its own FSA
(an end vertex, the centre or a corner of the nudge), and no FSA of the
epoch map touches a lone FSA, so no FSA the pass read can contain it — but
the earlier state of an object that reports twice is off the map, and its
FSA can.  So a lone insert joins the probe only in an epoch with such a
state; every other insert of a state with a prefetch entry always joins it.
On ``sim_paper`` (no object reports twice) that is the two or three inserts
an epoch of the states that are not lone, instead of all of them.

**No delegation frames.**  A lone report is a run of constant-time steps
(the Case 1 probe, the end-vertex read, the duplicate check, the insert, the
crossing, the response), so the reads pay no frame of their own: the Case 1
pass is one loop over the epoch's states
(:meth:`SinglePathStrategy.candidate_paths`), and the index's
per-report reads, ``starting_at``, ``end_vertices_in`` and the duplicate
check ``path_between``, are its table's own methods, bound once.

Both index storages run this one pass; the literal transcription of
Algorithm 2 it must equal is the test oracle ``tests/single_path_oracle.py``.

Each state's FSA is built once per epoch (:attr:`ObjectState.fsa` validates
a new ``Rectangle`` on every access) and handed to the plan, the candidate
stage, the pass and the decision.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.client.state import CoordinatorResponse, ObjectState
from repro.coordinator.columnar import EndpointTable, VertexGroup
from repro.coordinator.execution import ExecutionBackend, SerialBackend
from repro.coordinator.grid_index import GridIndex
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.overlaps import (
    LONE,
    OverlapPlan,
    OverlapPoolCache,
    plan_shard_overlaps,
    zero_pool_stats,
)

__all__ = [
    "SinglePathEpochResult",
    "SinglePathStrategy",
    "VertexPrefetch",
    "apply_co_occurrence_boost",
    "prefetch_vertex_candidates",
]


#: A candidate endpoint for a new motion path: ``(vertex, provisional
#: hotness, fabricated)``.
CandidateVertex = Tuple[Point, int, bool]


@dataclass
class SinglePathEpochResult:
    """Aggregate outcome of one SinglePath invocation (one epoch)."""

    #: One response per state, in submission order.
    responses: List[CoordinatorResponse] = field(default_factory=list)
    #: Ids of the paths the decisions inserted, in submission order (a
    #: decision that reused a path inserts nothing).
    inserted: List[int] = field(default_factory=list)

    @property
    def paths_inserted(self) -> int:
        return len(self.inserted)

    @property
    def paths_reused(self) -> int:
        return len(self.responses) - len(self.inserted)


def apply_co_occurrence_boost(
    object_ids: Sequence[int], candidate_ids: Sequence[Sequence[int]]
) -> Counter:
    """The co-occurrence boost of Lines 13-15 of Algorithm 2: ``path id ->``
    the number of distinct objects whose candidate sets hold the path.

    Each co-occurrence means another reporter could also adopt the path,
    making it a better shared choice.  ``candidate_ids`` holds one set of
    Case 1 path ids per state and ``object_ids`` the object of each.  A path
    counts once per object holding it, so an object that reports twice never
    boosts its own candidate: the boost is a pure function of the set of
    ``(object id, path id)`` pairs.  A contested state ranks its paths by
    hotness plus this count, which is the paper's hotness plus one plus the
    other holders.
    """
    held = set()
    occurrences: Counter = Counter()
    for object_id, path_ids in zip(object_ids, candidate_ids):
        for path_id in path_ids:
            holder = (object_id, path_id)
            if holder not in held:
                held.add(holder)
                occurrences[path_id] += 1
    return occurrences


@dataclass
class VertexPrefetch:
    """One object's share of the epoch pass: its Case 2/3 reads as of the
    barrier between the candidate stage and the decision stage."""

    #: End vertices inside the FSA: ``(x, y) -> (vertex, ids of the paths
    #: ending there)`` (:meth:`GridIndex.end_vertices_in`).
    end_vertices: Dict[Tuple[float, float], VertexGroup]
    #: ``(x, y)`` of a vertex -> count of the smallest overlap region
    #: containing it (one dict an epoch, shared by every object).
    bonus: Dict[Tuple[float, float], int]
    fabricated: Optional[Tuple[Point, int]]


def prefetch_vertex_candidates(
    index: GridIndex,
    pending: Iterable[Tuple[int, int, Rectangle]],
    plan: OverlapPlan,
) -> Dict[int, VertexPrefetch]:
    """The epoch pass: the Case 2/3 geometry of every pending object that
    is not lone, in one batch per query component.

    ``pending`` lists ``(position, object_id, fsa)`` for the states left
    without a Case 1 candidate, ``plan`` is the epoch's completed overlap
    plan and ``index`` the grid index, read here — after
    the candidate stage, before the first decision — where nothing mutates
    the index.  Returns ``position -> VertexPrefetch``; a lone FSA (its
    object's FSA in the epoch map, :data:`LONE` there) gets no entry, since
    its decision reads the live index (module docstring).

    Exact because the decision stage never deletes: what
    ``end_vertices_in(fsa)`` would return at decision time is the set read
    here plus the paths inserted since, which :meth:`SinglePathStrategy.decide`
    adds to the epoch's insert probe, an end table, and merges back in.

    The overlap answers of an FSA come from its query component
    (:attr:`OverlapPlan.components`).  A region that touches the FSA, or
    contains a vertex inside it or a point of a region touching it, is made
    of FSAs that touch it or such a region, so both answers lie inside that
    component; the component's own structure holds its regions in the merged
    order, so the tie-breaks agree too.  A component that is one pool is
    answered from the pool's structure, in one batch per pool; everything
    else — an FSA whose component joins several, an FSA outside the epoch
    map (the earlier state of a duplicate reporter) — from the merged
    structure, in one batch.

    The bonus of a vertex is a function of the vertex alone; it is computed
    for every end vertex matched and for every fabricated centroid of the
    epoch (the only new vertices decisions normally insert), in the batch
    that fabricates the centroids.
    """
    batches: Dict[Optional[int], List[Tuple[int, Rectangle]]] = {}
    fsas, components = plan.fsas, plan.components
    for position, object_id, fsa in pending:
        component = components.get(object_id) if fsas.get(object_id) is fsa else None
        if component != LONE:
            # ``None`` (the merged structure) never collides with a pool index.
            batches.setdefault(component, []).append((position, fsa))
    prefetched: Dict[int, VertexPrefetch] = {}
    bonus: Dict[Tuple[float, float], int] = {}
    for component, members in batches.items():
        structure = plan.merged() if component is None else plan.structures[component]
        answers = structure.candidate_vertices_for([fsa for _position, fsa in members])
        vertices: Dict[Tuple[float, float], Point] = {}
        for (position, fsa), answer in zip(members, answers):
            end_vertices = index.end_vertices_in(fsa)
            for key, (vertex, _path_ids) in end_vertices.items():
                vertices[key] = vertex
            if answer is not None:
                vertices[(answer[0].x, answer[0].y)] = answer[0]
            prefetched[position] = VertexPrefetch(end_vertices, bonus, answer)
        bonus.update(zip(vertices, structure.containing_counts(list(vertices.values()))))
    return prefetched


_fsa_of, _object_id_of = attrgetter("fsa"), attrgetter("object_id")
_state_start = attrgetter("start")


class SinglePathStrategy:
    """Implementation of Algorithm 2 over a grid index and a hotness tracker."""

    def __init__(
        self,
        index: GridIndex,
        hotness: HotnessTracker,
        pool_cache: Optional[OverlapPoolCache] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self._index = index
        self._hotness = hotness
        # Cross-epoch component cache of the delta pipeline (``None`` in full
        # mode).
        self._pool_cache = pool_cache
        #: Where the overlap stage builds the pools the cache missed
        #: (:mod:`repro.coordinator.execution`).
        self.backend = backend if backend is not None else SerialBackend()
        #: Pool-cache outcome of the most recent epoch (all zeros without a
        #: cache and on empty epochs).
        self.last_pool_stats: Dict[str, int] = zero_pool_stats()

    def process_epoch(self, states: Sequence[ObjectState]) -> SinglePathEpochResult:
        """Run SinglePath over the batch of state messages of one epoch."""
        self.last_pool_stats = zero_pool_stats()
        result = SinglePathEpochResult()
        if not states:
            return result
        fsas = list(map(_fsa_of, states))

        # Phase 1: the FSA overlap structure and the candidate motion paths
        # per state.  The plan splits the epoch's FSAs into components and
        # resolves them against the cache; the backend builds the misses
        # while the candidate loop runs here.  The plan keeps one entry per
        # object — a duplicate reporter's later FSA, at its first position —
        # while the candidates are gathered per state, by position.
        object_ids = list(map(_object_id_of, states))
        mapped = dict(zip(object_ids, fsas))
        plan = plan_shard_overlaps(self._pool_cache, mapped)
        self.last_pool_stats = plan.stats
        candidate_ids, built = self.backend.build_overlaps(
            plan.missed_pools, lambda: self.candidate_paths(states, fsas)
        )
        plan.complete(built)

        # Phase 2: every Case 1 choice, before the first decision writes a
        # hotness (module docstring).  A state with one candidate takes it;
        # only a contested state ranks its paths, by hotness plus the
        # co-occurrence boost, the lowest id on a tie.
        paths = self._index.by_id
        chosen: List[Optional[MotionPath]] = [paths[ids[0]] if ids else None for ids in candidate_ids]
        if max(map(len, candidate_ids)) > 1:
            occurrences = apply_co_occurrence_boost(object_ids, candidate_ids)
            hotness = self._hotness.hotness
            for position, ids in enumerate(candidate_ids):
                if len(ids) > 1:
                    chosen[position] = paths[
                        max(ids, key=lambda path_id: (hotness(path_id) + occurrences[path_id], -path_id))
                    ]

        # Phase 3: selection per object, in submission order, behind the
        # epoch pass (module docstring).  ``pending`` holds ``(position,
        # object id, FSA)`` of the states left without a Case 1 path.
        pending: Iterable[Tuple[int, int, Rectangle]] = zip(range(len(states)), object_ids, fsas)
        if any(chosen):
            pending = [entry for entry, path in zip(pending, chosen) if path is None]
        prefetched = prefetch_vertex_candidates(self._index, pending, plan)
        probe = EndpointTable() if prefetched else None
        # A lone decision's insert lies inside its own FSA, which no other
        # FSA of the epoch map touches: only an FSA outside the map (the
        # earlier state of an object reporting twice) can read it.
        lone_probe = probe if len(mapped) < len(states) else None
        prefetches: List[Optional[VertexPrefetch]] = [None] * len(states)
        for position, prefetch in prefetched.items():
            prefetches[position] = prefetch
        responses, inserted_ids, decide = result.responses, result.inserted, self.decide
        for state, fsa, path, prefetch in zip(states, fsas, chosen, prefetches):
            response, path_id = decide(
                state, fsa, path, plan, prefetch, lone_probe if prefetch is None else probe
            )
            responses.append(response)
            if path_id is not None:
                inserted_ids.append(path_id)
        return result

    # -- candidate generation ------------------------------------------------------

    def candidate_paths(
        self, states: Sequence[ObjectState], fsas: Sequence[Rectangle]
    ) -> List[Sequence[int]]:
        """Algorithm 2's candidate-path lookup for every state, in one pass:
        the ids of the stored paths from the state's SSA start into its FSA
        (``fsas``, in step), each answered from the single grid cell holding
        the SSA start (the columnar storage: from that vertex's hash bucket).
        """
        # A state without a candidate holds the shared empty tuple, so the
        # epoch keeps no empty list per state alive (one garbage-collector
        # allocation each).
        starting_at = self._index.starting_at
        return [path_ids or () for path_ids in map(starting_at, map(_state_start, states), fsas)]

    # -- selection ---------------------------------------------------------------------

    def decide(
        self,
        state: ObjectState,
        fsa: Rectangle,
        path: Optional[MotionPath],
        plan: OverlapPlan,
        prefetch: Optional[VertexPrefetch] = None,
        probe: Optional[EndpointTable] = None,
    ) -> Tuple[CoordinatorResponse, Optional[int]]:
        """Decide one state: ``path`` is its Case 1 path, chosen before
        the decision loop (:meth:`process_epoch`), or ``None`` for a Case 2/3
        state.

        A Case 1 decision records the crossing of its path and answers the
        path's end.  For the others ``fsa`` is the state's FSA and ``plan``
        the epoch's completed overlap plan; ``prefetch`` is the object's
        share of the epoch pass (:func:`prefetch_vertex_candidates`; ``None``
        for a lone FSA) and ``probe`` the end table of the epoch's inserts
        that a later decision may read: the decision reads it when it has a
        ``prefetch`` and its insert joins it (``None`` when nothing would
        read the insert).  A lone FSA reads its end vertices from the live
        index; with none, its answer is its centre, the one candidate,
        unranked.  :meth:`_choose_vertex` ranks every other Case 2/3
        decision.

        Returns the response and the id of the path the decision inserted
        (``None`` when it reused one).

        The vertex ranking, like the Case 1 ranking, is a total order —
        ties fall back to the vertex coordinates — so the outcome is
        independent of the order in which candidates were enumerated (which
        is what lets the epoch pass read the index in bulk and the inserts
        by end x).
        """
        t_end = state.t_end
        if path is not None:
            self._hotness.record_crossing(path.path_id, t_end)
            return CoordinatorResponse(state.object_id, path.end, t_end), None

        index, start = self._index, state.start
        if prefetch is not None:
            endpoint = self._choose_vertex(fsa, plan, probe.end_vertices_in(fsa), prefetch)[0]
        else:
            end_vertices = index.end_vertices_in(fsa)
            if end_vertices:
                endpoint = self._choose_vertex(fsa, plan, end_vertices, None)[0]
            else:
                low, high = fsa.low, fsa.high
                endpoint = Point((low.x + high.x) / 2.0, (low.y + high.y) / 2.0)  # its centre
        if endpoint.x == start.x and endpoint.y == start.y:
            # A zero-length path carries no information and would produce a
            # degenerate segment; nudge the endpoint to another point of the
            # FSA (the centroid, falling back to a corner).
            for alternative in (fsa.center, fsa.high, fsa.low):
                if alternative != start:
                    endpoint = alternative
                    break
        # Later objects of an epoch often choose the endpoint fabricated for
        # an earlier one (the point of the overlap structure): crediting the
        # path already stored instead of a duplicate keeps the index small
        # and concentrates hotness.
        path_id, inserted = index.path_between(start, endpoint), None
        if path_id is None:
            path_id = inserted = index.insert(start, endpoint, t_end).path_id
            if probe is not None:
                probe.add_path(path_id, start, endpoint)
        self._hotness.record_crossing(path_id, t_end)
        return CoordinatorResponse(state.object_id, endpoint, t_end), inserted

    def _choose_vertex(
        self,
        fsa: Rectangle,
        plan: OverlapPlan,
        end_vertices: Dict[Tuple[float, float], VertexGroup],
        prefetch: Optional[VertexPrefetch],
    ) -> CandidateVertex:
        """A Case 2/3 decision's vertex: the first maximum of ``(hotness, not
        fabricated, x, y)`` under a strict ``>``, as in ``max``, returned as
        ``(vertex, hotness, fabricated)``.

        With a ``prefetch`` the vertices are the prefetched end vertices,
        with ``end_vertices`` — the probe's groups inside ``fsa`` — merged
        in (only a vertex the pass did not see asks the merged structure for
        its bonus), and the prefetched fabricated vertex.  Without one the
        FSA is lone: ``end_vertices`` are the live index's, with bonus 1
        each, and its fabricated vertex is its centre with count 1.
        Distinct vertices rank apart, so the enumeration order cannot
        matter.
        """
        if prefetch is None:
            bonus_of = None
            centre, count = fsa.center, 1
        else:
            inserted, end_vertices, bonus_of = end_vertices, prefetch.end_vertices, prefetch.bonus
            for coordinates, (vertex, path_ids) in inserted.items():
                group = end_vertices.get(coordinates)
                if group is None:
                    end_vertices[coordinates] = (vertex, path_ids)
                else:
                    group[1].extend(path_ids)
            # Degenerate fall-back when nothing intersects: the object's own
            # FSA normally sits in the overlap structure as its singleton
            # region, but a capped component drops the singletons of its
            # late members (the hard cap keeps earlier insertions), and the
            # earlier FSA of an object that reports twice is not in it; use
            # the FSA centroid with zero hotness, which every end vertex
            # outranks (its hotness is at least 0 and it is not fabricated).
            centre, count = prefetch.fabricated or (fsa.center, 0)
        best, chosen = (count, False, centre.x, centre.y), (centre, count, True)
        hotness_of = self._hotness.hotness
        for coordinates, (vertex, path_ids) in end_vertices.items():
            bonus = 1 if bonus_of is None else bonus_of.get(coordinates)
            if bonus is None:
                region = plan.merged().smallest_region_containing(vertex)
                bonus = region.count if region is not None else 0
            hotness = sum(map(hotness_of, path_ids)) + bonus
            rank = (hotness, True, vertex.x, vertex.y)
            if rank > best:
                best, chosen = rank, (vertex, hotness, False)
        return chosen
