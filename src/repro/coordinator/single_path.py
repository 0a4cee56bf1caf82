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

**The epoch pass.**  Decisions are sequential, but most of what a Case 2/3
decision reads is fixed before the first one is made: the index does not
change between the candidate stage and the decision stage, and the decision
stage only ever *inserts*.  A *lone* FSA — one that touches no other FSA of
the epoch (:data:`~repro.coordinator.overlaps.LONE`) — has its answers fixed
in advance: the only overlap region meeting it is its own singleton, so every
end vertex inside it has bonus 1 and its fabricated vertex is its centre with
count 1.  Its decision reads its end vertices from the live index, which
holds exactly what a pass would have read plus the paths inserted since.
:func:`prefetch_vertex_candidates` computes the rest for the whole epoch:
each other pending FSA's end vertices (:meth:`GridIndex.end_vertices_in`:
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
its inserts, rather than rescanning them all.
Both index storages run this one pass; the literal transcription of
Algorithm 2 it must equal is the test oracle ``tests/single_path_oracle.py``.

Each state's FSA is built once per epoch (:attr:`ObjectState.fsa` validates
a new ``Rectangle`` on every access) and handed to the plan, the candidate
stage, the pass and the decision.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
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
    "CandidatePath",
    "SinglePathEpochResult",
    "SinglePathStrategy",
    "VertexPrefetch",
    "apply_co_occurrence_boost",
    "prefetch_vertex_candidates",
]


@dataclass
class CandidatePath:
    """An available motion path for one object, with its provisional hotness."""

    record: MotionPathRecord
    hotness: int


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


def apply_co_occurrence_boost(candidate_paths: Dict[int, List[CandidatePath]]) -> None:
    """Boost hotness of paths appearing in several objects' candidate sets.

    Implements Lines 13-15 of Algorithm 2: each co-occurrence means another
    reporter could also adopt the path, making it a better shared choice.  The
    boost is a pure function of the multiset of candidate path ids.
    """
    occurrences: Counter = Counter()
    for candidates in candidate_paths.values():
        for candidate in candidates:
            occurrences[candidate.record.path_id] += 1
    for candidates in candidate_paths.values():
        for candidate in candidates:
            extra = occurrences[candidate.record.path_id] - 1
            candidate.hotness += extra


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
    pending: Sequence[Tuple[int, int, Rectangle]],
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
    map (the earlier state of a duplicate reporter), a saturated epoch —
    from the merged structure, in one batch.

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
        fsas = [state.fsa for state in states]

        # Phase 1: the FSA overlap structure and the candidate motion paths
        # per object.  The plan splits the epoch's FSAs into components and
        # resolves them against the cache; the backend builds the misses
        # while the candidate loop runs here.  Both dicts keep one entry per
        # object — a duplicate reporter's later state, at its first position
        # — and both of its states are still decided below.
        plan = plan_shard_overlaps(
            self._pool_cache, {state.object_id: fsa for state, fsa in zip(states, fsas)}
        )
        self.last_pool_stats = plan.stats
        candidate_paths, built = self.backend.build_overlaps(
            plan.missed_pools,
            lambda: {
                state.object_id: self.candidate_paths(state, fsa)
                for state, fsa in zip(states, fsas)
            },
        )
        plan.complete(built)

        # Phase 2: boost hotness of paths that appear in several objects'
        # candidate sets.
        apply_co_occurrence_boost(candidate_paths)

        # Phase 3: selection per object, in submission order, behind the
        # epoch pass (module docstring).
        prefetched = prefetch_vertex_candidates(
            self._index,
            [
                (position, state.object_id, fsa)
                for position, (state, fsa) in enumerate(zip(states, fsas))
                if not candidate_paths[state.object_id]
            ],
            plan,
        )
        probe = EndpointTable() if prefetched else None
        responses, inserted_ids = result.responses, result.inserted
        for position, (state, fsa) in enumerate(zip(states, fsas)):
            response, path_id = self.decide(
                state,
                fsa,
                candidate_paths[state.object_id],
                plan,
                prefetched.get(position),
                probe,
            )
            responses.append(response)
            if path_id is not None:
                inserted_ids.append(path_id)
        return result

    # -- candidate generation ------------------------------------------------------

    def candidate_paths(self, state: ObjectState, fsa: Rectangle) -> List[CandidatePath]:
        """``GetCandidatePaths``: stored paths from the SSA start into ``fsa``,
        the state's FSA.

        Answered from the single grid cell holding the SSA start (the
        columnar storage: from that vertex's hash bucket).
        """
        records = self._index.paths_starting_at(state.start, fsa)
        return [
            CandidatePath(record, self._hotness.hotness(record.path_id) + 1)
            for record in records
        ]

    # -- selection ---------------------------------------------------------------------

    def decide(
        self,
        state: ObjectState,
        fsa: Rectangle,
        candidates: List[CandidatePath],
        plan: OverlapPlan,
        prefetch: Optional[VertexPrefetch] = None,
        probe: Optional[EndpointTable] = None,
    ) -> Tuple[CoordinatorResponse, Optional[int]]:
        """Choose one object's motion path given its (boosted) candidate set.

        ``fsa`` is the state's FSA and ``plan`` the epoch's completed overlap
        plan; ``prefetch`` is the object's share of the epoch pass
        (:func:`prefetch_vertex_candidates`; ``None`` for a lone FSA) and
        ``probe`` the end table of the epoch's inserts, which every insert
        joins (``None`` when the pass left no entry, so that nothing reads
        it).  :meth:`_choose_vertex` says where a Case 2/3 decision reads its
        vertices.

        Returns the response and the id of the path the decision inserted
        (``None`` when it reused one).

        Both selection steps use total orders — ties fall back to the path id
        or the vertex coordinates — so the outcome is independent of the order
        in which candidates were enumerated (which is what lets the epoch
        pass read the index in bulk and the inserts by end x).
        """
        if candidates:
            chosen = max(
                candidates,
                key=lambda candidate: (candidate.hotness, -candidate.record.path_id),
            )
            self._hotness.record_crossing(chosen.record.path_id, state.t_end)
            return CoordinatorResponse(state.object_id, chosen.record.path.end, state.t_end), None

        start = state.start
        endpoint = self._choose_vertex(fsa, plan, prefetch, probe)[0]
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
        record = self._index.path_between(start, endpoint)
        path_id = None
        if record is None:
            record = self._index.insert(MotionPath(start, endpoint), created_at=state.t_end)
            path_id = record.path_id
            if probe is not None:
                probe.add_path(path_id, start, endpoint)
        self._hotness.record_crossing(record.path_id, state.t_end)
        return CoordinatorResponse(state.object_id, endpoint, state.t_end), path_id

    def _choose_vertex(
        self,
        fsa: Rectangle,
        plan: OverlapPlan,
        prefetch: Optional[VertexPrefetch],
        probe: Optional[EndpointTable],
    ) -> CandidateVertex:
        """A Case 2/3 decision's vertex: the first maximum of ``(hotness, not
        fabricated, x, y)`` under a strict ``>``, as in ``max``, returned as
        ``(vertex, hotness, fabricated)``.

        With a ``prefetch`` the vertices are the prefetched end vertices,
        with the ``probe``'s groups inside ``fsa`` merged in (only a vertex
        the pass did not see asks the merged structure for its bonus), and
        the prefetched fabricated vertex.  Without one the FSA is lone: its
        end vertices come from the live index with bonus 1 each, and its
        fabricated vertex is its centre with count 1.  Distinct vertices
        rank apart, so the enumeration order cannot matter.
        """
        if prefetch is None:
            end_vertices, bonus_of = self._index.end_vertices_in(fsa), None
            centre, count = fsa.center, 1
        else:
            end_vertices, bonus_of = prefetch.end_vertices, prefetch.bonus
            for coordinates, (vertex, path_ids) in probe.end_vertices_in(fsa).items():
                group = end_vertices.get(coordinates)
                if group is None:
                    end_vertices[coordinates] = (vertex, path_ids)
                else:
                    group[1].extend(path_ids)
            # Degenerate fall-back when nothing intersects: the object's own
            # FSA normally sits in the overlap structure as its singleton
            # region, but a saturated ``max_regions`` table drops late
            # singletons (the hard cap keeps earlier insertions), and the
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
