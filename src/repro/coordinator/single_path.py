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

**The epoch pass (columnar kernel).**  Decisions are sequential, but most of
what a Case 2/3 decision reads is fixed before the first one is made: the
index does not change between the candidate stage and the decision stage, and
the decision stage only ever *inserts*.  :func:`prefetch_vertex_candidates`
computes that part for the whole epoch: each pending FSA's end vertices (two
bisections of the index's x-sorted end table and a y test on the run between
them), and the overlap answers, each inside the FSA's query component
(:attr:`~repro.coordinator.overlaps.OverlapPlan.components`): from the FSA's
own box when it touches no other FSA, else one batch per pool or for the
merged structure — scalar loops for a small batch, the region table for a
large one.  The decision loop keeps what depends on decision order — the
hotness sums, the selection, the insert, and the paths inserted earlier in
the epoch, which it probes in :class:`InsertedEnds` (sorted by end x, like
the end table) rather than rescanning them all.  The object kernel takes
none of this and queries the index and the merged structure per object, as
the pinned reference.

Each state's FSA is built once per epoch (:attr:`ObjectState.fsa` validates
a new ``Rectangle`` on every access) and handed to the plan, the candidate
stage, the pass and the decision.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.client.state import CoordinatorResponse, ObjectState
from repro.coordinator.columnar import EndpointTable
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
    "InsertedEnds",
    "SinglePathDecision",
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
class SinglePathDecision:
    """Outcome of SinglePath for a single reporting object."""

    object_id: int
    response: CoordinatorResponse
    path_id: int
    reused_existing_path: bool
    fabricated_vertex: bool


@dataclass
class SinglePathEpochResult:
    """Aggregate outcome of one SinglePath invocation (one epoch)."""

    decisions: List[SinglePathDecision] = field(default_factory=list)
    paths_inserted: int = 0
    paths_reused: int = 0
    vertices_fabricated: int = 0

    @property
    def responses(self) -> List[CoordinatorResponse]:
        return [decision.response for decision in self.decisions]

    def tally(self, decision: SinglePathDecision) -> None:
        """Append a decision and update the aggregate counters."""
        self.decisions.append(decision)
        if decision.reused_existing_path:
            self.paths_reused += 1
        else:
            self.paths_inserted += 1
        if decision.fabricated_vertex:
            self.vertices_fabricated += 1


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


class InsertedEnds:
    """The paths an epoch's decisions inserted, sorted by the end's x.

    :meth:`within` finds the ones ending inside an FSA by bisecting the x
    column onto ``[low x, high x]`` and testing y on that run only, with the
    closed ``<=`` comparisons of ``Rectangle.contains_point``: the records a
    linear ``contains_point`` scan would return, in O(log n + run) instead
    of n ``contains_point`` calls.

    Only their order differs, and a decision cannot see it: the vertex
    selection uses a total key (hotness, not fabricated, x, y) over distinct
    vertices, and the path ids merged under one vertex are only summed.  The
    one order-visible detail is which of two ends that compare equal but are
    different objects (``0.0`` / ``-0.0``, ``2`` / ``2.0``) becomes the
    vertex key, and that is the earlier insert either way: equal ends share
    an x run, and an insert goes after its equals.
    """

    __slots__ = ("_xs", "_records")

    def __init__(self) -> None:
        self._xs: List[float] = []
        self._records: List[MotionPathRecord] = []

    def __iter__(self) -> Iterator[MotionPathRecord]:
        """Every record, by end x."""
        return iter(self._records)

    def add(self, record: MotionPathRecord) -> None:
        x = record.path.end.x
        at = bisect_right(self._xs, x)
        self._xs.insert(at, x)
        self._records.insert(at, record)

    def within(self, fsa: Rectangle) -> List[MotionPathRecord]:
        """The records whose end ``fsa`` contains (closed bounds), by end x."""
        xs = self._xs
        first = bisect_left(xs, fsa.low.x)
        last = bisect_right(xs, fsa.high.x, first)
        low_y, high_y = fsa.low.y, fsa.high.y
        return [
            record
            for record in self._records[first:last]
            if low_y <= record.path.end.y <= high_y
        ]


@dataclass
class VertexPrefetch:
    """One object's share of the epoch pass: its Case 2/3 reads as of the
    barrier between the candidate stage and the decision stage."""

    #: End vertices inside the FSA -> ids of the paths ending there.
    end_vertices: Dict[Point, List[int]]
    #: Vertex -> count of the smallest overlap region containing it (one
    #: dict an epoch, shared by every object).
    bonus: Dict[Point, int]
    fabricated: Optional[Tuple[Point, int]]
    #: Paths inserted so far by this epoch's decisions; one probe an epoch,
    #: shared by every object, read in x order (:class:`InsertedEnds` says
    #: why that order cannot change a decision).
    inserted: InsertedEnds


def prefetch_vertex_candidates(
    end_table: EndpointTable,
    pending: Sequence[Tuple[int, int, Rectangle]],
    plan: OverlapPlan,
) -> Dict[int, VertexPrefetch]:
    """The epoch pass: every pending object's Case 2/3 geometry in one batch.

    ``pending`` lists ``(position, object_id, fsa)`` for the states left
    without a Case 1 candidate, ``plan`` is the epoch's completed overlap
    plan and ``end_table`` the index's x-sorted end table, read here — after
    the candidate stage, before the first decision — where nothing mutates
    the index.  Returns ``position -> VertexPrefetch``.

    Exact because the decision stage never deletes: what
    ``end_vertices_in(fsa)`` would return at decision time is the set read
    here plus the paths inserted since, which :meth:`SinglePathStrategy.decide`
    adds to the epoch's one ``inserted`` probe and merges back in.

    The overlap answers of an FSA come from its query component
    (:attr:`OverlapPlan.components`).  A region that touches the FSA, or
    contains a vertex inside it or a point of a region touching it, is made
    of FSAs that touch it or such a region, so both answers lie inside that
    component; the component's own structure holds its regions in the merged
    order, so the tie-breaks agree too.  An FSA that touches nothing is
    answered from its own box (the hottest region it touches is its
    singleton, which alone contains its end vertices and centroid); a
    component that is one pool from the pool's structure, in one batch per
    pool; everything else — an FSA whose component joins several, an FSA
    outside the epoch map (the earlier state of a duplicate reporter), a
    saturated epoch — from the merged structure, in one batch.

    The bonus of a vertex is a function of the vertex alone; it is computed
    for every end vertex matched and for every fabricated centroid of the
    epoch (the only new vertices decisions normally insert), in the batch
    that fabricates the centroids.
    """
    if not pending:
        return {}
    vertex_sets = [end_table.end_vertices_in(fsa) for _position, _object_id, fsa in pending]
    fabricated: List[Optional[Tuple[Point, int]]] = [None] * len(pending)
    bonus: Dict[Point, int] = {}
    batches: Dict[Optional[int], List[int]] = {}
    fsas, components = plan.fsas, plan.components
    for slot, (_position, object_id, fsa) in enumerate(pending):
        component = components.get(object_id) if fsas.get(object_id) is fsa else None
        if component != LONE:
            # ``None`` (the merged structure) never collides with a pool index.
            batches.setdefault(component, []).append(slot)
            continue
        centre = fsa.center  # the centre of its singleton region's box
        fabricated[slot] = (centre, 1)
        bonus[centre] = 1
        bonus.update(dict.fromkeys(vertex_sets[slot], 1))
    for component, slots in batches.items():
        structure = plan.merged() if component is None else plan.structures[component]
        answers = structure.candidate_vertices_for([pending[slot][2] for slot in slots])
        vertices = list(
            {answer[0] for answer in answers if answer is not None}.union(
                *(vertex_sets[slot] for slot in slots)
            )
        )
        bonus.update(zip(vertices, structure.containing_counts(vertices)))
        for slot, answer in zip(slots, answers):
            fabricated[slot] = answer

    inserted = InsertedEnds()
    return {
        position: VertexPrefetch(vertex_sets[slot], bonus, fabricated[slot], inserted)
        for slot, (position, _object_id, _fsa) in enumerate(pending)
    }


class SinglePathStrategy:
    """Implementation of Algorithm 2 over a grid index and a hotness tracker."""

    def __init__(
        self,
        index: GridIndex,
        hotness: HotnessTracker,
        kernel: str = "object",
        pool_cache: Optional[OverlapPoolCache] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self._index = index
        self._hotness = hotness
        self._kernel = kernel
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
            self._kernel,
            self._pool_cache,
            {state.object_id: fsa for state, fsa in zip(states, fsas)},
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

        # Phase 3: selection per object, in submission order — behind the
        # epoch pass when the kernel is columnar (module docstring).
        prefetched: Dict[int, VertexPrefetch] = {}
        if self._kernel == "columnar":
            prefetched = prefetch_vertex_candidates(
                self._index.end_table(),
                [
                    (position, state.object_id, fsa)
                    for position, (state, fsa) in enumerate(zip(states, fsas))
                    if not candidate_paths[state.object_id]
                ],
                plan,
            )
        for position, (state, fsa) in enumerate(zip(states, fsas)):
            result.tally(
                self.decide(
                    state,
                    fsa,
                    candidate_paths[state.object_id],
                    plan,
                    prefetched.get(position),
                )
            )
        return result

    # -- candidate generation ------------------------------------------------------

    def candidate_paths(self, state: ObjectState, fsa: Rectangle) -> List[CandidatePath]:
        """``GetCandidatePaths``: stored paths from the SSA start into ``fsa``,
        the state's FSA.

        Answered from the single grid cell holding the SSA start (the
        columnar kernel: from that vertex's hash bucket).
        """
        records = self._index.paths_starting_at(state.start, fsa)
        return [
            CandidatePath(record, self._hotness.hotness(record.path_id) + 1)
            for record in records
        ]

    def _candidate_vertices(
        self,
        fsa: Rectangle,
        plan: OverlapPlan,
        prefetch: Optional[VertexPrefetch] = None,
    ) -> List[CandidateVertex]:
        """``GetCandidateVertices`` plus the overlap-derived extra candidate.

        With a ``prefetch`` the index and the overlap structure are not
        queried: the end-vertex set is the prefetched one plus the paths
        inserted since the epoch pass read the index; only a vertex the pass
        did not see asks the merged structure.
        """
        if prefetch is None:
            end_vertices = self._index.end_vertices_in(fsa)
            bonus_of: Dict[Point, int] = {}
            fabricated = plan.merged().candidate_vertex_for(fsa)
        else:
            end_vertices, bonus_of, fabricated = (
                prefetch.end_vertices, prefetch.bonus, prefetch.fabricated
            )
            for record in prefetch.inserted.within(fsa):
                end_vertices.setdefault(record.path.end, []).append(record.path_id)
        candidates: List[CandidateVertex] = []
        hotness = self._hotness.hotness
        for vertex, path_ids in end_vertices.items():
            converging = sum(hotness(path_id) for path_id in path_ids)
            bonus = bonus_of.get(vertex)
            if bonus is None:
                region = plan.merged().smallest_region_containing(vertex)
                bonus = region.count if region is not None else 0
            candidates.append((vertex, converging + bonus, False))
        if fabricated is not None:
            vertex, count = fabricated
            candidates.append((vertex, count, True))
        if not candidates:
            # Degenerate fall-back: nothing intersects.  The object's own FSA
            # normally sits in the overlap structure as its singleton region,
            # but a saturated ``max_regions`` table drops late singletons (the
            # hard cap keeps earlier insertions), so use the FSA centroid with
            # zero hotness.
            candidates.append((fsa.center, 0, True))
        return candidates

    # -- selection ---------------------------------------------------------------------

    def decide(
        self,
        state: ObjectState,
        fsa: Rectangle,
        candidates: List[CandidatePath],
        plan: OverlapPlan,
        prefetch: Optional[VertexPrefetch] = None,
    ) -> SinglePathDecision:
        """Choose one object's motion path given its (boosted) candidate set.

        ``fsa`` is the state's FSA and ``plan`` the epoch's completed overlap
        plan; ``prefetch`` is the object's share of the epoch pass
        (:func:`prefetch_vertex_candidates`); without one the index and the
        merged overlap structure are queried here, per object.

        Both selection steps use total orders — ties fall back to the path id
        or the vertex coordinates — so the outcome is independent of the order
        in which candidates were enumerated (which is what lets the epoch
        pass read the index in bulk and the inserts by end x).  A vertex is
        chosen by its ``(hotness, not fabricated, x, y)`` key with a strict
        ``>``, so the first maximum wins, as in ``max``.
        """
        if candidates:
            chosen = max(
                candidates,
                key=lambda candidate: (candidate.hotness, -candidate.record.path_id),
            )
            self._hotness.record_crossing(chosen.record.path_id, state.t_end)
            response = CoordinatorResponse(
                state.object_id, chosen.record.path.end, state.t_end
            )
            return SinglePathDecision(
                object_id=state.object_id,
                response=response,
                path_id=chosen.record.path_id,
                reused_existing_path=True,
                fabricated_vertex=False,
            )

        best = None
        for vertex, hotness, fabricated in self._candidate_vertices(fsa, plan, prefetch):
            key = (hotness, not fabricated, vertex.x, vertex.y)
            if best is None or key > best:
                best, endpoint, fabricated_vertex = key, vertex, fabricated
        if endpoint == state.start:
            # A zero-length path carries no information and would produce a
            # degenerate segment; nudge the endpoint to another point of the
            # FSA (the centroid, falling back to a corner).
            for alternative in (fsa.center, fsa.high, fsa.low):
                if alternative != state.start:
                    endpoint = alternative
                    break
        record, inserted = self._insert_or_reuse(state.start, endpoint, state.t_end)
        if inserted and prefetch is not None:
            prefetch.inserted.add(record)
        self._hotness.record_crossing(record.path_id, state.t_end)
        response = CoordinatorResponse(state.object_id, endpoint, state.t_end)
        return SinglePathDecision(
            object_id=state.object_id,
            response=response,
            path_id=record.path_id,
            reused_existing_path=not inserted,
            fabricated_vertex=fabricated_vertex,
        )

    def _insert_or_reuse(
        self, start: Point, endpoint: Point, t_end: int
    ) -> Tuple[MotionPathRecord, bool]:
        """Insert ``start -> endpoint`` unless an identical path already exists.

        Objects processed later in the same epoch frequently choose the exact
        endpoint fabricated for an earlier object (that is the point of the
        overlap structure); crediting the already-inserted path instead of
        storing a duplicate keeps the index small and concentrates hotness,
        which is the stated goal of SinglePath.
        """
        record = self._index.path_between(start, endpoint)
        if record is not None:
            return record, False
        return self._index.insert(MotionPath(start, endpoint), created_at=t_end), True
