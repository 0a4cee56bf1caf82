"""Reference SinglePath: Algorithm 2 transcribed over plain lists, kept as the test oracle.

``repro.coordinator.single_path`` runs the paper's SinglePath (Section 5.3,
Algorithm 2) as an epoch pass over a grid index, a hotness tracker with an
expiry queue, an overlap plan split into components, a pool cache and an
in-epoch insert probe.  This module is the same algorithm with none of that:

* the live paths are one list of ``(id, start, end, created)`` in insertion
  order, and each path's crossings are a list of end timestamps; hotness is
  the length of that list, trimmed to the window ``W`` at each epoch boundary
  (Section 5.2);
* ``R_all`` is :class:`overlap_oracle.ReferenceFsaOverlapStructure` built
  from the whole epoch in one sequential pass, each FSA's cap budget
  counting the regions of its own component (the states whose FSAs share a
  point, directly or through others);
* every query — Case 1 candidates, Case 2 end vertices, the duplicate-path
  probe — is a scan of every live path.

Each rule below sits next to the sentence of ``docs/ARCHITECTURE.md``
("SinglePath's rules") that states it, quoted.  ``tests/test_single_path_oracle.py``
replays every scenario of ``tests/differential.py`` and hypothesis streams
through it and compares each epoch's responses and the final hot set with
the shipped configuration, by ``repr``.  A disagreement is a finding about
``src/`` or a documented paper-vs-code decision, never a reason to edit the
oracle to match.

Nothing under ``src/`` imports this module, and it imports nothing from
``repro.coordinator`` beyond what ``overlap_oracle`` does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.client.state import CoordinatorResponse, ObjectState
from repro.core.geometry import Point, Rectangle

from overlap_oracle import ReferenceFsaOverlapStructure

__all__ = ["ReferenceSinglePath"]

#: One live path: ``(path id, start, end, created)``.
Path = Tuple[int, Point, Point, int]

#: One Case 2/3 candidate: ``(vertex, hotness, fabricated)``.
Vertex = Tuple[Point, int, bool]


class ReferenceSinglePath:
    """The coordinator's state and one SinglePath call per epoch, over lists."""

    def __init__(self, window: int, max_regions: int = 10000) -> None:
        self.window = window
        self.max_regions = max_regions
        #: Live paths in insertion order (ascending id).
        self.paths: List[Path] = []
        #: ``path id -> end timestamps`` of its crossings still in the window;
        #: a path with no entry has hotness 0.
        self.crossings: Dict[int, List[int]] = {}
        self.next_id = 0

    # -- the coordinator's state (Section 5.2) -------------------------------------

    def hotness(self, path_id: int) -> int:
        return len(self.crossings.get(path_id, ()))

    def advance(self, now: int) -> None:
        # "A crossing that ended at `t_e` counts towards its path's hotness
        # until the first epoch boundary `now >= t_e + W`; a path whose last
        # crossing leaves the window there is deleted, and a path that was
        # never crossed never expires."
        vanished = set()
        for path_id, ends in list(self.crossings.items()):
            kept = [t_end for t_end in ends if t_end + self.window > now]
            if kept:
                self.crossings[path_id] = kept
            else:
                del self.crossings[path_id]
                vanished.add(path_id)
        self.paths = [path for path in self.paths if path[0] not in vanished]

    def insert(self, start: Point, end: Point, created: int) -> int:
        path_id = self.next_id
        self.next_id += 1
        self.paths.append((path_id, start, end, created))
        return path_id

    def delete(self, path_id: int) -> None:
        """Drop a live path; its crossings stay counted, as the tracker's do."""
        self.paths = [path for path in self.paths if path[0] != path_id]

    def cross(self, path_id: int, t_end: int) -> None:
        self.crossings.setdefault(path_id, []).append(t_end)

    def hot_set(self) -> List[Tuple[int, Point, Point, int, int]]:
        """``(id, start, end, created, hotness)`` of every live path with a
        crossing in the window, by id."""
        return [
            (path_id, start, end, created, self.hotness(path_id))
            for path_id, start, end, created in self.paths
            if self.hotness(path_id) > 0
        ]

    # -- Algorithm 2 ---------------------------------------------------------------

    def epoch(self, now: int, states: Sequence[ObjectState]) -> List[CoordinatorResponse]:
        """Expire at ``now``, then run SinglePath over ``states``; the
        responses in submission order."""
        self.advance(now)
        fsas = [state.fsa for state in states]

        # "`R_all` is built once per epoch from the `object_id -> FSA` map in
        # submission order; an object that reports twice keeps its first
        # position and its later FSA. Each component's `R_all` is capped at
        # `max_regions` in its own insertion order, a component being the
        # epoch's states joined, directly or through others, by FSAs that
        # share a point (an edge or a corner will do), the earlier FSA of an
        # object that reports twice included."
        r_all = ReferenceFsaOverlapStructure.build_per_component(
            [(state.object_id, fsa) for state, fsa in zip(states, fsas)], self.max_regions
        )

        # "Case 1 candidates are the live paths that start exactly at the
        # state's SSA start and end inside its FSA (closed bounds), each with
        # the path's hotness plus one.  They are gathered per state, so each
        # state of an object that reports twice is decided with its own
        # candidates."
        candidates = [
            [
                [path_id, end, self.hotness(path_id) + 1]
                for path_id, start, end, _created in self.paths
                if start == state.start and fsa.contains_point(end)
            ]
            for state, fsa in zip(states, fsas)
        ]

        # "The co-occurrence boost adds to each candidate the number of other
        # objects whose candidate sets hold the same path, so an object that
        # reports twice never boosts its own candidate."
        holders: Dict[int, Set[int]] = {}
        for state, listed in zip(states, candidates):
            for candidate in listed:
                holders.setdefault(candidate[0], set()).add(state.object_id)
        for listed in candidates:
            for candidate in listed:
                candidate[2] += len(holders[candidate[0]]) - 1

        # "Decisions run in submission order, and each records one crossing
        # at the state's end time."
        return [
            self._decide(state, fsa, listed, r_all)
            for state, fsa, listed in zip(states, fsas, candidates)
        ]

    def _decide(
        self,
        state: ObjectState,
        fsa: Rectangle,
        listed: List[List],
        r_all: ReferenceFsaOverlapStructure,
    ) -> CoordinatorResponse:
        if listed:
            # "Case 1 takes the candidate of highest boosted hotness, the
            # lowest path id on a tie."
            best = listed[0]
            for candidate in listed[1:]:
                if candidate[2] > best[2] or (
                    candidate[2] == best[2] and candidate[0] < best[0]
                ):
                    best = candidate
            self.cross(best[0], state.t_end)
            return CoordinatorResponse(state.object_id, best[1], state.t_end)

        endpoint = self._choose_vertex(fsa, r_all)
        start = state.start
        # "A chosen vertex at the SSA start itself is replaced by the first of
        # the FSA's centre, high corner and low corner that differs from the
        # start."
        if endpoint.x == start.x and endpoint.y == start.y:
            for alternative in (fsa.center, fsa.high, fsa.low):
                if alternative != start:
                    endpoint = alternative
                    break

        # "If a live path already runs from the start to the chosen vertex,
        # the earliest-inserted one is credited instead of inserting a
        # duplicate; otherwise a new path is inserted with the next id and the
        # state's end time as its creation time.  The response carries the
        # chosen vertex either way."
        reused: Optional[int] = None
        for path_id, path_start, path_end, _created in self.paths:
            if path_start == start and path_end == endpoint:
                reused = path_id
                break
        if reused is None:
            reused = self.insert(start, endpoint, state.t_end)
        self.cross(reused, state.t_end)
        return CoordinatorResponse(state.object_id, endpoint, state.t_end)

    def _choose_vertex(self, fsa: Rectangle, r_all: ReferenceFsaOverlapStructure) -> Point:
        vertices: List[Vertex] = []

        # "Case 2 candidates are the distinct end vertices inside the FSA of
        # the paths live at the decision, inserts earlier in the epoch
        # included.  Among ends that compare equal but print apart (`0.0` /
        # `-0.0`, `2` / `2.0`) the earliest insert is the vertex."
        groups: Dict[Tuple[float, float], Tuple[Point, List[int]]] = {}
        for path_id, _start, end, _created in self.paths:
            if fsa.contains_point(end):
                groups.setdefault((end.x, end.y), (end, []))[1].append(path_id)

        # "A vertex's hotness is the summed hotness of the paths ending there
        # plus the count of the smallest `R_all` region containing it (the
        # most members on an area tie, the earlier region on a full tie; 0
        # inside no region)."
        for vertex, path_ids in groups.values():
            region = r_all.smallest_region_containing(vertex)
            bonus = region.count if region is not None else 0
            vertices.append((vertex, sum(map(self.hotness, path_ids)) + bonus, False))

        # "Case 3 adds the centre of the hottest `R_all` region intersecting
        # the FSA (closed bounds; the smaller area on a count tie, the earlier
        # region on a full tie), with that region's count as its hotness."
        fabricated = r_all.candidate_vertex_for(fsa)
        if fabricated is not None:
            vertices.append((fabricated[0], fabricated[1], True))

        # "With no end vertex inside and no region intersecting — a capped
        # component dropped the FSA's own region, or it is the earlier FSA of
        # an object that reports twice and shares no point with an FSA of
        # the map — the candidate is the FSA's centre with hotness 0."
        if not vertices:
            return fsa.center

        # "A Case 2/3 decision takes the first maximum of `(hotness, not
        # fabricated, x, y)`."
        best = vertices[0]
        for vertex in vertices[1:]:
            if (vertex[1], not vertex[2], vertex[0].x, vertex[0].y) > (
                best[1], not best[2], best[0].x, best[0].y
            ):
                best = vertex
        return best[0]
