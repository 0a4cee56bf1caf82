"""Coordinator-to-client feedback (the paper's Section 7 future-work sketch).

In the base protocol each object only knows its own state; the coordinator
alone sees which vertices are hot.  The extension closes that loop:

* :class:`FeedbackCoordinator` piggybacks a small list of *hot vertex hints*
  — endpoints of currently hot motion paths near the object — onto every
  response it sends.
* :class:`FeedbackRayTraceFilter` remembers those hints and, at the moment its
  SSA breaks, checks whether any hinted vertex lies inside the Final Safe
  Area.  If so it *snaps* the reported FSA to that single vertex, so the
  coordinator is guaranteed to reuse (or create) a path terminating exactly at
  an already-hot vertex instead of fabricating a fresh endpoint nearby.

Snapping never violates the RayTrace guarantee: the snapped vertex is a point
of the FSA, and every point of the FSA is a valid motion-path endpoint for the
interval covered by the SSA.  The benefit is fewer distinct vertices and
therefore fewer, hotter paths; the cost is a slightly larger response message
(quantified by ``message_size_bytes``) — exactly the trade-off the paper
anticipates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import Measurement
from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.state import CoordinatorResponse, ObjectState
from repro.client.uncertainty import NormalToleranceModel
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig, EpochOutcome

__all__ = ["HotVertexHint", "FeedbackResponse", "FeedbackCoordinator", "FeedbackRayTraceFilter"]

_FIELD_BYTES = 4


@dataclass(frozen=True)
class HotVertexHint:
    """A hot motion-path endpoint advertised to a client."""

    vertex: Point
    hotness: int


@dataclass(frozen=True)
class FeedbackResponse:
    """A coordinator response augmented with hot-vertex hints."""

    response: CoordinatorResponse
    hints: Tuple[HotVertexHint, ...] = ()

    @property
    def object_id(self) -> int:
        return self.response.object_id

    def message_size_bytes(self) -> int:
        """Base response size plus two coordinates and a count per hint."""
        return self.response.message_size_bytes() + len(self.hints) * 3 * _FIELD_BYTES


class FeedbackCoordinator(Coordinator):
    """Coordinator that attaches hot-vertex hints to every response.

    ``hint_radius`` bounds how far from the object's assigned endpoint a
    hinted vertex may lie; ``max_hints`` bounds the per-response payload.
    """

    def __init__(
        self,
        config: CoordinatorConfig,
        hint_radius: float = 200.0,
        max_hints: int = 4,
    ) -> None:
        super().__init__(config)
        self.hint_radius = hint_radius
        self.max_hints = max_hints

    def run_epoch_with_feedback(self, now: int) -> Tuple[EpochOutcome, List[FeedbackResponse]]:
        """Run a normal epoch, then derive the hinted responses."""
        outcome = self.run_epoch(now)
        feedback = [
            FeedbackResponse(response, tuple(self._hints_near(response.endpoint)))
            for response in outcome.responses
        ]
        return outcome, feedback

    def _hints_near(self, endpoint: Point) -> List[HotVertexHint]:
        """The hottest path endpoints within ``hint_radius`` of ``endpoint``.

        Ranked by ``(-heat, x, smallest path id at the vertex)``, a total
        order, so the hints do not depend on the order the index storage
        enumerates its vertices in.
        """
        region = Rectangle.from_center(endpoint, self.hint_radius)
        ranked: List[Tuple[int, float, int, Point]] = []
        for vertex, path_ids in self.index.end_vertices_in(region).values():
            heat = sum(self.hotness.hotness(path_id) for path_id in path_ids)
            if heat > 0:
                ranked.append((-heat, vertex.x, min(path_ids), vertex))
        ranked.sort(key=lambda hint: hint[:3])
        return [HotVertexHint(vertex, -heat) for heat, _x, _id, vertex in ranked[: self.max_hints]]


class FeedbackRayTraceFilter(RayTraceFilter):
    """RayTrace filter that snaps its reported FSA onto hinted hot vertices."""

    def __init__(
        self,
        object_id: int,
        initial: Measurement,
        config: RayTraceConfig,
        tolerance_model: Optional[NormalToleranceModel] = None,
    ) -> None:
        super().__init__(object_id, initial, config, tolerance_model)
        self._hints: Tuple[HotVertexHint, ...] = ()
        self.snapped_reports = 0

    # -- feedback intake ---------------------------------------------------------

    def receive_feedback(self, feedback: FeedbackResponse) -> Optional[ObjectState]:
        """Handle a hinted response: store the hints, then resume as usual."""
        self._hints = feedback.hints
        emitted = self.receive_response(feedback.response)
        return self._snap(emitted)

    def observe(self, measurement: Measurement) -> Optional[ObjectState]:
        return self._snap(super().observe(measurement))

    # -- snapping -------------------------------------------------------------------

    def _snap(self, state: Optional[ObjectState]) -> Optional[ObjectState]:
        """Collapse the reported FSA onto the hottest hinted vertex it contains."""
        if state is None or not self._hints:
            return state
        fsa = state.fsa
        best: Optional[HotVertexHint] = None
        for hint in self._hints:
            if not fsa.contains_point(hint.vertex):
                continue
            if best is None or hint.hotness > best.hotness:
                best = hint
        if best is None:
            return state
        self.snapped_reports += 1
        snapped = ObjectState(
            object_id=state.object_id,
            start=state.start,
            t_start=state.t_start,
            fsa_low=best.vertex,
            fsa_high=best.vertex,
            t_end=state.t_end,
        )
        # Keep the filter's own FSA consistent with what was reported so the
        # next coordinator-assigned start chains correctly.
        self._collapse_fsa(best.vertex)
        return snapped
