"""Reference RayTrace filter: the object-geometry formulation, kept as the test oracle.

``repro.client.raytrace.RayTraceFilter`` runs Algorithm 1 on plain floats.
This module keeps the formulation it replaced, verbatim: every measurement
builds the tolerance square as a :class:`Rectangle`, projects the SSA into
another one (``_project_ssa``) and takes ``Rectangle.intersection`` of the two,
each corner a validated :class:`Point`.  The differential in
``tests/test_raytrace.py`` drives both filters with the same calls and requires
bit-identical states, counters, return values and exception types, so the
semantics of the scalar filter are defined by the code below, not by prose.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.core.errors import CoordinatorError
from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import Measurement, TimePoint, UncertainTimePoint
from repro.client.raytrace import RayTraceConfig, RayTraceStatistics
from repro.client.state import CoordinatorResponse, ObjectState
from repro.client.uncertainty import NormalToleranceModel
from repro.extensions.feedback import FeedbackResponse, HotVertexHint

__all__ = ["ReferenceRayTraceFilter", "ReferenceFeedbackRayTraceFilter"]


class ReferenceRayTraceFilter:
    """Client-side filter maintaining the Spatial Safe Area for one object.

    The filter is driven by two entry points: :meth:`observe` for every new
    location measurement, and :meth:`receive_response` when the coordinator's
    reply arrives at an epoch boundary.  Both return the state message emitted
    as a consequence (if any), which the simulation engine forwards to the
    coordinator.
    """

    def __init__(
        self,
        object_id: int,
        initial: Measurement,
        config: RayTraceConfig,
        tolerance_model: Optional[NormalToleranceModel] = None,
    ) -> None:
        self.object_id = object_id
        self.config = config
        if config.delta > 0.0 and tolerance_model is None:
            tolerance_model = NormalToleranceModel(config.epsilon, config.delta)
        self._tolerance_model = tolerance_model
        self.statistics = RayTraceStatistics()

        initial_tp = self._as_timepoint(initial)
        # SSA state: start timepoint and FSA rectangle at time t_end.
        self._t_start: int = initial_tp.timestamp
        self._t_end: int = initial_tp.timestamp
        self._start: Point = initial_tp.point
        self._fsa: Rectangle = Rectangle.degenerate(initial_tp.point)

        self._waiting: bool = False
        self._buffer: Deque[Measurement] = deque()

    # -- public state ------------------------------------------------------------

    @property
    def waiting(self) -> bool:
        """True while the filter awaits the coordinator's response."""
        return self._waiting

    @property
    def ssa_start(self) -> TimePoint:
        """Initial timepoint of the current SSA."""
        return TimePoint(self._start, self._t_start)

    @property
    def fsa(self) -> Rectangle:
        """Current Final Safe Area rectangle (at time :attr:`fsa_timestamp`)."""
        return self._fsa

    @property
    def fsa_timestamp(self) -> int:
        return self._t_end

    @property
    def buffered_measurements(self) -> int:
        """Number of measurements waiting to be processed after the next response."""
        return len(self._buffer)

    def current_state(self) -> ObjectState:
        """The state message describing the current SSA."""
        return ObjectState(
            object_id=self.object_id,
            start=self._start,
            t_start=self._t_start,
            fsa_low=self._fsa.low,
            fsa_high=self._fsa.high,
            t_end=self._t_end,
        )

    # -- protocol entry points ------------------------------------------------------

    def observe(self, measurement: Measurement) -> Optional[ObjectState]:
        """Process a new location measurement.

        Returns the state message to transmit when the measurement breaks the
        SSA, or ``None`` when the measurement was absorbed (or merely buffered
        because the filter is waiting for the coordinator).
        """
        self.statistics.measurements_processed += 1
        self._buffer.append(measurement)
        self.statistics.buffered_high_watermark = max(
            self.statistics.buffered_high_watermark, len(self._buffer)
        )
        if self._waiting:
            return None
        return self._drain_buffer()

    def receive_response(self, response: CoordinatorResponse) -> Optional[ObjectState]:
        """Handle the coordinator's response at an epoch boundary.

        The response's endpoint becomes the initial timepoint of the next SSA;
        buffered measurements are then replayed, which may immediately emit a
        new state message (returned) and re-enter waiting mode.
        """
        if not self._waiting:
            raise CoordinatorError(
                f"object {self.object_id} received a response while not waiting"
            )
        if response.object_id != self.object_id:
            raise CoordinatorError(
                f"response for object {response.object_id} delivered to object {self.object_id}"
            )
        self.statistics.responses_received += 1
        self._t_start = response.timestamp
        self._t_end = response.timestamp
        self._start = response.endpoint
        self._fsa = Rectangle.degenerate(response.endpoint)
        self._waiting = False
        return self._drain_buffer()

    # -- core SSA update -----------------------------------------------------------------

    def _drain_buffer(self) -> Optional[ObjectState]:
        """Process buffered measurements until one breaks the SSA or the buffer empties."""
        while not self._waiting and self._buffer:
            measurement = self._buffer.popleft()
            emitted = self._process(measurement)
            if emitted is not None:
                return emitted
        return None

    def _process(self, measurement: Measurement) -> Optional[ObjectState]:
        timepoint = self._as_timepoint(measurement)
        if timepoint.timestamp < self._t_end:
            raise CoordinatorError(
                f"object {self.object_id}: measurement at t={timepoint.timestamp} "
                f"arrived after SSA already extends to t={self._t_end}"
            )
        tolerance_square = self._tolerance_square(measurement)

        if self._t_end == self._t_start:
            # First measurement after the SSA start: the FSA is simply the
            # tolerance square of this measurement (Lines 20-23 of Algorithm 1).
            if timepoint.timestamp == self._t_start:
                # A duplicate of the start timestamp carries no new extent.
                return None
            self._t_end = timepoint.timestamp
            self._fsa = tolerance_square
            return None

        projection = self._project_ssa(timepoint.timestamp)
        intersection = projection.intersection(tolerance_square)
        if intersection is not None:
            self._t_end = timepoint.timestamp
            self._fsa = intersection
            return None

        # SSA cannot grow: report state, re-buffer the violating measurement so
        # it is replayed against the next SSA, and wait for the coordinator.
        # (Algorithm 1 pushes it back onto the buffer; we push it to the front
        # to preserve temporal order relative to measurements that arrive while
        # waiting.)
        self._waiting = True
        self._buffer.appendleft(measurement)
        self.statistics.states_sent += 1
        return self.current_state()

    def _project_ssa(self, timestamp: int) -> Rectangle:
        """Project the SSA onto the plane ``t = timestamp`` (Lines 26-27 of Algorithm 1).

        The SSA is the pyramid spanned by the start point at ``t_start`` and
        the FSA at ``t_end``; for ``timestamp >= t_end`` the projection keeps
        expanding linearly along the same rays.
        """
        span = self._t_end - self._t_start
        if span == 0:
            return Rectangle.degenerate(self._start)
        fraction = (timestamp - self._t_start) / span
        low = Point(
            self._start.x + fraction * (self._fsa.low.x - self._start.x),
            self._start.y + fraction * (self._fsa.low.y - self._start.y),
        )
        high = Point(
            self._start.x + fraction * (self._fsa.high.x - self._start.x),
            self._start.y + fraction * (self._fsa.high.y - self._start.y),
        )
        # The rays may cross for fractions > 1 when the FSA lies entirely on
        # one side of the start point; normalise the corner order.
        return Rectangle(
            Point(min(low.x, high.x), min(low.y, high.y)),
            Point(max(low.x, high.x), max(low.y, high.y)),
        )

    def _tolerance_square(self, measurement: Measurement) -> Rectangle:
        if isinstance(measurement, UncertainTimePoint) and self._tolerance_model is not None:
            return self._tolerance_model.tolerance_square(measurement)
        point = measurement.point
        return Rectangle.from_center(point, self.config.epsilon)

    @staticmethod
    def _as_timepoint(measurement: Measurement) -> TimePoint:
        if isinstance(measurement, UncertainTimePoint):
            return TimePoint(measurement.point, measurement.timestamp)
        return measurement


class ReferenceFeedbackRayTraceFilter(ReferenceRayTraceFilter):
    """The feedback subclass over the reference filter (``_snap`` as it wrote ``_fsa``)."""

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

    def receive_feedback(self, feedback: FeedbackResponse) -> Optional[ObjectState]:
        self._hints = feedback.hints
        emitted = self.receive_response(feedback.response)
        return self._snap(emitted)

    def observe(self, measurement: Measurement) -> Optional[ObjectState]:
        return self._snap(super().observe(measurement))

    def _snap(self, state: Optional[ObjectState]) -> Optional[ObjectState]:
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
        self._fsa = Rectangle.degenerate(best.vertex)
        return snapped
