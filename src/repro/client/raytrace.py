"""The RayTrace filter executed on every moving object (paper Section 4, Algorithm 1).

RayTrace is a one-pass greedy algorithm with O(1) state.  It maintains a
*Spatial Safe Area* (SSA): a spatiotemporal pyramid anchored at an initial
timepoint ``<s, t_s>`` whose cross-section at the current final timestamp
``t_e`` is the *Final Safe Area* (FSA) rectangle.  The invariant is that a
motion path ``s -> e`` exists for every point ``e`` inside the FSA, crossed by
the object during ``[t_s, t_e]``.

For each incoming measurement the filter projects the SSA onto the
measurement's timestamp, intersects the projection with the measurement's
tolerance square and, if the intersection is non-empty, adopts it as the new
FSA.  When the intersection is empty the SSA cannot grow: the object sends its
compact state to the coordinator and enters *waiting mode*, buffering further
measurements until the coordinator's response (which arrives at the next
epoch) supplies the initial timepoint of the next SSA.  That hand-off is what
chains consecutive motion paths into a covering set.

Uncertainty-aware filtering (Section 4.1) only changes how the tolerance
square is computed: an :class:`~repro.client.uncertainty.NormalToleranceModel`
derives per-axis admissible intervals from the measurement's reported sigmas.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf, isfinite
from typing import Deque, Optional

from repro.core.errors import ConfigurationError, CoordinatorError, InvalidGeometryError
from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import Measurement, TimePoint, UncertainTimePoint
from repro.client.state import CoordinatorResponse, ObjectState
from repro.client.uncertainty import NormalToleranceModel

__all__ = ["RayTraceConfig", "RayTraceStatistics", "RayTraceFilter"]


@dataclass(frozen=True)
class RayTraceConfig:
    """Configuration of a RayTrace filter.

    ``epsilon`` is the spatial tolerance.  When ``delta`` is positive the
    filter treats measurements as uncertain and uses the Gaussian tolerance
    model; otherwise tolerance squares have fixed side ``2 * epsilon``.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < inf:
            raise ConfigurationError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise ConfigurationError(f"delta must be in [0, 1), got {self.delta}")


@dataclass
class RayTraceStatistics:
    """Counters describing the filtering behaviour of one object."""

    measurements_processed: int = 0
    states_sent: int = 0
    responses_received: int = 0
    buffered_high_watermark: int = 0


class RayTraceFilter:
    """Client-side filter maintaining the Spatial Safe Area for one object.

    The filter is driven by two entry points: :meth:`observe` for every new
    location measurement, and :meth:`receive_response` when the coordinator's
    reply arrives at an epoch boundary.  Both return the state message emitted
    as a consequence (if any), which the simulation engine forwards to the
    coordinator.

    The SSA is held as exactly what Algorithm 1 needs: the start point, the
    two timestamps and the four FSA bounds as plain floats.  A measurement is
    absorbed or buffered with scalar arithmetic only; a ``Point`` or
    ``Rectangle`` is built where one leaves the filter (:meth:`current_state`
    on a report, the :attr:`fsa` / :attr:`ssa_start` properties on demand).

    The buffer of a waiting filter holds scalars only, never a measurement:
    one flat deque of ``x, y, timestamp, sigma_x, sigma_y`` per measurement
    (the sigmas ``None`` unless it is uncertain and the filter has a
    tolerance model).  A buffered measurement object is released when
    :meth:`observe` returns, so the collector never finds one waiting for the
    next epoch.
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

        # SSA state: start timepoint and the FSA bounds at time t_end.
        self._t_start: int = initial.timestamp
        self._t_end: int = initial.timestamp
        self._start: Point = initial.point
        self._collapse_fsa(initial.point)

        self._waiting: bool = False
        #: Five entries per measurement: the arguments of its ``_process`` call.
        self._buffer: Deque[Optional[float]] = deque()

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
        """Current Final Safe Area rectangle (at time :attr:`fsa_timestamp`), built on demand."""
        return Rectangle(Point(self._fsa_lx, self._fsa_ly), Point(self._fsa_hx, self._fsa_hy))

    @property
    def fsa_timestamp(self) -> int:
        return self._t_end

    @property
    def buffered_measurements(self) -> int:
        """Number of measurements waiting to be processed after the next response."""
        return len(self._buffer) // 5

    def current_state(self) -> ObjectState:
        """The state message describing the current SSA (builds the two FSA corners)."""
        return ObjectState(
            object_id=self.object_id,
            start=self._start,
            t_start=self._t_start,
            fsa_low=Point(self._fsa_lx, self._fsa_ly),
            fsa_high=Point(self._fsa_hx, self._fsa_hy),
            t_end=self._t_end,
        )

    # -- protocol entry points ------------------------------------------------------

    def observe(self, measurement: Measurement) -> Optional[ObjectState]:
        """Process a new location measurement.

        Returns the state message to transmit when the measurement breaks the
        SSA, or ``None`` when the measurement was absorbed (or merely buffered
        because the filter is waiting for the coordinator).
        """
        statistics = self.statistics
        statistics.measurements_processed += 1
        point = measurement.point
        x, y, timestamp = point.x, point.y, measurement.timestamp
        sigma_x = sigma_y = None
        if self._tolerance_model is not None and isinstance(measurement, UncertainTimePoint):
            sigma_x, sigma_y = measurement.sigma_x, measurement.sigma_y
        buffer = self._buffer
        if self._waiting or buffer:
            buffer.extend((x, y, timestamp, sigma_x, sigma_y))
            buffered = len(buffer) // 5
            if buffered > statistics.buffered_high_watermark:
                statistics.buffered_high_watermark = buffered
            return None if self._waiting else self._drain_buffer()
        # Nothing is queued ahead of it: the measurement would be the buffer's
        # only entry for the length of this call, so it skips the deque.
        if statistics.buffered_high_watermark < 1:
            statistics.buffered_high_watermark = 1
        return self._process(x, y, timestamp, sigma_x, sigma_y)

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
        self._collapse_fsa(response.endpoint)
        self._waiting = False
        return self._drain_buffer()

    # -- core SSA update -----------------------------------------------------------------

    def _collapse_fsa(self, point: Point) -> None:
        """Make the FSA the single ``point`` (a new SSA start, or a snapped report)."""
        self._fsa_lx = self._fsa_hx = point.x
        self._fsa_ly = self._fsa_hy = point.y

    def _drain_buffer(self) -> Optional[ObjectState]:
        """Process buffered measurements until one breaks the SSA or the buffer empties."""
        buffer = self._buffer
        pop = buffer.popleft
        while not self._waiting and buffer:
            emitted = self._process(pop(), pop(), pop(), pop(), pop())
            if emitted is not None:
                return emitted
        return None

    def _process(
        self,
        x: float,
        y: float,
        timestamp: int,
        sigma_x: Optional[float],
        sigma_y: Optional[float],
    ) -> Optional[ObjectState]:
        """One step of Algorithm 1 on floats.

        The arithmetic is, operation for operation, that of projecting the SSA
        as a ``Rectangle`` and intersecting it with the tolerance square
        (``tests/raytrace_oracle.py`` keeps that formulation and a hypothesis
        differential holds the two bit-identical): ``hi if hi > lo else lo``
        is ``max(lo, hi)`` with its tie-breaking, so ``-0.0`` and ``0.0`` land
        where they did, and a non-finite bound raises at the measurement that
        produced it.  The measurement arrives as its scalars; ``sigma_x`` is
        ``None`` unless it is uncertain and the filter has a tolerance model.
        """
        if timestamp < self._t_end:
            raise CoordinatorError(
                f"object {self.object_id}: measurement at t={timestamp} "
                f"arrived after SSA already extends to t={self._t_end}"
            )
        # Tolerance square of the measurement (Section 4.1 shrinks it under uncertainty).
        if sigma_x is not None:
            tol_lx, tol_ly, tol_hx, tol_hy = self._tolerance_model.tolerance_bounds(
                x, y, sigma_x, sigma_y
            )
        else:
            epsilon = self.config.epsilon
            tol_lx, tol_ly = x - epsilon, y - epsilon
            tol_hx, tol_hy = x + epsilon, y + epsilon
            if not (
                isfinite(tol_lx) and isfinite(tol_ly) and isfinite(tol_hx) and isfinite(tol_hy)
            ):
                raise InvalidGeometryError(
                    f"tolerance square of {Point(x, y)} with epsilon={epsilon} is not finite"
                )

        t_start = self._t_start
        if self._t_end == t_start:
            # First measurement after the SSA start: the FSA is simply the
            # tolerance square of this measurement (Lines 20-23 of Algorithm 1).
            # A duplicate of the start timestamp carries no new extent.
            if timestamp != t_start:
                self._t_end = timestamp
                self._fsa_lx, self._fsa_ly = tol_lx, tol_ly
                self._fsa_hx, self._fsa_hy = tol_hx, tol_hy
            return None

        # Project the SSA onto the plane t = timestamp (Lines 26-27): the
        # pyramid spanned by the start point at t_start and the FSA at t_end
        # keeps expanding linearly along the same rays.
        start_x, start_y = self._start.x, self._start.y
        fraction = (timestamp - t_start) / (self._t_end - t_start)
        low_x = start_x + fraction * (self._fsa_lx - start_x)
        low_y = start_y + fraction * (self._fsa_ly - start_y)
        high_x = start_x + fraction * (self._fsa_hx - start_x)
        high_y = start_y + fraction * (self._fsa_hy - start_y)
        if not (isfinite(low_x) and isfinite(low_y) and isfinite(high_x) and isfinite(high_y)):
            raise InvalidGeometryError(
                f"object {self.object_id}: SSA projection onto t={timestamp} is not finite"
            )
        # Corner order as the reference normalises it (min / max of the two
        # projected corners, the low one kept on a tie); with fraction >= 1 the
        # corners stay ordered, so this only ever settles ties.
        proj_lx = high_x if high_x < low_x else low_x
        proj_ly = high_y if high_y < low_y else low_y
        proj_hx = high_x if high_x > low_x else low_x
        proj_hy = high_y if high_y > low_y else low_y

        # Closed intersection with the tolerance square (touching counts).
        if not (proj_hx < tol_lx or tol_hx < proj_lx or proj_hy < tol_ly or tol_hy < proj_ly):
            self._t_end = timestamp
            self._fsa_lx = tol_lx if tol_lx > proj_lx else proj_lx
            self._fsa_ly = tol_ly if tol_ly > proj_ly else proj_ly
            self._fsa_hx = tol_hx if tol_hx < proj_hx else proj_hx
            self._fsa_hy = tol_hy if tol_hy < proj_hy else proj_hy
            return None

        # SSA cannot grow: report state, re-buffer the violating measurement so
        # it is replayed against the next SSA, and wait for the coordinator.
        # (Algorithm 1 pushes it back onto the buffer; we push it to the front
        # to preserve temporal order relative to measurements that arrive while
        # waiting.)
        self._waiting = True
        # extendleft reverses its argument: the buffer starts x, y, timestamp.
        self._buffer.extendleft((sigma_y, sigma_x, timestamp, y, x))
        self.statistics.states_sent += 1
        return self.current_state()
