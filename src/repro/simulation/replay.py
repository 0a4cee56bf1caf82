"""Replay recorded trajectories through the full client/coordinator protocol.

The simulation engine generates its own workload; sometimes you already *have*
trajectories — GPS logs, the scenario builders in
:mod:`repro.workload.scenarios`, or traces exported from another system — and
want to run hot-motion-path discovery over them exactly as the on-line
protocol would have.  :class:`TrajectoryReplayDriver` does that: it feeds the
measurements in global timestamp order to one RayTrace filter per object,
batches the resulting state messages, runs coordinator epochs on the paper's
schedule and hands the responses back to the filters.

The driver optionally uses the feedback extension
(:mod:`repro.extensions.feedback`): pass a :class:`FeedbackCoordinator` and set
``use_feedback=True`` to let clients snap their reports onto hinted hot
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.trajectory import Measurement, Trajectory
from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator
from repro.extensions.feedback import FeedbackCoordinator, FeedbackRayTraceFilter
from repro.simulation.metrics import CommunicationStats

__all__ = ["ReplayStatistics", "TrajectoryReplayDriver"]

MeasurementStream = Union[Trajectory, Sequence[Measurement]]


@dataclass
class ReplayStatistics:
    """Counters describing one replay run."""

    objects: int = 0
    measurements: int = 0
    epochs: int = 0
    uplink: CommunicationStats = field(default_factory=CommunicationStats)
    downlink: CommunicationStats = field(default_factory=CommunicationStats)
    snapped_reports: int = 0


class TrajectoryReplayDriver:
    """Drives RayTrace filters and a coordinator over pre-recorded trajectories."""

    def __init__(
        self,
        coordinator: Coordinator,
        raytrace_config: RayTraceConfig,
        epoch_length: int = 10,
        use_feedback: bool = False,
    ) -> None:
        if epoch_length <= 0:
            raise ConfigurationError(f"epoch_length must be positive, got {epoch_length}")
        if use_feedback and not isinstance(coordinator, FeedbackCoordinator):
            raise ConfigurationError(
                "use_feedback=True requires a FeedbackCoordinator instance"
            )
        self.coordinator = coordinator
        self.raytrace_config = raytrace_config
        self.epoch_length = epoch_length
        self.use_feedback = use_feedback
        self.statistics = ReplayStatistics()
        self._filters: Dict[int, RayTraceFilter] = {}

    # -- public API --------------------------------------------------------------

    def replay(self, streams: Mapping[int, MeasurementStream]) -> ReplayStatistics:
        """Replay all measurement streams and return the run's statistics.

        ``streams`` maps object ids to trajectories (or plain measurement
        sequences); each stream's timestamps must strictly increase, but
        different streams may start and end at different times, and a stream
        may skip timestamps.  Every measurement is fed at its own timestamp,
        so an epoch commits exactly the states the on-line protocol would
        have reported by its boundary.
        """
        if not streams:
            raise ConfigurationError("cannot replay an empty set of trajectories")
        arrivals: Dict[int, List[Tuple[int, Measurement]]] = {}
        for object_id, stream in streams.items():
            for measurement in self._checked(stream):
                arrivals.setdefault(measurement.timestamp, []).append((object_id, measurement))
        self.statistics.objects = len(streams)

        start_time, end_time = min(arrivals), max(arrivals)
        for timestamp in range(start_time, end_time + 1):
            for object_id, measurement in arrivals.get(timestamp, ()):
                self._feed(object_id, measurement)
            if timestamp % self.epoch_length == 0 and timestamp > start_time:
                self._run_epoch(timestamp)

        self._flush(end_time)
        self._run_epoch(end_time + 1)
        return self.statistics

    # -- internals ---------------------------------------------------------------------

    @staticmethod
    def _checked(stream: MeasurementStream) -> List[Measurement]:
        measurements = list(stream)
        if not measurements:
            raise ConfigurationError("encountered an empty trajectory")
        for earlier, later in zip(measurements, measurements[1:]):
            if later.timestamp <= earlier.timestamp:
                raise ConfigurationError(
                    f"timestamps must strictly increase: {later.timestamp} after {earlier.timestamp}"
                )
        return measurements

    def _make_filter(self, object_id: int, initial: Measurement) -> RayTraceFilter:
        if self.use_feedback:
            return FeedbackRayTraceFilter(object_id, initial, self.raytrace_config)
        return RayTraceFilter(object_id, initial, self.raytrace_config)

    def _feed(self, object_id: int, measurement: Measurement) -> None:
        filt = self._filters.get(object_id)
        if filt is None:
            self._filters[object_id] = self._make_filter(object_id, measurement)
            self.statistics.measurements += 1
            return
        self.statistics.measurements += 1
        state = filt.observe(measurement)
        if state is not None:
            self._submit(state)

    def _submit(self, state: ObjectState) -> None:
        self.statistics.uplink.record(state.message_size_bytes())
        self.coordinator.submit_state(state)

    def _run_epoch(self, timestamp: int) -> None:
        self.statistics.epochs += 1
        if self.use_feedback:
            _outcome, feedback = self.coordinator.run_epoch_with_feedback(timestamp)
            for item in feedback:
                filt = self._filters[item.object_id]
                if not filt.waiting:
                    # Response to a final-flush state: the filter kept running
                    # on its current SSA, so there is nothing to deliver.
                    continue
                self.statistics.downlink.record(item.message_size_bytes())
                follow_up = filt.receive_feedback(item)
                if follow_up is not None:
                    self._submit(follow_up)
            return
        outcome = self.coordinator.run_epoch(timestamp)
        for response in outcome.responses:
            filt = self._filters[response.object_id]
            if not filt.waiting:
                continue
            self.statistics.downlink.record(response.message_size_bytes())
            follow_up = filt.receive_response(response)
            if follow_up is not None:
                self._submit(follow_up)

    def _flush(self, end_time: int) -> None:
        """Report every still-open SSA so trailing motion is indexed."""
        for filt in self._filters.values():
            if filt.waiting:
                continue
            if filt.fsa_timestamp > filt.ssa_start.timestamp:
                self._submit(filt.current_state())
        for filt in self._filters.values():
            if isinstance(filt, FeedbackRayTraceFilter):
                self.statistics.snapped_reports += filt.snapped_reports
