"""End-to-end discrete-time simulation of the hot-motion-path framework.

The engine reproduces the experimental setting of Section 6: a synthetic road
network, N objects moving over it with agility alpha and displacement s, each
object running a RayTrace filter with tolerance epsilon (or (epsilon, delta)),
a central coordinator executing SinglePath once per epoch of Lambda timestamps
and, when asked, the DP hot-segment baseline consuming the very same
measurement stream (only the Figure 7/8 sweeps print it).  The naive
always-report client is a counter: each measurement it would send adds
``_MEASUREMENT_BYTES`` to ``metrics.naive_uplink``.

Typical use::

    config = SimulationConfig(num_objects=2000, tolerance=10.0, duration=250)
    result = HotPathSimulation(config).run()
    print(result.metrics.mean_index_size, result.metrics.mean_top_k_score)
    for scored in result.top_k_paths(10):
        print(scored.path.start, scored.path.end, scored.hotness)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.motion_path import MotionPathRecord
from repro.core.scoring import ScoredPath
from repro.core.trajectory import TimePoint, UncertainTimePoint
from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.stitching import CompositeCorridor
from repro.baselines.dp_hot import DPHotSegmentTracker
from repro.network.generator import NetworkConfig, SyntheticRoadNetworkGenerator
from repro.network.road_network import RoadNetwork
from repro.simulation.metrics import EpochMetrics, MetricsCollector
from repro.workload.moving_objects import MovingObjectWorkload, WorkloadConfig

__all__ = ["SimulationConfig", "SimulationResult", "HotPathSimulation"]

Measurement = Union[TimePoint, UncertainTimePoint]

# Bytes of one raw measurement the naive client would send: two coordinates, a
# timestamp and the object id, 4 bytes each (the convention of ObjectState).
_MEASUREMENT_BYTES = 4 * 4


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of a full simulation run (defaults mirror Table 2).

    ``tolerance`` is epsilon in metres; ``delta`` enables the uncertainty-aware
    filter when positive.  ``window`` is W, ``epoch_length`` is Lambda and
    ``duration`` the total number of timestamps.  ``top_k`` is the k of the
    quality metric.  ``run_dp_baseline`` runs the DP hot-segment tracker on
    the same measurement stream (off by default: only the Figure 7/8 sweeps
    print it); ``run_naive_baseline`` counts the messages of a client that
    sends every measurement.  Neither perturbs the main method.  ``fleet`` is
    the coordinator's topology (:class:`~repro.coordinator.fleet.FleetConfig` — shards, backend,
    epoch mode, kernel; knob table in ``docs/ARCHITECTURE.md``): every
    value is behaviour-identical, so results are comparable across fleets.
    """

    num_objects: int = 20000
    tolerance: float = 10.0
    delta: float = 0.0
    window: int = 100
    epoch_length: int = 10
    duration: int = 250
    agility: float = 0.1
    displacement: float = 10.0
    positional_error: float = 1.0
    top_k: int = 10
    cells_per_axis: int = 64
    fleet: FleetConfig = FleetConfig()
    seed: int = 42
    run_dp_baseline: bool = False
    run_naive_baseline: bool = True
    network_config: Optional[NetworkConfig] = None

    def __post_init__(self) -> None:
        if self.epoch_length <= 0:
            raise ConfigurationError(f"epoch_length must be positive, got {self.epoch_length}")
        if self.duration <= self.epoch_length:
            raise ConfigurationError(
                "duration must exceed the epoch length "
                f"(duration={self.duration}, epoch_length={self.epoch_length})"
            )
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        if self.top_k <= 0:
            raise ConfigurationError(f"top_k must be positive, got {self.top_k}")
        RayTraceConfig(self.tolerance, self.delta)  # validates tolerance and delta
        self.workload_config()  # validates the population and motion fields

    def workload_config(self) -> WorkloadConfig:
        """Derive the workload configuration for this simulation."""
        return WorkloadConfig(
            num_objects=self.num_objects,
            agility=self.agility,
            displacement=self.displacement,
            positional_error=self.positional_error,
            duration=self.duration,
            report_uncertainty=self.delta > 0.0,
            seed=self.seed,
        )


@dataclass
class SimulationResult:
    """Outcome of a simulation run."""

    config: SimulationConfig
    metrics: MetricsCollector
    coordinator: Coordinator
    dp_baseline: Optional[DPHotSegmentTracker]
    network: RoadNetwork

    def top_k_paths(self, k: Optional[int] = None) -> List[ScoredPath]:
        """Top-k hottest motion paths at the end of the run."""
        return self.coordinator.top_k(k if k is not None else self.config.top_k)

    def top_k_score(self, k: Optional[int] = None) -> float:
        """Score of the final top-k set."""
        return self.coordinator.top_k_score(k if k is not None else self.config.top_k)

    def hot_paths(self) -> List[Tuple[MotionPathRecord, int]]:
        """All motion paths with non-zero hotness at the end of the run."""
        return self.coordinator.hot_paths()

    def hot_corridors(self) -> List[CompositeCorridor]:
        """The final hot paths stitched into composite corridors."""
        return self.coordinator.hot_corridors()

    def summary(self) -> Dict[str, float]:
        """Flat metric summary (see :meth:`MetricsCollector.as_dict`)."""
        return self.metrics.as_dict()


class HotPathSimulation:
    """Drives the workload, the RayTrace filters, the coordinator and the baselines."""

    def __init__(
        self,
        config: SimulationConfig,
        network: Optional[RoadNetwork] = None,
    ) -> None:
        self.config = config
        self.network = (
            network
            if network is not None
            else SyntheticRoadNetworkGenerator(config.network_config).generate()
        )
        self.workload = MovingObjectWorkload(self.network, config.workload_config())
        bounds = self.network.bounding_box(padding=config.tolerance * 2)
        self.coordinator = Coordinator(
            CoordinatorConfig(
                bounds=bounds,
                window=config.window,
                cells_per_axis=config.cells_per_axis,
                **asdict(config.fleet),
            )
        )
        self.dp_baseline: Optional[DPHotSegmentTracker] = None
        if config.run_dp_baseline:
            self.dp_baseline = DPHotSegmentTracker(
                bounds, config.tolerance, config.window, config.cells_per_axis
            )
        self._filters: Dict[int, RayTraceFilter] = {}
        self.metrics = MetricsCollector()

    # -- main loop -----------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the full simulation and return the collected results.

        Worker pools held by a parallel coordinator backend are released when
        the run finishes; the returned result stays fully queryable.
        """
        config = self.config
        raytrace_config = RayTraceConfig(config.tolerance, config.delta)

        try:
            # Timestamp 0: seed the filters with the initial measurement of each object.
            for object_id, measurement in self.workload.initial_measurements(0):
                self._filters[object_id] = RayTraceFilter(object_id, measurement, raytrace_config)
                if config.run_naive_baseline:
                    self.metrics.naive_uplink.record(_MEASUREMENT_BYTES)
                self._feed_dp(object_id, measurement)

            for timestamp in range(1, config.duration):
                for object_id, measurement in self.workload.step(timestamp):
                    state = self._filters[object_id].observe(measurement)
                    if state is not None:
                        self._submit(state)
                    if config.run_naive_baseline:
                        self.metrics.naive_uplink.record(_MEASUREMENT_BYTES)
                    self._feed_dp(object_id, measurement)

                if timestamp % config.epoch_length == 0:
                    self._run_epoch(timestamp)

            # Final epoch at the end of the run so trailing states are processed.
            if (config.duration - 1) % config.epoch_length != 0:
                self._run_epoch(config.duration - 1)
        finally:
            self.coordinator.close()

        return SimulationResult(
            config=self.config,
            metrics=self.metrics,
            coordinator=self.coordinator,
            dp_baseline=self.dp_baseline,
            network=self.network,
        )

    # -- helpers -------------------------------------------------------------------------

    def _submit(self, state: ObjectState) -> None:
        self.metrics.uplink.record(state.message_size_bytes())
        self.coordinator.submit_state(state)

    def _feed_dp(self, object_id: int, measurement: Measurement) -> None:
        if self.dp_baseline is not None:
            self.dp_baseline.observe(object_id, measurement)

    def _run_epoch(self, timestamp: int) -> None:
        outcome = self.coordinator.run_epoch(timestamp)
        for response in outcome.responses:
            self.metrics.downlink.record(response.message_size_bytes())
            follow_up = self._filters[response.object_id].receive_response(response)
            if follow_up is not None:
                self._submit(follow_up)
        dp_index_size = None
        dp_score = None
        if self.dp_baseline is not None:
            self.dp_baseline.advance_time(timestamp)
            dp_index_size = self.dp_baseline.index_size()
            dp_score = self.dp_baseline.top_k_score(self.config.top_k)
        self.metrics.record_epoch(
            EpochMetrics(
                timestamp=timestamp,
                index_size=self.coordinator.index_size(),
                top_k_score=self.coordinator.top_k_score(self.config.top_k),
                processing_seconds=outcome.processing_seconds,
                states_processed=outcome.states_processed,
                paths_inserted=outcome.paths_inserted,
                paths_reused=outcome.paths_reused,
                paths_expired=outcome.paths_expired,
                dp_index_size=dp_index_size,
                dp_top_k_score=dp_score,
                naive_messages=self.metrics.naive_uplink.messages,
            )
        )
