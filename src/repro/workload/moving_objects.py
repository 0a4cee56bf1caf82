"""Network-constrained moving-object workload (paper Section 6.1).

Each object starts at a randomly chosen node of the road network.  At every
timestamp a random subset of objects — a fraction ``agility`` of the
population — is allowed to move; a moving object advances a fixed displacement
``s`` along its current link and, whenever it reaches a node, picks the next
link with probability proportional to the link weights (so traffic
concentrates on motorways and highways).  Moving objects take a location
measurement with additive white noise; stationary objects produce no
measurement, so inter-arrival times fluctuate per object exactly as in the
paper's generator.

The workload knows nothing about how the measurements will be consumed; it
simply yields ``(object_id, measurement)`` pairs per timestamp, where the
measurement is a plain :class:`~repro.core.trajectory.TimePoint` or an
:class:`~repro.core.trajectory.UncertainTimePoint` when ``report_uncertainty``
is enabled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.core.trajectory import TimePoint, UncertainTimePoint
from repro.network.road_network import RoadLink, RoadNetwork
from repro.workload.noise import UniformNoiseModel

__all__ = ["WorkloadConfig", "ObjectMotionState", "MovingObjectWorkload"]

Measurement = Union[TimePoint, UncertainTimePoint]


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the moving-object workload (defaults follow Table 2).

    ``num_objects`` — population size N.
    ``agility`` — fraction of objects allowed to move at each timestamp (alpha).
    ``displacement`` — distance in metres an object advances per move (s).
    ``positional_error`` — white-noise amplitude in metres (err).
    ``duration`` — number of timestamps to simulate.
    ``report_uncertainty`` — when true, measurements carry the sensor sigma so
    the (epsilon, delta) filter variant can be exercised.
    """

    num_objects: int = 20000
    agility: float = 0.1
    displacement: float = 10.0
    positional_error: float = 1.0
    duration: int = 250
    report_uncertainty: bool = False
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_objects <= 0:
            raise ConfigurationError(f"num_objects must be positive, got {self.num_objects}")
        if not 0.0 < self.agility <= 1.0:
            raise ConfigurationError(f"agility must be in (0, 1], got {self.agility}")
        if self.displacement <= 0:
            raise ConfigurationError(f"displacement must be positive, got {self.displacement}")
        if self.positional_error < 0:
            raise ConfigurationError(
                f"positional_error must be non-negative, got {self.positional_error}"
            )
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration}")


@dataclass
class ObjectMotionState:
    """Where an object currently is on the network."""

    object_id: int
    current_node: int
    link: Optional[RoadLink]
    distance_along: float
    position: Point


class MovingObjectWorkload:
    """Generator of per-timestamp measurement batches for a population of objects."""

    def __init__(
        self,
        network: RoadNetwork,
        config: Optional[WorkloadConfig] = None,
    ) -> None:
        self.network = network
        self.config = config if config is not None else WorkloadConfig()
        self.noise = UniformNoiseModel(self.config.positional_error)
        self._rng = random.Random(self.config.seed)
        self._states: Dict[int, ObjectMotionState] = {}
        self._initialise_objects()

    # -- initialisation ------------------------------------------------------------

    def _initialise_objects(self) -> None:
        node_ids = self.network.node_ids()
        if not node_ids:
            raise ConfigurationError("cannot generate a workload over an empty network")
        for object_id in range(self.config.num_objects):
            node_id = self._rng.choice(node_ids)
            position = self.network.node(node_id).location
            self._states[object_id] = ObjectMotionState(
                object_id=object_id,
                current_node=node_id,
                link=None,
                distance_along=0.0,
                position=position,
            )

    # -- public API -------------------------------------------------------------------

    def initial_measurements(self, timestamp: int = 0) -> List[Tuple[int, Measurement]]:
        """Initial measurement of every object (used to seed the RayTrace filters)."""
        measurements: List[Tuple[int, Measurement]] = []
        for object_id, state in self._states.items():
            measurements.append((object_id, self._measure(state.position, timestamp)))
        return measurements

    def step(self, timestamp: int) -> List[Tuple[int, Measurement]]:
        """Advance the simulation by one timestamp.

        Returns the measurements produced at this timestamp (one per object
        that moved).
        """
        measurements: List[Tuple[int, Measurement]] = []
        for object_id, state in self._states.items():
            if self._rng.random() > self.config.agility:
                continue
            self._advance(state)
            measurements.append((object_id, self._measure(state.position, timestamp)))
        return measurements

    def object_state(self, object_id: int) -> ObjectMotionState:
        """Current motion state of an object."""
        try:
            return self._states[object_id]
        except KeyError:
            raise ConfigurationError(f"unknown object {object_id}") from None

    # -- movement ------------------------------------------------------------------------

    def _advance(self, state: ObjectMotionState) -> None:
        """Move the object by one displacement along the network."""
        remaining = self.config.displacement
        # An object may cross a node mid-step; the loop walks the remaining
        # displacement across consecutive links (the paper bounds a step to "at
        # most the opposite end node", which the single-iteration break gives).
        if state.link is None:
            self._choose_link(state)
        if state.link is None:
            return
        link_length = self.network.link_length(state.link.link_id)
        new_distance = state.distance_along + remaining
        if new_distance >= link_length:
            # Arrive at the opposite node; stop there for this step.
            state.current_node = state.link.other_end(state.current_node)
            state.position = self.network.node(state.current_node).location
            state.link = None
            state.distance_along = 0.0
            return
        state.distance_along = new_distance
        state.position = self.network.position_along(
            state.link.link_id, state.current_node, state.distance_along
        )

    def _choose_link(self, state: ObjectMotionState) -> None:
        """Pick the next outgoing link with probability proportional to weight."""
        weighted = self.network.link_choice_weights(state.current_node)
        if not weighted:
            state.link = None
            return
        pick = self._rng.random()
        cumulative = 0.0
        for link, probability in weighted:
            cumulative += probability
            if pick <= cumulative:
                state.link = link
                break
        else:
            state.link = weighted[-1][0]
        state.distance_along = 0.0

    # -- measurement --------------------------------------------------------------------------

    def _measure(self, true_position: Point, timestamp: int) -> Measurement:
        measured = self.noise.perturb(true_position, self._rng)
        if not self.config.report_uncertainty:
            return TimePoint(measured, timestamp)
        sigma_x, sigma_y = self.noise.reported_sigma()
        return UncertainTimePoint(measured, timestamp, sigma_x, sigma_y)
