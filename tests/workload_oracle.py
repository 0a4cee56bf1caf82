"""Reference moving-object workload: the object formulation, kept as the test oracle.

``repro.workload.moving_objects.MovingObjectWorkload`` runs the paper's
Section 6.1 generator on tables built once per network and plain per-object
scalars.  This module keeps the formulation it replaced, verbatim: each object
is an :class:`ObjectMotionState` holding its position as a :class:`Point`,
every move asks the network for the node's ``link_choice_weights``, the link's
length and the interpolated position, and every measurement goes through the
noise model's ``perturb``.  ``tests/test_workload.py`` drives both generators
over the same networks and configurations and requires every yielded pair,
every final ``object_state`` (by ``repr``) and the random generator's state
after every step to be equal, so the semantics of the table-driven generator
are defined by the code below, not by prose.

``position_along`` and ``perturb`` were methods of ``RoadNetwork`` and
``UniformNoiseModel``; the generator was their only caller, so they live here
now, unchanged, and the class calls them as functions.  The only other edit
to the moved code is in ``_advance``: its comment described a loop walking the remaining displacement across
consecutive links, which never existed (an object stops at the node it
reaches, whatever is left of its displacement), and is gone.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, interpolate_point
from repro.core.trajectory import Measurement, TimePoint, UncertainTimePoint
from repro.network.road_network import RoadNetwork
from repro.workload.moving_objects import ObjectMotionState, WorkloadConfig
from repro.workload.noise import UniformNoiseModel

__all__ = ["ReferenceWorkload", "position_along", "perturb"]


def position_along(network: RoadNetwork, link_id: int, from_node: int, distance: float) -> Point:
    """Point at ``distance`` from ``from_node`` along the link, clamped to the link."""
    link = network.link(link_id)
    start = network.node(from_node).location
    end = network.node(link.other_end(from_node)).location
    length = start.euclidean_distance_to(end)
    if length == 0.0:
        return start
    fraction = min(max(distance / length, 0.0), 1.0)
    return interpolate_point(start, end, fraction)


def perturb(noise: UniformNoiseModel, point: Point, rng: random.Random) -> Point:
    if noise.err == 0.0:
        return point
    return Point(
        point.x + rng.uniform(-noise.err, noise.err),
        point.y + rng.uniform(-noise.err, noise.err),
    )


class ReferenceWorkload:
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
        state.position = position_along(
            self.network, state.link.link_id, state.current_node, state.distance_along
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
        measured = perturb(self.noise, true_position, self._rng)
        if not self.config.report_uncertainty:
            return TimePoint(measured, timestamp)
        sigma_x, sigma_y = self.noise.reported_sigma()
        return UncertainTimePoint(measured, timestamp, sigma_x, sigma_y)
