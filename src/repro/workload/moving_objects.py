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

The generator reads the network once, into tables ("Workload generator" in
``docs/ARCHITECTURE.md``), and keeps each object as three scalars, so a step
is table lookups and float arithmetic.  Its stream — every measurement and
every draw of the random generator — is the object formulation's in
``tests/workload_oracle.py``, bit for bit.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.core.trajectory import Measurement, TimePoint, UncertainTimePoint
from repro.network.road_network import RoadLink, RoadNetwork
from repro.workload.noise import UniformNoiseModel

__all__ = ["WorkloadConfig", "ObjectMotionState", "MovingObjectWorkload"]


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
    """Where an object currently is on the network (a snapshot built on request)."""

    object_id: int
    current_node: int
    link: Optional[RoadLink]
    distance_along: float
    position: Point


class MovingObjectWorkload:
    """Generator of per-timestamp measurement batches for a population of objects.

    Nodes are numbered densely in ``network.node_ids()`` order, and each
    ``(link, from-node)`` pair a node's link choice can produce is a *leg*.
    Per node the tables hold its location and, unless it has no link to
    choose, its cumulative choice probabilities (summed in
    ``link_choice_weights`` order) with the leg of each, plus the last leg
    again for a pick above the final sum.  Per leg they hold the node it
    arrives at, its arrival length (``link_length``), and the start, the
    delta to the far end and the length an interpolation along it uses.  An
    object is its node, its leg (``-1`` while it is parked at the node) and
    its distance along the leg; its position is derived from those.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: Optional[WorkloadConfig] = None,
    ) -> None:
        self.network = network
        self.config = config if config is not None else WorkloadConfig()
        self.noise = UniformNoiseModel(self.config.positional_error)
        self._rng = random.Random(self.config.seed)
        node_ids = network.node_ids()
        if not node_ids:
            raise ConfigurationError("cannot generate a workload over an empty network")
        dense = {node_id: index for index, node_id in enumerate(node_ids)}
        self._build_tables(node_ids, dense)
        choice = self._rng.choice
        self._node: List[int] = [dense[choice(node_ids)] for _ in range(self.config.num_objects)]
        self._leg: List[int] = [-1] * self.config.num_objects
        self._distance: List[float] = [0.0] * self.config.num_objects

    # -- tables ------------------------------------------------------------------------

    def _build_tables(self, node_ids: List[int], dense: Dict[int, int]) -> None:
        network = self.network
        locations = [network.node(node_id).location for node_id in node_ids]
        self._node_ids = node_ids
        self._node_x = [location.x for location in locations]
        self._node_y = [location.y for location in locations]
        #: Per node: cumulative choice probabilities (``None`` with no link to
        #: choose) and the leg each picks, the fallback leg last.
        self._cumulative: List[Optional[List[float]]] = []
        self._choices: List[List[int]] = []
        self._leg_link: List[RoadLink] = []
        self._leg_to: List[int] = []
        self._leg_arrival: List[float] = []
        #: ``(start x, start y, delta x, delta y, length)`` of each leg.
        self._leg_geometry: List[Tuple[float, float, float, float, float]] = []
        legs: Dict[Tuple[int, int], int] = {}
        for node_id in node_ids:
            weighted = network.link_choice_weights(node_id)
            if not weighted:
                self._cumulative.append(None)
                self._choices.append([])
                continue
            cumulative: List[float] = []
            choices: List[int] = []
            total = 0.0
            for link, probability in weighted:
                total += probability
                cumulative.append(total)
                key = (link.link_id, node_id)
                if key not in legs:
                    legs[key] = len(self._leg_link)
                    self._add_leg(link, node_id, dense)
                choices.append(legs[key])
            choices.append(choices[-1])
            self._cumulative.append(cumulative)
            self._choices.append(choices)

    def _add_leg(self, link: RoadLink, from_node: int, dense: Dict[int, int]) -> None:
        network = self.network
        to_node = link.other_end(from_node)
        start = network.node(from_node).location
        end = network.node(to_node).location
        self._leg_link.append(link)
        self._leg_to.append(dense[to_node])
        self._leg_arrival.append(network.link_length(link.link_id))
        self._leg_geometry.append(
            (start.x, start.y, end.x - start.x, end.y - start.y, start.euclidean_distance_to(end))
        )

    def _position(self, object_id: int) -> Tuple[float, float]:
        """The object's true position, as ``step`` computes it."""
        leg = self._leg[object_id]
        if leg < 0:
            node = self._node[object_id]
            return self._node_x[node], self._node_y[node]
        start_x, start_y, delta_x, delta_y, length = self._leg_geometry[leg]
        fraction = self._distance[object_id] / length
        return start_x + fraction * delta_x, start_y + fraction * delta_y

    # -- public API -------------------------------------------------------------------

    def initial_measurements(self, timestamp: int = 0) -> List[Tuple[int, Measurement]]:
        """Initial measurement of every object (used to seed the RayTrace filters).

        Per object, in id order, the x and then the y noise, as ``step`` draws them.
        """
        random_ = self._rng.random
        err = self.config.positional_error
        sigma_x, sigma_y = self.noise.reported_sigma()
        measurements: List[Tuple[int, Measurement]] = []
        for object_id in range(self.config.num_objects):
            x, y = self._position(object_id)
            if err:
                x += -err + (err - -err) * random_()
                y += -err + (err - -err) * random_()
            if self.config.report_uncertainty:
                measured: Measurement = UncertainTimePoint(Point(x, y), timestamp, sigma_x, sigma_y)
            else:
                measured = TimePoint(Point(x, y), timestamp)
            measurements.append((object_id, measured))
        return measurements

    def step(self, timestamp: int) -> List[Tuple[int, Measurement]]:
        """Advance the simulation by one timestamp.

        Returns the measurements produced at this timestamp (one per object
        that moved).  Per object, in id order: one draw for agility; for a
        mover parked at a node with a link to choose, one draw for the link;
        then, when ``positional_error`` is not 0, the x and then the y noise.
        A mover advances ``displacement`` along its leg and stops at the far
        node if it reaches it; a mover at a node without links stays there.
        """
        random_ = self._rng.random
        agility = self.config.agility
        displacement = self.config.displacement
        err = self.config.positional_error
        low, width = -err, err - -err  # ``uniform(-err, err)`` is ``low + width * random()``
        uncertain = self.config.report_uncertainty
        sigma_x, sigma_y = self.noise.reported_sigma()
        node_x, node_y = self._node_x, self._node_y
        cumulative, choices = self._cumulative, self._choices
        leg_to, leg_arrival, leg_geometry = self._leg_to, self._leg_arrival, self._leg_geometry
        nodes, legs, distances = self._node, self._leg, self._distance
        measurements: List[Tuple[int, Measurement]] = []
        append = measurements.append
        for object_id in range(len(nodes)):
            if random_() > agility:
                continue
            leg = legs[object_id]
            if leg < 0:
                node = nodes[object_id]
                table = cumulative[node]
                if table is None:
                    x, y = node_x[node], node_y[node]
                else:
                    leg = choices[node][bisect_left(table, random_())]
                    legs[object_id] = leg
            if leg >= 0:
                distance = distances[object_id] + displacement
                if distance >= leg_arrival[leg]:
                    node = leg_to[leg]
                    nodes[object_id] = node
                    legs[object_id] = -1
                    distances[object_id] = 0.0
                    x, y = node_x[node], node_y[node]
                else:
                    # 0 < distance < length, so the fraction needs no clamp
                    # and a zero-length leg never gets here.
                    distances[object_id] = distance
                    start_x, start_y, delta_x, delta_y, length = leg_geometry[leg]
                    fraction = distance / length
                    x = start_x + fraction * delta_x
                    y = start_y + fraction * delta_y
            if err:
                point = Point(x + (low + width * random_()), y + (low + width * random_()))
            else:
                point = Point(x, y)
            if uncertain:
                append((object_id, UncertainTimePoint(point, timestamp, sigma_x, sigma_y)))
            else:
                append((object_id, TimePoint(point, timestamp)))
        return measurements

    def object_state(self, object_id: int) -> ObjectMotionState:
        """Current motion state of an object."""
        if object_id not in range(self.config.num_objects):
            raise ConfigurationError(f"unknown object {object_id}")
        leg = self._leg[object_id]
        return ObjectMotionState(
            object_id=object_id,
            current_node=self._node_ids[self._node[object_id]],
            link=self._leg_link[leg] if leg >= 0 else None,
            distance_along=self._distance[object_id],
            position=Point(*self._position(object_id)),
        )
