"""Synthetic road-network generator (substitute for the Athens network).

The paper's evaluation uses a simplified graph of the main road network of
greater Athens: 1831 links connecting 1125 nodes over roughly 250 km², with
links classified into motorways, highways, primary and secondary roads.  That
dataset is not publicly distributed, so this module generates a synthetic
network with the same structural properties:

* nodes form a jittered grid over a square area (so the graph is planar and
  roughly uniform in density, like an urban street network);
* every node connects to its grid neighbours (secondary roads) and a small
  number of long "arterial" rows/columns and diagonals are upgraded to
  primary roads, highways and motorways with correspondingly larger weights;
* the generated network is connected and its node/link counts can be tuned to
  match the Athens figures.

The generator is deterministic given its seed, which keeps experiments
reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.network.road_network import RoadClass, RoadNetwork

__all__ = ["NetworkConfig", "SyntheticRoadNetworkGenerator"]

#: Node positions move off the regular grid by up to this fraction of the
#: spacing, so links are not axis-parallel.
_JITTER_FRACTION = 0.25
#: Grid rows (and columns) upgraded to each major class on the paper-scale
#: 33x33 grid; smaller grids scale the counts down.
_ARTERIAL_LINES = ((RoadClass.MOTORWAY, 2), (RoadClass.HIGHWAY, 4), (RoadClass.PRIMARY, 6))
#: The chance that a grid cell gets a diagonal short-cut.
_DIAGONAL_FRACTION = 0.15


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the synthetic network.

    ``area_size`` is the side of the square area in metres (the Athens network
    covers about 250 km², i.e. a ~15.8 km square; the default keeps that
    order of magnitude).  ``grid_nodes_per_axis`` controls the node count
    (``n^2`` nodes in total).
    """

    area_size: float = 16000.0
    grid_nodes_per_axis: int = 33
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.area_size < math.inf:
            raise ConfigurationError(f"area_size must be positive and finite, got {self.area_size}")
        if self.grid_nodes_per_axis < 2:
            raise ConfigurationError(
                f"grid_nodes_per_axis must be at least 2, got {self.grid_nodes_per_axis}"
            )


class SyntheticRoadNetworkGenerator:
    """Deterministic generator of Athens-like synthetic road networks."""

    def __init__(self, config: Optional[NetworkConfig] = None) -> None:
        self.config = config if config is not None else NetworkConfig()

    def generate(self) -> RoadNetwork:
        """Build and return the synthetic network."""
        config = self.config
        rng = random.Random(config.seed)
        network = RoadNetwork()
        n = config.grid_nodes_per_axis
        spacing = config.area_size / (n - 1)
        jitter = spacing * _JITTER_FRACTION

        # Nodes: jittered grid.
        for row in range(n):
            for col in range(n):
                node_id = row * n + col
                x = col * spacing + rng.uniform(-jitter, jitter)
                y = row * spacing + rng.uniform(-jitter, jitter)
                x = min(max(x, 0.0), config.area_size)
                y = min(max(y, 0.0), config.area_size)
                network.add_node(node_id, Point(x, y))

        # Decide which rows/columns host arterials of each class.
        arterial_classes = self._arterial_assignment(rng, n)

        # Grid links: horizontal and vertical neighbours.
        for row in range(n):
            for col in range(n):
                node_id = row * n + col
                if col + 1 < n:
                    road_class = self._link_class(arterial_classes, row=row, column=None)
                    network.add_link(node_id, node_id + 1, road_class)
                if row + 1 < n:
                    road_class = self._link_class(arterial_classes, row=None, column=col)
                    network.add_link(node_id, node_id + n, road_class)

        # A sprinkling of diagonal short-cuts (secondary roads) to break the
        # pure grid structure, mirroring the irregular minor streets of a city.
        for row in range(n - 1):
            for col in range(n - 1):
                if rng.random() < _DIAGONAL_FRACTION:
                    node_id = row * n + col
                    if rng.random() < 0.5:
                        network.add_link(node_id, node_id + n + 1, RoadClass.SECONDARY)
                    else:
                        network.add_link(node_id + 1, node_id + n, RoadClass.SECONDARY)

        return network

    # -- internals ---------------------------------------------------------------------

    def _arterial_assignment(self, rng: random.Random, n: int) -> Dict[str, Dict[int, RoadClass]]:
        """Pick which grid rows and columns carry each arterial class.

        The line counts are sized for the paper-scale 33x33 grid; smaller
        grids scale them down proportionally (but keep at least one line per
        class) so every road class is represented at any size.
        """
        class_counts = [
            (road_class, max(1, round(count * n / 33.0))) for road_class, count in _ARTERIAL_LINES
        ]
        assignment: Dict[str, Dict[int, RoadClass]] = {"rows": {}, "cols": {}}
        for axis in ("rows", "cols"):
            lines = list(range(n))
            rng.shuffle(lines)
            cursor = 0
            for road_class, count in class_counts:
                for index in lines[cursor : cursor + count]:
                    assignment[axis][index] = road_class
                cursor += count
                if cursor >= n:
                    break
        return assignment

    @staticmethod
    def _link_class(
        assignment: Dict[str, Dict[int, RoadClass]],
        row: Optional[int],
        column: Optional[int],
    ) -> RoadClass:
        """Class of a horizontal (``row`` given) or vertical (``column`` given) link."""
        if row is not None:
            return assignment["rows"].get(row, RoadClass.SECONDARY)
        if column is not None:
            return assignment["cols"].get(column, RoadClass.SECONDARY)
        return RoadClass.SECONDARY
