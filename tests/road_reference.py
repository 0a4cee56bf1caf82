"""Reference helpers the network and workload tests check the generators with.

They read a :class:`~repro.network.road_network.RoadNetwork` only through
its public accessors, so they stay independent of the code under test.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.geometry import Point
from repro.network.road_network import RoadClass, RoadNetwork


def distance_to_segment(point: Point, start: Point, end: Point) -> float:
    """Euclidean distance from ``point`` to the segment ``start -> end``."""
    dx, dy = end.x - start.x, end.y - start.y
    length_squared = dx * dx + dy * dy
    t = 0.0
    if length_squared > 0.0:
        t = ((point.x - start.x) * dx + (point.y - start.y) * dy) / length_squared
        t = min(max(t, 0.0), 1.0)
    return math.hypot(point.x - (start.x + t * dx), point.y - (start.y + t * dy))


def distance_to_network(point: Point, network: RoadNetwork) -> float:
    """Distance from ``point`` to the nearest link of ``network``."""
    return min(
        distance_to_segment(point, network.node(link.source).location, network.node(link.target).location)
        for link in network.links()
    )


def is_connected(network: RoadNetwork) -> bool:
    """True when every node is reachable from every other node."""
    node_ids = network.node_ids()
    if not node_ids:
        return True
    seen = {node_ids[0]}
    frontier = [node_ids[0]]
    while frontier:
        current = frontier.pop()
        for link in network.outgoing_links(current):
            neighbour = link.other_end(current)
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return len(seen) == len(node_ids)


def class_histogram(network: RoadNetwork) -> Dict[RoadClass, int]:
    """Number of links per road class."""
    histogram = {road_class: 0 for road_class in RoadClass}
    for link in network.links():
        histogram[link.road_class] += 1
    return histogram
