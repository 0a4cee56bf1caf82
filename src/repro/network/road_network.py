"""Road network model (paper Section 6.1).

The evaluation workload drives objects along a simplified road network: nodes
are major crossroads connected by straight links, and every link carries a
weight reflecting its significance in vehicle circulation.  Links are
classified into four categories — motorways, highways, primary roads and
secondary roads — and an object leaving a node picks an outgoing link with
probability proportional to the link's weight.

The model here is a small undirected weighted graph with exactly the
operations the workload generator reads into its tables: weighted choice of an
outgoing link, link length, and the bounding box of the whole network.  It is
deliberately independent of any external graph library.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle

__all__ = ["RoadClass", "RoadNode", "RoadLink", "RoadNetwork"]


class RoadClass(enum.Enum):
    """Link categories with their default circulation weights.

    The weights encode the intuition of the paper's generator: objects tend to
    follow main roads for large parts of their movement and enter minor roads
    less frequently.
    """

    MOTORWAY = "motorway"
    HIGHWAY = "highway"
    PRIMARY = "primary"
    SECONDARY = "secondary"

    @property
    def default_weight(self) -> float:
        return _DEFAULT_CLASS_WEIGHTS[self]


_DEFAULT_CLASS_WEIGHTS: Dict[RoadClass, float] = {
    RoadClass.MOTORWAY: 8.0,
    RoadClass.HIGHWAY: 4.0,
    RoadClass.PRIMARY: 2.0,
    RoadClass.SECONDARY: 1.0,
}


@dataclass(frozen=True)
class RoadNode:
    """A crossroad of the network."""

    node_id: int
    location: Point


@dataclass(frozen=True)
class RoadLink:
    """An undirected straight link between two crossroads."""

    link_id: int
    source: int
    target: int
    road_class: RoadClass
    weight: float

    def other_end(self, node_id: int) -> int:
        """The node on the opposite side of ``node_id``."""
        if node_id == self.source:
            return self.target
        if node_id == self.target:
            return self.source
        raise ConfigurationError(f"node {node_id} is not an endpoint of link {self.link_id}")


class RoadNetwork:
    """Undirected weighted road network of nodes and straight links."""

    def __init__(self) -> None:
        self._nodes: Dict[int, RoadNode] = {}
        self._links: Dict[int, RoadLink] = {}
        self._adjacency: Dict[int, List[int]] = {}

    # -- construction -------------------------------------------------------------

    def add_node(self, node_id: int, location: Point) -> RoadNode:
        """Add a crossroad; node ids must be unique."""
        if node_id in self._nodes:
            raise ConfigurationError(f"node {node_id} already exists")
        node = RoadNode(node_id, location)
        self._nodes[node_id] = node
        self._adjacency[node_id] = []
        return node

    def add_link(
        self,
        source: int,
        target: int,
        road_class: RoadClass = RoadClass.SECONDARY,
    ) -> RoadLink:
        """Add an undirected link between two existing nodes, weighted by its class."""
        if source not in self._nodes or target not in self._nodes:
            raise ConfigurationError(f"both endpoints must exist before adding link {source}-{target}")
        if source == target:
            raise ConfigurationError(f"self-loop links are not allowed (node {source})")
        link_id = len(self._links)
        link = RoadLink(link_id, source, target, road_class, road_class.default_weight)
        self._links[link_id] = link
        self._adjacency[source].append(link_id)
        self._adjacency[target].append(link_id)
        return link

    # -- accessors ---------------------------------------------------------------------

    def links(self) -> Iterator[RoadLink]:
        return iter(self._links.values())

    def node(self, node_id: int) -> RoadNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigurationError(f"unknown node {node_id}") from None

    def link(self, link_id: int) -> RoadLink:
        try:
            return self._links[link_id]
        except KeyError:
            raise ConfigurationError(f"unknown link {link_id}") from None

    def node_ids(self) -> List[int]:
        return list(self._nodes.keys())

    def outgoing_links(self, node_id: int) -> List[RoadLink]:
        """All links incident to ``node_id``."""
        return [self._links[link_id] for link_id in self._adjacency.get(node_id, [])]

    # -- geometry -----------------------------------------------------------------------

    def link_length(self, link_id: int) -> float:
        """Euclidean length of a link."""
        link = self.link(link_id)
        return self.node(link.source).location.euclidean_distance_to(
            self.node(link.target).location
        )

    def bounding_box(self, padding: float = 0.0) -> Rectangle:
        """Minimum bounding rectangle of all node locations."""
        if not self._nodes:
            raise ConfigurationError("empty network has no bounding box")
        xs = [node.location.x for node in self._nodes.values()]
        ys = [node.location.y for node in self._nodes.values()]
        return Rectangle(
            Point(min(xs) - padding, min(ys) - padding),
            Point(max(xs) + padding, max(ys) + padding),
        )

    # -- link selection -----------------------------------------------------------------

    def link_choice_weights(self, node_id: int) -> List[Tuple[RoadLink, float]]:
        """Outgoing links of a node with their normalised choice probabilities.

        The probability of following a link is its weight divided by the total
        weight of all links connected to the node, exactly the ratio rule of
        the paper's generator.
        """
        links = self.outgoing_links(node_id)
        total = sum(link.weight for link in links)
        if total == 0.0 or not links:
            return []
        return [(link, link.weight / total) for link in links]
