"""Unit tests for the road network model and the synthetic generator."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.network.generator import NetworkConfig, SyntheticRoadNetworkGenerator
from repro.network.road_network import RoadClass, RoadNetwork

from road_reference import class_histogram, is_connected


class TestRoadNetworkConstruction:
    def test_add_node_and_lookup(self):
        network = RoadNetwork()
        network.add_node(1, Point(5.0, 5.0))
        assert len(network.node_ids()) == 1
        assert network.node(1).location == Point(5.0, 5.0)

    def test_duplicate_node_rejected(self):
        network = RoadNetwork()
        network.add_node(1, Point(0.0, 0.0))
        with pytest.raises(ConfigurationError):
            network.add_node(1, Point(1.0, 1.0))

    def test_link_requires_existing_nodes(self):
        network = RoadNetwork()
        network.add_node(1, Point(0.0, 0.0))
        with pytest.raises(ConfigurationError):
            network.add_link(1, 2)

    def test_self_loop_rejected(self):
        network = RoadNetwork()
        network.add_node(1, Point(0.0, 0.0))
        with pytest.raises(ConfigurationError):
            network.add_link(1, 1)

    def test_unknown_node_lookup(self):
        with pytest.raises(ConfigurationError):
            RoadNetwork().node(7)

    def test_unknown_link_lookup(self):
        with pytest.raises(ConfigurationError):
            RoadNetwork().link(7)

    def test_link_default_weight_follows_class(self, tiny_manual_network):
        motorway = tiny_manual_network.link(0)
        secondary = tiny_manual_network.link(2)
        assert motorway.road_class is RoadClass.MOTORWAY
        assert motorway.weight > secondary.weight

    def test_other_end(self, tiny_manual_network):
        link = tiny_manual_network.link(0)
        assert link.other_end(0) == 1
        assert link.other_end(1) == 0
        with pytest.raises(ConfigurationError):
            link.other_end(3)


class TestRoadNetworkGeometry:
    def test_link_length(self, tiny_manual_network):
        assert tiny_manual_network.link_length(0) == pytest.approx(100.0)

    def test_bounding_box(self, tiny_manual_network):
        box = tiny_manual_network.bounding_box()
        assert box.low == Point(0.0, 0.0)
        assert box.high == Point(100.0, 100.0)

    def test_bounding_box_empty_network(self):
        with pytest.raises(ConfigurationError):
            RoadNetwork().bounding_box()


class TestLinkSelection:
    def test_choice_weights_sum_to_one(self, tiny_manual_network):
        weighted = tiny_manual_network.link_choice_weights(0)
        assert sum(probability for _, probability in weighted) == pytest.approx(1.0)

    def test_motorway_has_higher_probability(self, tiny_manual_network):
        weighted = dict(
            (link.road_class, probability)
            for link, probability in tiny_manual_network.link_choice_weights(0)
        )
        assert weighted[RoadClass.MOTORWAY] > weighted[RoadClass.SECONDARY]

    def test_isolated_node_has_no_choices(self):
        network = RoadNetwork()
        network.add_node(0, Point(0.0, 0.0))
        assert network.link_choice_weights(0) == []


class TestSyntheticGenerator:
    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(grid_nodes_per_axis=1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(area_size=-1.0)

    def test_node_and_link_counts(self):
        config = NetworkConfig(grid_nodes_per_axis=10, seed=1)
        network = SyntheticRoadNetworkGenerator(config).generate()
        assert len(network.node_ids()) == 100
        # Grid links: 2 * n * (n - 1) = 180, plus optional diagonals.
        assert len(list(network.links())) >= 180

    def test_generated_network_is_connected(self, small_network):
        assert is_connected(small_network)

    def test_all_road_classes_present(self, small_network):
        histogram = class_histogram(small_network)
        assert histogram[RoadClass.MOTORWAY] > 0
        assert histogram[RoadClass.HIGHWAY] > 0
        assert histogram[RoadClass.PRIMARY] > 0
        assert histogram[RoadClass.SECONDARY] > 0

    def test_nodes_stay_inside_area(self, small_network):
        box = small_network.bounding_box()
        assert box.low.x >= 0.0 and box.low.y >= 0.0
        assert box.high.x <= 2000.0 and box.high.y <= 2000.0

    def test_determinism(self):
        config = NetworkConfig(grid_nodes_per_axis=8, seed=11)
        first = SyntheticRoadNetworkGenerator(config).generate()
        second = SyntheticRoadNetworkGenerator(config).generate()
        assert len(first.node_ids()) == len(second.node_ids())
        assert len(list(first.links())) == len(list(second.links()))
        assert [node.location for node in map(first.node, first.node_ids())] == [
            node.location for node in map(second.node, second.node_ids())
        ]

    def test_different_seeds_differ(self):
        first = SyntheticRoadNetworkGenerator(NetworkConfig(grid_nodes_per_axis=8, seed=1)).generate()
        second = SyntheticRoadNetworkGenerator(NetworkConfig(grid_nodes_per_axis=8, seed=2)).generate()
        assert [node.location for node in map(first.node, first.node_ids())] != [
            node.location for node in map(second.node, second.node_ids())
        ]

    def test_paper_scale_counts(self):
        """At the paper's scale (33x33 grid) node/link counts are close to Athens'."""
        config = NetworkConfig(grid_nodes_per_axis=33, seed=7)
        network = SyntheticRoadNetworkGenerator(config).generate()
        assert len(network.node_ids()) == 1089  # paper: 1125 nodes
        links = list(network.links())
        # Grid links join ids one column (1) or one row (33) apart; the
        # diagonal short-cuts join ids 32 or 34 apart.
        grid_links = sum(abs(link.source - link.target) in (1, 33) for link in links)
        assert grid_links == 2 * 33 * 32  # 2112; paper: 1831 links
        # Plus at most one diagonal short-cut per grid cell: 152 for seed 7.
        assert len(links) == grid_links + 152
