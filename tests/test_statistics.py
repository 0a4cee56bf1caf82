"""Unit tests for :mod:`repro.analysis.statistics`."""

from __future__ import annotations

import pytest

from repro.core.geometry import Point
from repro.core.motion_path import MotionPath
from repro.analysis.statistics import (
    DistributionSummary,
    hot_path_statistics,
    summarise_distribution,
)

from road_reference import distance_to_network


def record(path_id: int, start: Point, end: Point) -> MotionPath:
    return MotionPath(start, end, path_id)


class TestSummariseDistribution:
    def test_empty(self):
        summary = summarise_distribution([])
        assert summary == DistributionSummary.empty()
        assert summary.count == 0

    def test_single_value(self):
        summary = summarise_distribution([5.0])
        assert summary.minimum == summary.maximum == summary.mean == summary.median == 5.0
        assert summary.p90 == 5.0
        assert summary.total == 5.0

    def test_known_values(self):
        summary = summarise_distribution([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.total == 10.0

    def test_percentile_interpolation(self):
        summary = summarise_distribution(list(range(11)))  # 0..10
        assert summary.median == 5.0
        assert summary.p90 == pytest.approx(9.0)

    def test_order_independent(self):
        assert summarise_distribution([3.0, 1.0, 2.0]) == summarise_distribution([1.0, 2.0, 3.0])


class TestHotPathStatistics:
    def _paths(self):
        return [
            (record(0, Point(0.0, 0.0), Point(100.0, 0.0)), 10),
            (record(1, Point(0.0, 0.0), Point(50.0, 0.0)), 2),
            (record(2, Point(0.0, 0.0), Point(10.0, 0.0)), 1),
            (record(3, Point(0.0, 0.0), Point(20.0, 0.0)), 1),
        ]

    def test_empty_input(self):
        statistics = hot_path_statistics([])
        assert statistics.hotness.count == 0
        assert statistics.top_decile_heat_share == 0.0

    def test_distributions(self):
        statistics = hot_path_statistics(self._paths())
        assert statistics.hotness.count == 4
        assert statistics.hotness.maximum == 10.0
        assert statistics.hotness.total == 14.0
        assert statistics.length.maximum == 100.0
        assert statistics.score.maximum == 1000.0

    def test_top_decile_heat_share(self):
        statistics = hot_path_statistics(self._paths())
        # 4 paths -> decile size 1 -> hottest path carries 10 of 14 crossings.
        assert statistics.top_decile_heat_share == pytest.approx(10.0 / 14.0)

    def test_uniform_hotness_gives_low_concentration(self):
        paths = [(record(i, Point(0.0, 0.0), Point(10.0, 0.0)), 1) for i in range(20)]
        statistics = hot_path_statistics(paths)
        assert statistics.top_decile_heat_share == pytest.approx(2.0 / 20.0)


class TestNetworkAlignment:
    def test_simulation_paths_align_with_network(self, small_network):
        """Paths discovered on the synthetic workload hug the generating network."""
        from repro.network.generator import NetworkConfig
        from repro.simulation.engine import HotPathSimulation, SimulationConfig

        config = SimulationConfig(
            num_objects=80,
            tolerance=10.0,
            window=50,
            epoch_length=10,
            duration=60,
            seed=5,
            run_dp_baseline=False,
            run_naive_baseline=False,
            network_config=NetworkConfig(area_size=2000.0, grid_nodes_per_axis=6, seed=3),
        )
        result = HotPathSimulation(config).run()
        tolerance = config.tolerance * 2
        hot_paths = result.hot_paths()
        aligned = [
            record
            for record, _hotness in hot_paths
            if distance_to_network(record.start, result.network) <= tolerance
            and distance_to_network(record.end, result.network) <= tolerance
        ]
        assert hot_paths
        assert len(aligned) / len(hot_paths) > 0.8
