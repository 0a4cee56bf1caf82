"""Integration tests for the end-to-end simulation engine."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.errors import ConfigurationError
from repro.network.generator import NetworkConfig
from repro.simulation.engine import HotPathSimulation, SimulationConfig


SMALL_NETWORK = NetworkConfig(area_size=2000.0, grid_nodes_per_axis=6, seed=3)


def small_config(**overrides) -> SimulationConfig:
    defaults = dict(
        num_objects=80,
        tolerance=10.0,
        window=50,
        epoch_length=10,
        duration=80,
        seed=5,
        network_config=SMALL_NETWORK,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSimulationConfig:
    def test_invalid_tolerance(self):
        with pytest.raises(ConfigurationError):
            small_config(tolerance=0.0)

    def test_invalid_epoch(self):
        with pytest.raises(ConfigurationError):
            small_config(epoch_length=0)

    def test_duration_must_exceed_epoch(self):
        with pytest.raises(ConfigurationError):
            small_config(duration=10, epoch_length=10)

    def test_workload_config_derivation(self):
        config = small_config(delta=0.1)
        workload = config.workload_config()
        assert workload.num_objects == config.num_objects
        assert workload.report_uncertainty  # delta > 0 implies uncertain measurements


class TestSimulationRun:
    @pytest.fixture(scope="class")
    def result(self):
        return HotPathSimulation(small_config()).run()

    def test_epochs_recorded(self, result):
        # duration=80, epoch=10 -> epochs at t=10..70 plus the final one at t=79.
        assert len(result.metrics.epochs) == 8

    def test_index_contains_paths(self, result):
        assert result.coordinator.index_size() > 0
        assert len(result.hot_paths()) > 0

    def test_top_k_paths_sorted_by_hotness(self, result):
        top = result.top_k_paths(10)
        hotness_values = [scored.hotness for scored in top]
        assert hotness_values == sorted(hotness_values, reverse=True)

    def test_top_k_score_positive(self, result):
        assert result.top_k_score(10) > 0.0

    def test_summary_keys(self, result):
        summary = result.summary()
        assert summary["uplink_messages"] > 0
        assert summary["naive_uplink_messages"] > summary["uplink_messages"]
        assert 0.0 < summary["message_reduction_versus_naive"] <= 1.0

    def test_dp_baseline_ran(self, result):
        assert result.dp_baseline is not None
        assert result.metrics.mean_dp_index_size >= 0.0

    def test_responses_track_states(self, result):
        # Every processed state message is answered by exactly one downlink
        # response; states submitted after the final epoch stay unanswered, so
        # the downlink count can lag the uplink count by at most that residue.
        downlink = result.metrics.downlink.messages
        uplink = result.metrics.uplink.messages
        assert 0 < downlink <= uplink
        assert downlink == result.metrics.total_states_processed

    def test_hot_paths_have_positive_hotness_and_length(self, result):
        for record, hotness in result.hot_paths():
            assert hotness >= 1
            assert record.path.length >= 0.0

    def test_paths_lie_inside_monitored_area(self, result):
        bounds = result.network.bounding_box(padding=result.config.tolerance * 4)
        for record, _ in result.hot_paths():
            assert bounds.contains_point(record.path.start)
            assert bounds.contains_point(record.path.end)


class TestSimulationVariants:
    def test_without_baselines(self):
        result = HotPathSimulation(
            small_config(run_dp_baseline=False, run_naive_baseline=False, duration=60)
        ).run()
        assert result.dp_baseline is None
        assert result.metrics.naive_uplink.messages == 0
        assert result.coordinator.index_size() >= 0

    def test_with_uncertainty(self):
        result = HotPathSimulation(
            small_config(delta=0.1, duration=60, run_dp_baseline=False)
        ).run()
        assert result.metrics.uplink.messages > 0

    def test_determinism(self):
        first = HotPathSimulation(small_config(duration=60)).run()
        second = HotPathSimulation(small_config(duration=60)).run()
        assert first.summary() == pytest.approx(second.summary(), rel=1e-9, abs=1e-2)

    def test_larger_tolerance_reduces_messages(self):
        tight = HotPathSimulation(
            small_config(tolerance=2.0, duration=60, run_dp_baseline=False)
        ).run()
        loose = HotPathSimulation(
            small_config(tolerance=40.0, duration=60, run_dp_baseline=False)
        ).run()
        assert loose.metrics.uplink.messages <= tight.metrics.uplink.messages

    def test_custom_network_is_used(self, tiny_manual_network):
        config = SimulationConfig(
            num_objects=20,
            tolerance=5.0,
            window=30,
            epoch_length=5,
            duration=40,
            seed=1,
        )
        result = HotPathSimulation(config, network=tiny_manual_network).run()
        assert result.network is tiny_manual_network


def top_k_rows(scored_paths):
    """``(path_id, hotness, start, end)`` per ranked path: the listing ``repro run`` prints."""
    return [
        (scored.path_id, scored.hotness, scored.path.start.as_tuple(), scored.path.end.as_tuple())
        for scored in scored_paths
    ]


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# Recorded at the commit before the RayTrace filter moved from Point/Rectangle
# objects to scalars: ``(seed, delta) -> run``.  The client tier must hand the
# coordinator the very same reports, so every number below is an equality.
RUNS_AT_OBJECT_GEOMETRY_FILTER = {(5, 0.0): {'uplink': (49, 1764),
            'downlink': (48, 768),
            'index_size': [0, 2, 4, 11, 19, 28, 30, 31],
            'states_processed': [0, 2, 2, 7, 8, 13, 9, 7],
            'top_k_score': [0.0,
                            27.65333405391771,
                            34.294945701368135,
                            38.59410120318991,
                            51.01902251205071,
                            57.410156263363795,
                            71.12242983608577,
                            73.19181263145576],
            'hottest': (40,
                        1,
                        (373.354127736049, 20.170727922822152),
                        (461.51255199482586, 17.259783717544064)),
            'top_k_digest': 'f6fcc06c487a5cc4'},
 (9, 0.0): {'uplink': (77, 2772),
            'downlink': (76, 1216),
            'index_size': [0, 2, 4, 9, 23, 33, 42, 60],
            'states_processed': [0, 2, 2, 5, 14, 15, 15, 23],
            'top_k_score': [0.0,
                            22.050836764806604,
                            26.470328233116952,
                            35.87923643171433,
                            61.41475565451312,
                            66.60562901294023,
                            74.34821326236417,
                            84.52411699435095],
            'hottest': (68,
                        1,
                        (-0.9030807573072415, 706.2600257171003),
                        (21.97597783602962, 824.190847739125)),
            'top_k_digest': 'f4a0811137bc5f99'},
 (5, 0.1): {'uplink': (66, 2376),
            'downlink': (66, 1056),
            'index_size': [0, 3, 8, 18, 32, 37, 36, 41],
            'states_processed': [0, 3, 5, 10, 14, 12, 10, 12],
            'top_k_score': [0.0,
                            25.45829871893562,
                            31.611085449043,
                            41.49351330601557,
                            50.1222199807451,
                            56.154899166354674,
                            67.12645436469026,
                            71.27582537682193],
            'hottest': (45,
                        1,
                        (1600.9010819571236, 1176.2815377905083),
                        (1688.6191083759463, 1185.687843208898)),
            'top_k_digest': 'd1da61516d4efb7d'}}


class TestClientTierIdentity:
    @pytest.mark.parametrize("seed, delta", sorted(RUNS_AT_OBJECT_GEOMETRY_FILTER))
    def test_run_equals_recorded_parent_run(self, seed, delta):
        result = HotPathSimulation(
            small_config(seed=seed, delta=delta, run_dp_baseline=False)
        ).run()
        metrics = result.metrics
        rows = top_k_rows(result.top_k_paths(10))
        assert {
            "uplink": (metrics.uplink.messages, metrics.uplink.bytes),
            "downlink": (metrics.downlink.messages, metrics.downlink.bytes),
            "index_size": [epoch.index_size for epoch in metrics.epochs],
            "states_processed": [epoch.states_processed for epoch in metrics.epochs],
            "top_k_score": [epoch.top_k_score for epoch in metrics.epochs],
            "hottest": rows[0],
            "top_k_digest": rows_digest(rows),
        } == RUNS_AT_OBJECT_GEOMETRY_FILTER[seed, delta]
