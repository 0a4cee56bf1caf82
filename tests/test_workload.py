"""Unit tests for the workload generator, noise model and scenarios."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.core.trajectory import UncertainTimePoint
from repro.network.road_network import RoadNetwork
from repro.workload.moving_objects import MovingObjectWorkload, WorkloadConfig
from repro.workload.noise import UniformNoiseModel
from repro.workload.scenarios import converging_event_trajectories, evacuation_trajectories

from road_reference import distance_to_network


class TestNoiseModels:
    def test_uniform_noise_bounded(self):
        rng = random.Random(0)
        model = UniformNoiseModel(err=2.0)
        point = Point(10.0, 10.0)
        for _ in range(200):
            noisy = model.perturb(point, rng)
            assert abs(noisy.x - 10.0) <= 2.0
            assert abs(noisy.y - 10.0) <= 2.0

    def test_uniform_noise_zero_err_is_identity(self):
        rng = random.Random(0)
        assert UniformNoiseModel(err=0.0).perturb(Point(1.0, 1.0), rng) == Point(1.0, 1.0)

    def test_uniform_noise_negative_err_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformNoiseModel(err=-1.0)

    def test_uniform_reported_sigma(self):
        sigma_x, sigma_y = UniformNoiseModel(err=3.0).reported_sigma()
        assert sigma_x == pytest.approx(3.0 / (3.0 ** 0.5))
        assert sigma_x == sigma_y


class TestWorkloadConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_objects=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(agility=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(agility=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(displacement=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(positional_error=-1.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(duration=0)


class TestMovingObjectWorkload:
    def _workload(self, small_network, **overrides) -> MovingObjectWorkload:
        defaults = dict(num_objects=30, agility=0.5, duration=40, seed=9)
        defaults.update(overrides)
        return MovingObjectWorkload(small_network, WorkloadConfig(**defaults))

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigurationError):
            MovingObjectWorkload(RoadNetwork(), WorkloadConfig(num_objects=5))

    def test_initial_measurements_cover_all_objects(self, small_network):
        workload = self._workload(small_network)
        initial = workload.initial_measurements(0)
        assert len(initial) == 30
        assert {object_id for object_id, _ in initial} == set(range(30))
        assert all(measurement.timestamp == 0 for _, measurement in initial)

    def test_objects_start_on_network_nodes(self, small_network):
        workload = self._workload(small_network, num_objects=10)
        node_locations = {small_network.node(node_id).location for node_id in small_network.node_ids()}
        for object_id in range(10):
            assert workload.object_state(object_id).position in node_locations

    def test_step_respects_agility(self, small_network):
        moving = self._workload(small_network, num_objects=200, agility=0.1)
        measurements = moving.step(1)
        # With agility 0.1 roughly 20 of 200 objects move; allow generous slack.
        assert 2 <= len(measurements) <= 60

    def test_full_agility_moves_everyone(self, small_network):
        workload = self._workload(small_network, num_objects=25, agility=1.0)
        assert len(workload.step(1)) == 25

    def test_displacement_bounds_step_distance(self, small_network):
        workload = self._workload(
            small_network, num_objects=20, agility=1.0, displacement=10.0, positional_error=0.0
        )
        workload.initial_measurements(0)
        before = {oid: workload.object_state(oid).position for oid in range(20)}
        workload.step(1)
        for object_id in range(20):
            after = workload.object_state(object_id).position
            assert before[object_id].euclidean_distance_to(after) <= 10.0 + 1e-6

    def test_measurement_noise_bounded_by_err(self, small_network):
        workload = self._workload(
            small_network, num_objects=20, agility=1.0, positional_error=2.0
        )
        workload.initial_measurements(0)
        for object_id, measurement in workload.step(1):
            true_position = workload.object_state(object_id).position
            assert abs(measurement.point.x - true_position.x) <= 2.0
            assert abs(measurement.point.y - true_position.y) <= 2.0

    def test_uncertain_measurements_carry_sigma(self, small_network):
        workload = self._workload(small_network, num_objects=5, report_uncertainty=True)
        initial = workload.initial_measurements(0)
        assert all(isinstance(m, UncertainTimePoint) for _, m in initial)
        assert all(m.sigma_x > 0 for _, m in initial)

    def test_unknown_object_rejected(self, small_network):
        workload = self._workload(small_network, num_objects=5)
        with pytest.raises(ConfigurationError):
            workload.object_state(99)

    def test_determinism(self, small_network):
        first = self._workload(small_network, num_objects=10, seed=4)
        second = self._workload(small_network, num_objects=10, seed=4)
        batch_1 = first.step(1)
        batch_2 = second.step(1)
        assert [(oid, m.point, m.timestamp) for oid, m in batch_1] == [
            (oid, m.point, m.timestamp) for oid, m in batch_2
        ]

    def test_objects_follow_network_links(self, small_network):
        """Noise-free measurements must lie on (or at) a network link."""
        workload = self._workload(
            small_network, num_objects=10, agility=1.0, positional_error=0.0
        )
        workload.initial_measurements(0)
        for _ in range(1, 10):
            workload.step(_)
        for object_id in range(10):
            position = workload.object_state(object_id).position
            assert distance_to_network(position, small_network) < 1e-6


class TestScenarios:
    def test_converging_event_ends_near_venue(self):
        venue = Point(100.0, 100.0)
        trajectories = converging_event_trajectories(num_objects=8, venue=venue, duration=30)
        for trajectory in trajectories.values():
            final = list(trajectory)[-1].point
            assert final.euclidean_distance_to(venue) < 1.0

    def test_converging_event_invalid_args(self):
        with pytest.raises(ConfigurationError):
            converging_event_trajectories(num_objects=0)

    def test_evacuation_moves_away_from_danger(self):
        danger = Point(0.0, 0.0)
        trajectories = evacuation_trajectories(num_objects=6, danger_zone=danger, duration=30)
        for trajectory in trajectories.values():
            timepoints = list(trajectory)
            start_distance = timepoints[0].point.euclidean_distance_to(danger)
            end_distance = timepoints[-1].point.euclidean_distance_to(danger)
            assert end_distance > start_distance

    def test_evacuation_routes_shared(self):
        trajectories = evacuation_trajectories(num_objects=20, num_escape_routes=2, duration=30)
        final_points = [list(t)[-1].point for t in trajectories.values()]
        distinct = {(round(p.x, 3), round(p.y, 3)) for p in final_points}
        assert len(distinct) <= 2

    def test_evacuation_invalid_args(self):
        with pytest.raises(ConfigurationError):
            evacuation_trajectories(num_objects=0)
        with pytest.raises(ConfigurationError):
            evacuation_trajectories(duration=1)
