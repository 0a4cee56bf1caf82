"""End-to-end integration tests on deterministic scenarios with known ground truth.

The network workload is stochastic, so these tests instead drive the full
client/coordinator protocol over the hand-crafted scenario trajectories whose
hot paths are known by construction: a shared straight corridor must produce a
small number of paths with hotness equal to the number of objects that
travelled it.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import Trajectory
from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.workload.scenarios import (
    converging_event_trajectories,
    evacuation_trajectories,
    waypoint_corridor_trajectories,
)


def replay_trajectories(
    trajectories: Dict[int, Trajectory],
    tolerance: float,
    bounds: Rectangle,
    window: int = 1000,
    epoch_length: int = 5,
) -> Coordinator:
    """Drive the full RayTrace + SinglePath pipeline over offline trajectories.

    Measurements are replayed in global timestamp order; the coordinator runs
    one epoch every ``epoch_length`` timestamps, exactly like the simulation
    engine, but without any stochastic workload in the loop.
    """
    coordinator = Coordinator(
        CoordinatorConfig(bounds=bounds, window=window, cells_per_axis=32)
    )
    config = RayTraceConfig(tolerance)
    filters: Dict[int, RayTraceFilter] = {}
    start_times = {oid: trajectory.start_time for oid, trajectory in trajectories.items()}
    end_time = max(trajectory.end_time for trajectory in trajectories.values())

    for timestamp in range(0, end_time + 1):
        for object_id, trajectory in trajectories.items():
            if timestamp < start_times[object_id] or timestamp > trajectory.end_time:
                continue
            index = timestamp - start_times[object_id]
            measurement = trajectory[index]
            if object_id not in filters:
                filters[object_id] = RayTraceFilter(object_id, measurement, config)
                continue
            state = filters[object_id].observe(measurement)
            if state is not None:
                coordinator.submit_state(state)
        if timestamp % epoch_length == 0 and timestamp > 0:
            outcome = coordinator.run_epoch(timestamp)
            for response in outcome.responses:
                follow_up = filters[response.object_id].receive_response(response)
                if follow_up is not None:
                    coordinator.submit_state(follow_up)

    # Flush: force every filter to report its final SSA so trailing motion is indexed.
    for object_id, filt in filters.items():
        if not filt.waiting and filt.fsa_timestamp > filt.ssa_start.timestamp:
            coordinator.submit_state(filt.current_state())
    coordinator.run_epoch(end_time + 1)
    return coordinator


BOUNDS = Rectangle(Point(-5000.0, -5000.0), Point(5000.0, 5000.0))


L_CORRIDOR = [Point(0.0, 0.0), Point(600.0, 0.0), Point(600.0, 600.0)]


class TestStraightCorridorScenario:
    def test_straight_corridor_gives_one_private_path_per_object(self):
        """Objects moving perfectly straight never report mid-way, so each ends up
        with a single covering path of hotness 1 — the degenerate case discussed
        in Section 3.1 (a single object's problem reduces to trajectory
        simplification)."""
        trajectories = waypoint_corridor_trajectories(
            [Point(0.0, 0.0), Point(1000.0, 0.0)],
            num_objects=6,
            duration=50,
            lateral_spread=2.0,
            seed=1,
        )
        coordinator = replay_trajectories(trajectories, tolerance=10.0, bounds=BOUNDS)
        assert coordinator.index_size() == 6
        assert all(hotness == 1 for _, hotness in coordinator.hot_paths())


class TestTurningCorridorScenario:
    def test_shared_corridor_produces_hot_paths(self):
        trajectories = waypoint_corridor_trajectories(
            L_CORRIDOR, num_objects=6, duration=60, lateral_spread=2.0, seed=1
        )
        coordinator = replay_trajectories(trajectories, tolerance=10.0, bounds=BOUNDS)
        top = coordinator.top_k(3)
        assert top, "no motion paths were discovered"
        assert top[0].hotness >= 4

    def test_corridor_paths_follow_the_corridor(self):
        trajectories = waypoint_corridor_trajectories(
            L_CORRIDOR, num_objects=6, duration=60, lateral_spread=2.0, seed=1
        )
        coordinator = replay_trajectories(trajectories, tolerance=10.0, bounds=BOUNDS)
        for record, hotness in coordinator.hot_paths():
            if hotness < 2:
                continue
            # The corridor stays inside the L-shaped band around the waypoints.
            for endpoint in (record.path.start, record.path.end):
                assert -50.0 <= endpoint.x <= 650.0
                assert -50.0 <= endpoint.y <= 650.0

    def test_staggered_objects_still_accumulate_hotness(self):
        """Objects crossing the corridor at different times still heat the same paths."""
        trajectories = waypoint_corridor_trajectories(
            L_CORRIDOR, num_objects=5, duration=40, lateral_spread=1.0, start_stagger=3, seed=2
        )
        coordinator = replay_trajectories(trajectories, tolerance=8.0, bounds=BOUNDS)
        top = coordinator.top_k(3)
        assert top[0].hotness >= 2

    def test_disjoint_corridors_do_not_share_paths(self):
        north_waypoints = [Point(0.0, 2000.0), Point(500.0, 2000.0), Point(500.0, 2400.0)]
        south_waypoints = [Point(0.0, -2000.0), Point(500.0, -2000.0), Point(500.0, -2400.0)]
        north = waypoint_corridor_trajectories(north_waypoints, num_objects=3, duration=30, seed=3)
        south = waypoint_corridor_trajectories(south_waypoints, num_objects=3, duration=30, seed=4)
        merged = dict(north)
        offset = len(north)
        for object_id, trajectory in south.items():
            clone = merged[object_id + offset] = Trajectory(object_id + offset)
            for timepoint in trajectory:
                clone.append(timepoint)
        coordinator = replay_trajectories(merged, tolerance=10.0, bounds=BOUNDS)
        for record, _ in coordinator.hot_paths():
            y_values = (record.path.start.y, record.path.end.y)
            assert all(y > 1000.0 for y in y_values) or all(y < -1000.0 for y in y_values)


class TestConvergingScenario:
    def test_paths_near_venue_are_hottest(self):
        venue = Point(0.0, 0.0)
        trajectories = converging_event_trajectories(
            num_objects=12, venue=venue, spawn_radius=1500.0, duration=60, num_corridors=3, seed=5
        )
        coordinator = replay_trajectories(trajectories, tolerance=15.0, bounds=BOUNDS)
        top = coordinator.top_k(5)
        assert top, "no motion paths discovered"
        assert top[0].hotness >= 2
        # The hottest path should sit on one of the shared approach corridors,
        # i.e. closer to the venue than the spawn ring.
        hottest = top[0]
        closest = min(
            hottest.path.start.euclidean_distance_to(venue),
            hottest.path.end.euclidean_distance_to(venue),
        )
        assert closest < 1200.0


class TestEvacuationScenario:
    def test_escape_routes_are_discovered(self):
        danger = Point(0.0, 0.0)
        trajectories = evacuation_trajectories(
            num_objects=12, danger_zone=danger, evacuation_radius=2000.0,
            num_escape_routes=2, duration=60, seed=6,
        )
        coordinator = replay_trajectories(trajectories, tolerance=20.0, bounds=BOUNDS)
        top = coordinator.top_k(4)
        assert top
        assert top[0].hotness >= 3

    def test_hot_paths_point_away_from_danger(self):
        danger = Point(0.0, 0.0)
        trajectories = evacuation_trajectories(
            num_objects=10, danger_zone=danger, evacuation_radius=2000.0,
            num_escape_routes=2, duration=60, seed=7,
        )
        coordinator = replay_trajectories(trajectories, tolerance=20.0, bounds=BOUNDS)
        outward = 0
        total = 0
        for record, hotness in coordinator.hot_paths():
            if hotness < 2:
                continue
            total += 1
            start_distance = record.path.start.euclidean_distance_to(danger)
            end_distance = record.path.end.euclidean_distance_to(danger)
            if end_distance >= start_distance:
                outward += 1
        assert total > 0
        assert outward >= total * 0.7
