"""Hand-crafted trajectory scenarios for examples and tests.

The network workload of :mod:`repro.workload.moving_objects` drives the
paper's evaluation; the scenario builders here produce small, fully
deterministic trajectory sets that exercise the same code paths with known
ground truth, which is what the example applications and many integration
tests need:

* :func:`waypoint_corridor_trajectories` — several objects following the same
  polyline corridor with small lateral offsets (the canonical "hot path").
* :func:`converging_event_trajectories` — objects starting from scattered
  positions and converging on a single venue (the targeted-advertising
  motivation of the paper's introduction).
* :func:`evacuation_trajectories` — objects fleeing a danger zone along a few
  escape corridors (the emergency-response motivation).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.core.trajectory import TimePoint, Trajectory

__all__ = [
    "waypoint_corridor_trajectories",
    "converging_event_trajectories",
    "evacuation_trajectories",
]


def waypoint_corridor_trajectories(
    waypoints: List[Point],
    num_objects: int = 6,
    duration: int = 60,
    lateral_spread: float = 2.0,
    start_stagger: int = 0,
    seed: int = 0,
) -> Dict[int, Trajectory]:
    """Objects following the same polyline corridor defined by ``waypoints``.

    Every object traverses the corridor at constant speed over ``duration``
    timestamps, displaced from the polyline by a small per-object constant
    offset (at most ``lateral_spread`` on each axis).  Because the corridor has
    turns, RayTrace filters report at the turns and the coordinator chains
    motion paths across shared vertices — so the segments after the first turn
    become genuinely hot.  ``start_stagger`` delays each object's departure so
    hotness accumulation does not rely on synchronous movement.
    """
    if len(waypoints) < 2:
        raise ConfigurationError("a corridor needs at least two waypoints")
    if num_objects <= 0:
        raise ConfigurationError(f"num_objects must be positive, got {num_objects}")
    if duration < 2:
        raise ConfigurationError(f"duration must be at least 2, got {duration}")
    rng = random.Random(seed)
    # Cumulative arc length of the corridor polyline.
    segment_lengths = [
        math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(waypoints, waypoints[1:])
    ]
    total_length = sum(segment_lengths)
    if total_length == 0.0:
        raise ConfigurationError("corridor waypoints must not all coincide")

    def point_at(distance: float) -> Point:
        remaining = min(max(distance, 0.0), total_length)
        last_index = len(segment_lengths) - 1
        for index, ((a, b), length) in enumerate(zip(zip(waypoints, waypoints[1:]), segment_lengths)):
            if remaining <= length or index == last_index:
                fraction = 0.0 if length == 0.0 else min(remaining / length, 1.0)
                return Point(a.x + fraction * (b.x - a.x), a.y + fraction * (b.y - a.y))
            remaining -= length
        return waypoints[-1]

    trajectories: Dict[int, Trajectory] = {}
    for object_id in range(num_objects):
        offset_x = rng.uniform(-lateral_spread, lateral_spread)
        offset_y = rng.uniform(-lateral_spread, lateral_spread)
        departure = object_id * start_stagger
        trajectory = Trajectory(object_id)
        for step in range(duration):
            distance = total_length * step / (duration - 1)
            base = point_at(distance)
            trajectory.append(
                TimePoint(Point(base.x + offset_x, base.y + offset_y), departure + step)
            )
        trajectories[object_id] = trajectory
    return trajectories


def converging_event_trajectories(
    num_objects: int = 10,
    venue: Point = Point(0.0, 0.0),
    spawn_radius: float = 2000.0,
    duration: int = 60,
    num_corridors: int = 4,
    seed: int = 1,
) -> Dict[int, Trajectory]:
    """Objects converging on a venue along a handful of approach corridors.

    Objects spawn on a circle of radius ``spawn_radius`` around the venue, walk
    towards the nearest of ``num_corridors`` evenly spaced approach corridors,
    merge onto it halfway, in space and in time, and then follow
    the shared corridor to the venue — so the corridor segments close to the
    venue become hot.
    """
    if num_objects <= 0 or num_corridors <= 0:
        raise ConfigurationError("num_objects and num_corridors must be positive")
    if duration < 2:
        raise ConfigurationError(f"duration must be at least 2, got {duration}")
    rng = random.Random(seed)
    corridor_angles = [2.0 * math.pi * i / num_corridors for i in range(num_corridors)]
    trajectories: Dict[int, Trajectory] = {}
    for object_id in range(num_objects):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        corridor_angle = min(
            corridor_angles,
            key=lambda corridor: abs(math.atan2(math.sin(angle - corridor), math.cos(angle - corridor))),
        )
        spawn = Point(
            venue.x + spawn_radius * math.cos(angle),
            venue.y + spawn_radius * math.sin(angle),
        )
        join_point = Point(
            venue.x + spawn_radius * 0.5 * math.cos(corridor_angle),
            venue.y + spawn_radius * 0.5 * math.sin(corridor_angle),
        )
        join_step = max(1, duration // 2)
        trajectory = Trajectory(object_id)
        for step in range(duration):
            if step <= join_step:
                fraction = step / join_step
                x = spawn.x + fraction * (join_point.x - spawn.x)
                y = spawn.y + fraction * (join_point.y - spawn.y)
            else:
                fraction = (step - join_step) / max(1, duration - 1 - join_step)
                x = join_point.x + fraction * (venue.x - join_point.x)
                y = join_point.y + fraction * (venue.y - join_point.y)
            trajectory.append(TimePoint(Point(x, y), step))
        trajectories[object_id] = trajectory
    return trajectories


def evacuation_trajectories(
    num_objects: int = 12,
    danger_zone: Point = Point(0.0, 0.0),
    evacuation_radius: float = 3000.0,
    num_escape_routes: int = 3,
    duration: int = 80,
    seed: int = 2,
) -> Dict[int, Trajectory]:
    """Objects fleeing a danger zone along a small number of escape routes.

    Objects start scattered within 500 m of the danger zone and each follows
    the escape route whose bearing is closest to its initial bearing from the
    zone centre, moving radially outwards along that route.  Routes therefore
    accumulate many crossings and become the hot escape corridors the
    emergency scenario in the paper's introduction wants surfaced.
    """
    if num_objects <= 0 or num_escape_routes <= 0:
        raise ConfigurationError("num_objects and num_escape_routes must be positive")
    if duration < 2:
        raise ConfigurationError(f"duration must be at least 2, got {duration}")
    rng = random.Random(seed)
    spawn_radius = 500.0
    route_angles = [2.0 * math.pi * i / num_escape_routes for i in range(num_escape_routes)]
    trajectories: Dict[int, Trajectory] = {}
    for object_id in range(num_objects):
        spawn_angle = rng.uniform(0.0, 2.0 * math.pi)
        spawn_distance = rng.uniform(0.0, spawn_radius)
        spawn = Point(
            danger_zone.x + spawn_distance * math.cos(spawn_angle),
            danger_zone.y + spawn_distance * math.sin(spawn_angle),
        )
        route_angle = min(
            route_angles,
            key=lambda route: abs(math.atan2(math.sin(spawn_angle - route), math.cos(spawn_angle - route))),
        )
        route_entry = Point(
            danger_zone.x + spawn_radius * math.cos(route_angle),
            danger_zone.y + spawn_radius * math.sin(route_angle),
        )
        exit_point = Point(
            danger_zone.x + evacuation_radius * math.cos(route_angle),
            danger_zone.y + evacuation_radius * math.sin(route_angle),
        )
        join_step = max(1, duration // 4)
        trajectory = Trajectory(object_id)
        for step in range(duration):
            if step <= join_step:
                fraction = step / join_step
                x = spawn.x + fraction * (route_entry.x - spawn.x)
                y = spawn.y + fraction * (route_entry.y - spawn.y)
            else:
                fraction = (step - join_step) / max(1, duration - 1 - join_step)
                x = route_entry.x + fraction * (exit_point.x - route_entry.x)
                y = route_entry.y + fraction * (exit_point.y - route_entry.y)
            trajectory.append(TimePoint(Point(x, y), step))
        trajectories[object_id] = trajectory
    return trajectories
