"""Workload generation: network-constrained moving objects and scenario builders."""

from repro.workload.noise import UniformNoiseModel
from repro.workload.moving_objects import MovingObjectWorkload, WorkloadConfig, ObjectMotionState
from repro.workload.scenarios import (
    waypoint_corridor_trajectories,
    converging_event_trajectories,
    evacuation_trajectories,
)

__all__ = [
    "UniformNoiseModel",
    "MovingObjectWorkload",
    "WorkloadConfig",
    "ObjectMotionState",
    "waypoint_corridor_trajectories",
    "converging_event_trajectories",
    "evacuation_trajectories",
]
