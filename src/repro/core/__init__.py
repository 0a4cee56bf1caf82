"""Core primitives: geometry, trajectories, motion paths and scoring."""

from repro.core.geometry import (
    Point,
    Rectangle,
    max_distance,
    interpolate_point,
)
from repro.core.trajectory import TimePoint, UncertainTimePoint, Trajectory
from repro.core.motion_path import MotionPath
from repro.core.scoring import top_k_score, select_top_k
from repro.core.errors import (
    ReproError,
    InvalidGeometryError,
    InvalidTrajectoryError,
    ToleranceError,
    CoordinatorError,
)

__all__ = [
    "Point",
    "Rectangle",
    "max_distance",
    "interpolate_point",
    "TimePoint",
    "UncertainTimePoint",
    "Trajectory",
    "MotionPath",
    "top_k_score",
    "select_top_k",
    "ReproError",
    "InvalidGeometryError",
    "InvalidTrajectoryError",
    "ToleranceError",
    "CoordinatorError",
]
