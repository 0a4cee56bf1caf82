"""Frozen-dataclass twins of the slotted value classes.

Each twin is the ``@dataclass`` definition its class had before it became a
hand-written ``__slots__`` class (``repro.core.value``), fields and
validation only.  ``tests/test_value_objects.py`` holds every class to its
twin: ``repr``, equality, hash, pickling, ``FrozenInstanceError`` and the
validation errors must agree on drawn fields.  A twin keeps its class's name,
so the two ``repr`` strings are comparable character for character.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.core.errors import ConfigurationError, InvalidGeometryError, InvalidTrajectoryError


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidGeometryError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Rectangle:
    low: Point
    high: Point

    def __post_init__(self) -> None:
        if self.low.x > self.high.x or self.low.y > self.high.y:
            raise InvalidGeometryError(
                f"rectangle lower corner {self.low} exceeds upper corner {self.high}"
            )


@dataclass(frozen=True)
class MotionPath:
    start: Point
    end: Point

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "length", math.hypot(self.start.x - self.end.x, self.start.y - self.end.y)
        )


@dataclass
class MotionPathRecord:
    path_id: int
    path: MotionPath
    created_at: int = 0


@dataclass(frozen=True)
class TimePoint:
    point: Point
    timestamp: int


@dataclass(frozen=True)
class UncertainTimePoint:
    point: Point
    timestamp: int
    sigma_x: float
    sigma_y: float

    def __post_init__(self) -> None:
        if self.sigma_x < 0 or self.sigma_y < 0:
            raise InvalidTrajectoryError(
                f"standard deviations must be non-negative, got ({self.sigma_x}, {self.sigma_y})"
            )


@dataclass(frozen=True)
class ObjectState:
    object_id: int
    start: Point
    t_start: int
    fsa_low: Point
    fsa_high: Point
    t_end: int


@dataclass(frozen=True)
class CoordinatorResponse:
    object_id: int
    endpoint: Point
    timestamp: int


@dataclass(frozen=True)
class ScoredPath:
    path: MotionPath
    hotness: int
    path_id: int = -1


@dataclass(frozen=True)
class CorridorSegment:
    path_id: int
    path: MotionPath
    hotness: int

    @property
    def score(self) -> float:
        return self.hotness * self.path.length


@dataclass(frozen=True)
class CompositeCorridor:
    segments: Tuple[CorridorSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("a composite corridor needs at least one segment")

    @cached_property
    def length(self) -> float:
        return sum(segment.path.length for segment in self.segments)

    @cached_property
    def hotness(self) -> int:
        return min(segment.hotness for segment in self.segments)

    @cached_property
    def score(self) -> float:
        return sum(segment.score for segment in self.segments)
