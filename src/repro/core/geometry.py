"""Geometric primitives used throughout the framework.

The paper works on the xy plane with the max-distance (L-infinity) metric: a
point ``p_a`` is *close* to ``p_k`` when ``max(|x_a - x_k|, |y_a - y_k|) <= eps``.
The tolerance square of side ``2 * eps`` around a measurement and the Spatial
Safe Area projections maintained by RayTrace are all axis-aligned rectangles,
so :class:`Rectangle` (with intersection, containment and expansion) is the
workhorse of both tiers.

Everything in this module is a small immutable value object, and every
constructor validates: :class:`Point` rejects non-finite coordinates,
:class:`Rectangle` an inverted corner pair, and there is no unchecked way
around either.  Building one therefore costs a frozen-dataclass ``__init__``
plus that check, so hot loops are expected to work on scalars and build a
``Point`` / ``Rectangle`` at the boundary where a value leaves them (as
``client/raytrace.py`` does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.core.errors import InvalidGeometryError

__all__ = [
    "Point",
    "Rectangle",
    "max_distance",
    "euclidean_distance",
    "manhattan_distance",
    "lp_distance",
    "interpolate_point",
    "interpolate_scalar",
    "segment_length",
]


@dataclass(frozen=True)
class Point:
    """A point on the xy plane.

    Points are immutable and hashable so they can serve as dictionary keys in
    the coordinator's vertex bookkeeping.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidGeometryError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def as_tuple(self) -> Tuple[float, float]:
        """Return the point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)

    def translate(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def max_distance_to(self, other: "Point") -> float:
        """L-infinity distance to ``other`` (the paper's default metric)."""
        return max(abs(self.x - other.x), abs(self.y - other.y))

    def euclidean_distance_to(self, other: "Point") -> float:
        """L2 distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def is_close_to(self, other: "Point", tolerance: float) -> bool:
        """Return ``True`` when ``other`` is within ``tolerance`` under L-infinity."""
        return self.max_distance_to(other) <= tolerance

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint of the segment joining this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)


def max_distance(a: Point, b: Point) -> float:
    """L-infinity (max) distance between two points."""
    return max(abs(a.x - b.x), abs(a.y - b.y))


def euclidean_distance(a: Point, b: Point) -> float:
    """Euclidean (L2) distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def manhattan_distance(a: Point, b: Point) -> float:
    """Manhattan (L1) distance between two points."""
    return abs(a.x - b.x) + abs(a.y - b.y)


def lp_distance(a: Point, b: Point, p: float) -> float:
    """General Lp distance between two points.

    ``p`` must be at least 1; ``math.inf`` selects the max-distance metric.
    """
    if p < 1:
        raise InvalidGeometryError(f"Lp distance requires p >= 1, got {p}")
    if math.isinf(p):
        return max_distance(a, b)
    return (abs(a.x - b.x) ** p + abs(a.y - b.y) ** p) ** (1.0 / p)


def segment_length(a: Point, b: Point) -> float:
    """Euclidean length of the directed segment ``a -> b``.

    Motion-path *length* in the score metric is measured with the Euclidean
    norm even though proximity uses the max-distance, matching the paper.
    """
    return euclidean_distance(a, b)


def interpolate_scalar(v0: float, v1: float, fraction: float) -> float:
    """Linear interpolation between two scalars at ``fraction`` in [0, 1]."""
    return v0 + fraction * (v1 - v0)


def interpolate_point(a: Point, b: Point, fraction: float) -> Point:
    """Linearly interpolate between ``a`` and ``b``.

    ``fraction`` = 0 yields ``a`` and 1 yields ``b``. Values outside [0, 1]
    extrapolate along the supporting line, which is occasionally useful for
    tests but never produced by the library itself.
    """
    return Point(
        interpolate_scalar(a.x, b.x, fraction),
        interpolate_scalar(a.y, b.y, fraction),
    )


@dataclass(frozen=True)
class Rectangle:
    """An axis-aligned rectangle defined by its lower and upper corners.

    Degenerate rectangles (zero width and/or height) are allowed: the initial
    SSA projection of RayTrace is a single point and tolerance squares collapse
    when epsilon is zero.
    """

    low: Point
    high: Point

    def __post_init__(self) -> None:
        if self.low.x > self.high.x or self.low.y > self.high.y:
            raise InvalidGeometryError(
                f"rectangle lower corner {self.low} exceeds upper corner {self.high}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bounds(cls, x_min: float, y_min: float, x_max: float, y_max: float) -> "Rectangle":
        """Build a rectangle from explicit bounds."""
        return cls(Point(x_min, y_min), Point(x_max, y_max))

    @classmethod
    def from_center(cls, center: Point, half_extent: float) -> "Rectangle":
        """Square of side ``2 * half_extent`` centred at ``center``.

        This is exactly the *tolerance square* of the paper for
        ``half_extent = epsilon``.
        """
        if half_extent < 0:
            raise InvalidGeometryError(f"half extent must be non-negative, got {half_extent}")
        return cls(
            Point(center.x - half_extent, center.y - half_extent),
            Point(center.x + half_extent, center.y + half_extent),
        )

    @classmethod
    def degenerate(cls, point: Point) -> "Rectangle":
        """Zero-area rectangle covering a single point."""
        return cls(point, point)

    @classmethod
    def bounding(cls, a: Point, b: Point, padding: float = 0.0) -> "Rectangle":
        """Minimum bounding box of two points, optionally expanded by ``padding``.

        The DP baseline expands candidate-segment MBBs by the tolerance value;
        that expansion is what ``padding`` provides.
        """
        low = Point(min(a.x, b.x) - padding, min(a.y, b.y) - padding)
        high = Point(max(a.x, b.x) + padding, max(a.y, b.y) + padding)
        return cls(low, high)

    # -- basic properties ----------------------------------------------------

    @property
    def width(self) -> float:
        return self.high.x - self.low.x

    @property
    def height(self) -> float:
        return self.high.y - self.low.y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Centroid of the rectangle — used when SinglePath fabricates a vertex."""
        return Point((self.low.x + self.high.x) / 2.0, (self.low.y + self.high.y) / 2.0)

    def is_degenerate(self) -> bool:
        """True when the rectangle has zero area."""
        return self.width == 0.0 or self.height == 0.0

    # -- predicates ----------------------------------------------------------

    def contains_point(self, point: Point) -> bool:
        """Closed containment test for a point."""
        return (
            self.low.x <= point.x <= self.high.x
            and self.low.y <= point.y <= self.high.y
        )

    def contains_rectangle(self, other: "Rectangle") -> bool:
        """True when ``other`` lies entirely inside (or on the boundary of) this rectangle."""
        return (
            self.low.x <= other.low.x
            and self.low.y <= other.low.y
            and self.high.x >= other.high.x
            and self.high.y >= other.high.y
        )

    def intersects(self, other: "Rectangle") -> bool:
        """Closed intersection test (touching rectangles intersect)."""
        return not (
            self.high.x < other.low.x
            or other.high.x < self.low.x
            or self.high.y < other.low.y
            or other.high.y < self.low.y
        )

    # -- constructive operations ----------------------------------------------

    def intersection(self, other: "Rectangle") -> Optional["Rectangle"]:
        """Return the intersection rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Rectangle(
            Point(max(self.low.x, other.low.x), max(self.low.y, other.low.y)),
            Point(min(self.high.x, other.high.x), min(self.high.y, other.high.y)),
        )

    def union_bounds(self, other: "Rectangle") -> "Rectangle":
        """Minimum bounding rectangle of this rectangle and ``other``."""
        return Rectangle(
            Point(min(self.low.x, other.low.x), min(self.low.y, other.low.y)),
            Point(max(self.high.x, other.high.x), max(self.high.y, other.high.y)),
        )

    def expand(self, margin: float) -> "Rectangle":
        """Grow (or shrink, for negative ``margin``) the rectangle on all sides."""
        low = Point(self.low.x - margin, self.low.y - margin)
        high = Point(self.high.x + margin, self.high.y + margin)
        if low.x > high.x or low.y > high.y:
            raise InvalidGeometryError(
                f"shrinking by {margin} would invert rectangle {self}"
            )
        return Rectangle(low, high)

    def clamp_point(self, point: Point) -> Point:
        """Project ``point`` onto the rectangle (nearest point inside it)."""
        return Point(
            min(max(point.x, self.low.x), self.high.x),
            min(max(point.y, self.low.y), self.high.y),
        )

    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """The four corners in counter-clockwise order starting at ``low``."""
        return (
            self.low,
            Point(self.high.x, self.low.y),
            self.high,
            Point(self.low.x, self.high.y),
        )

    def as_bounds(self) -> Tuple[float, float, float, float]:
        """Return ``(x_min, y_min, x_max, y_max)``."""
        return (self.low.x, self.low.y, self.high.x, self.high.y)
