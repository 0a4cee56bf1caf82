"""Geometric primitives used throughout the framework.

The paper works on the xy plane with the max-distance (L-infinity) metric: a
point ``p_a`` is *close* to ``p_k`` when ``max(|x_a - x_k|, |y_a - y_k|) <= eps``.
The tolerance square of side ``2 * eps`` around a measurement and the Spatial
Safe Area projections maintained by RayTrace are all axis-aligned rectangles,
so :class:`Rectangle` (with intersection and containment) is the
workhorse of both tiers.

Everything in this module is a small immutable value object, and every
constructor validates: :class:`Point` rejects non-finite coordinates,
:class:`Rectangle` an inverted corner pair, and there is no unchecked way
around either.  Both are hand-written ``__slots__`` classes
(:mod:`repro.core.value`) with the frozen-dataclass contract, so building
one costs a Python-level ``__init__`` — that check and two slot stores,
about 0.4 us — and hot loops still work on scalars and build a ``Point`` /
``Rectangle`` at the boundary where a value leaves them (as
``client/raytrace.py`` does).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.core.errors import InvalidGeometryError
from repro.core.value import FrozenValue

__all__ = [
    "Point",
    "Rectangle",
    "max_distance",
    "interpolate_point",
    "interpolate_scalar",
]


class Point(FrozenValue):
    """A point on the xy plane.

    Points are immutable and hashable so they can serve as dictionary keys in
    the coordinator's vertex bookkeeping.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (_isfinite(x) and _isfinite(y)):
            raise InvalidGeometryError(f"point coordinates must be finite, got ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)

    # ``FrozenValue.__eq__``, written out: the index's exact-match lookups
    # compare points, and this is about 70 ns cheaper than the generic one.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.x, self.y) == (other.x, other.y)
        return NotImplemented

    # Defining ``__eq__`` clears the inherited hash; restore it.
    __hash__ = FrozenValue.__hash__

    def as_tuple(self) -> Tuple[float, float]:
        """Return the point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)

    def euclidean_distance_to(self, other: "Point") -> float:
        """L2 distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint of the segment joining this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)


_isfinite = math.isfinite
_set_x, _set_y = Point.x.__set__, Point.y.__set__


def max_distance(a: Point, b: Point) -> float:
    """L-infinity (max) distance between two points."""
    return max(abs(a.x - b.x), abs(a.y - b.y))


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


class Rectangle(FrozenValue):
    """An axis-aligned rectangle defined by its lower and upper corners.

    Degenerate rectangles (zero width and/or height) are allowed: the initial
    SSA projection of RayTrace is a single point and tolerance squares collapse
    when epsilon is zero.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: Point, high: Point) -> None:
        if low.x > high.x or low.y > high.y:
            raise InvalidGeometryError(f"rectangle lower corner {low} exceeds upper corner {high}")
        _set_low(self, low)
        _set_high(self, high)

    # -- constructors ------------------------------------------------------

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

    def as_bounds(self) -> Tuple[float, float, float, float]:
        """Return ``(x_min, y_min, x_max, y_max)``."""
        return (self.low.x, self.low.y, self.high.x, self.high.y)


_set_low, _set_high = Rectangle.low.__set__, Rectangle.high.__set__
