"""Unit tests for :mod:`repro.core.geometry`."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidGeometryError
from repro.core.geometry import (
    Point,
    Rectangle,
    interpolate_point,
    interpolate_scalar,
    max_distance,
)
from repro.core.motion_path import MotionPath


def box(x_min: float, y_min: float, x_max: float, y_max: float) -> Rectangle:
    return Rectangle(Point(x_min, y_min), Point(x_max, y_max))


class TestPoint:
    def test_point_as_tuple(self):
        assert Point(3.5, -1.0).as_tuple() == (3.5, -1.0)

    def test_point_rejects_nan(self):
        with pytest.raises(InvalidGeometryError):
            Point(float("nan"), 0.0)

    def test_point_rejects_infinity(self):
        with pytest.raises(InvalidGeometryError):
            Point(0.0, float("inf"))

    def test_euclidean_distance_to(self):
        assert Point(0.0, 0.0).euclidean_distance_to(Point(3.0, 4.0)) == 5.0

    def test_midpoint(self):
        assert Point(0.0, 0.0).midpoint(Point(2.0, 4.0)) == Point(1.0, 2.0)

    def test_points_are_hashable(self):
        assert len({Point(1.0, 2.0), Point(1.0, 2.0), Point(2.0, 1.0)}) == 2


class TestDistances:
    def test_max_distance_symmetry(self):
        a, b = Point(1.0, 5.0), Point(-2.0, 3.0)
        assert max_distance(a, b) == max_distance(b, a) == 3.0

    def test_euclidean_distance(self):
        assert Point(0.0, 0.0).euclidean_distance_to(Point(3.0, 4.0)) == 5.0

    def test_motion_path_length_is_euclidean(self):
        assert MotionPath(Point(0.0, 0.0), Point(3.0, 4.0)).length == 5.0
        assert MotionPath(Point(0.0, 0.0), Point(0.0, 7.0)).length == 7.0


class TestInterpolation:
    def test_interpolate_scalar_endpoints(self):
        assert interpolate_scalar(2.0, 10.0, 0.0) == 2.0
        assert interpolate_scalar(2.0, 10.0, 1.0) == 10.0

    def test_interpolate_scalar_midpoint(self):
        assert interpolate_scalar(2.0, 10.0, 0.5) == 6.0

    def test_interpolate_point_midpoint(self):
        mid = interpolate_point(Point(0.0, 0.0), Point(10.0, 20.0), 0.5)
        assert mid == Point(5.0, 10.0)

    def test_interpolate_point_endpoints(self):
        a, b = Point(-1.0, 2.0), Point(3.0, -4.0)
        assert interpolate_point(a, b, 0.0) == a
        assert interpolate_point(a, b, 1.0) == b


class TestRectangle:
    def test_invalid_corners_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Rectangle(Point(1.0, 0.0), Point(0.0, 1.0))

    def test_from_center_is_tolerance_square(self):
        rect = Rectangle.from_center(Point(5.0, 5.0), 2.0)
        assert rect.low == Point(3.0, 3.0)
        assert rect.high == Point(7.0, 7.0)
        assert rect.width == rect.height == 4.0

    def test_from_center_negative_half_extent_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Rectangle.from_center(Point(0.0, 0.0), -1.0)

    def test_degenerate_rectangle(self):
        rect = Rectangle.degenerate(Point(2.0, 3.0))
        assert rect.is_degenerate()
        assert rect.area == 0.0
        assert rect.contains_point(Point(2.0, 3.0))

    def test_bounding_with_padding(self):
        rect = Rectangle.bounding(Point(0.0, 5.0), Point(5.0, 0.0), padding=1.0)
        assert rect.low == Point(-1.0, -1.0)
        assert rect.high == Point(6.0, 6.0)

    def test_width_height_area(self):
        rect = box(0.0, 0.0, 4.0, 2.0)
        assert rect.width == 4.0
        assert rect.height == 2.0
        assert rect.area == 8.0

    def test_center(self):
        rect = box(0.0, 0.0, 4.0, 2.0)
        assert rect.center == Point(2.0, 1.0)

    def test_contains_point_boundary(self):
        rect = box(0.0, 0.0, 1.0, 1.0)
        assert rect.contains_point(Point(1.0, 1.0))
        assert not rect.contains_point(Point(1.0001, 1.0))

    def test_intersects_touching(self):
        a = box(0.0, 0.0, 1.0, 1.0)
        b = box(1.0, 1.0, 2.0, 2.0)
        assert a.intersects(b)

    def test_intersects_disjoint(self):
        a = box(0.0, 0.0, 1.0, 1.0)
        b = box(1.5, 0.0, 2.0, 1.0)
        assert not a.intersects(b)

    def test_intersection_overlapping(self):
        a = box(0.0, 0.0, 2.0, 2.0)
        b = box(1.0, 1.0, 3.0, 3.0)
        inter = a.intersection(b)
        assert inter == box(1.0, 1.0, 2.0, 2.0)

    def test_intersection_disjoint_returns_none(self):
        a = box(0.0, 0.0, 1.0, 1.0)
        b = box(5.0, 5.0, 6.0, 6.0)
        assert a.intersection(b) is None

    def test_intersection_degenerate_touching(self):
        a = box(0.0, 0.0, 1.0, 1.0)
        b = box(1.0, 0.0, 2.0, 1.0)
        inter = a.intersection(b)
        assert inter is not None
        assert inter.is_degenerate()

    def test_as_bounds_roundtrip(self):
        rect = box(0.5, 1.5, 2.5, 3.5)
        assert box(*rect.as_bounds()) == rect
