"""Unit tests for :mod:`repro.client.uncertainty`."""

from __future__ import annotations

import pytest

from repro.core.errors import InvalidGeometryError, ToleranceError
from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import UncertainTimePoint
from repro.client.uncertainty import (
    NormalToleranceModel,
    UnsatisfiableTolerancePolicy,
    interval_probability,
    standard_normal_cdf,
)


class TestStandardNormalCdf:
    def test_symmetry(self):
        assert standard_normal_cdf(0.0) == pytest.approx(0.5)
        assert standard_normal_cdf(1.0) + standard_normal_cdf(-1.0) == pytest.approx(1.0)

    def test_known_value(self):
        # Phi(1.96) ~ 0.975
        assert standard_normal_cdf(1.96) == pytest.approx(0.975, abs=1e-3)

    def test_monotonicity(self):
        values = [standard_normal_cdf(z) for z in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        assert values == sorted(values)


class TestIntervalProbability:
    def test_centered_interval_has_maximum_probability(self):
        centered = interval_probability(0.0, epsilon=2.0, sigma=1.0)
        offset = interval_probability(1.0, epsilon=2.0, sigma=1.0)
        assert centered > offset

    def test_zero_sigma_is_indicator(self):
        assert interval_probability(0.5, epsilon=1.0, sigma=0.0) == 1.0
        assert interval_probability(2.0, epsilon=1.0, sigma=0.0) == 0.0

    def test_probability_decreases_with_sigma(self):
        small = interval_probability(0.0, epsilon=1.0, sigma=0.5)
        large = interval_probability(0.0, epsilon=1.0, sigma=2.0)
        assert small > large

    def test_known_value(self):
        # Pr(|X| <= sigma) ~ 0.6827 for X ~ N(0, sigma^2)
        assert interval_probability(0.0, epsilon=1.0, sigma=1.0) == pytest.approx(0.6827, abs=1e-3)


class TestNormalToleranceModelValidation:
    def test_invalid_epsilon(self):
        with pytest.raises(ToleranceError):
            NormalToleranceModel(epsilon=0.0)

    def test_invalid_delta(self):
        with pytest.raises(ToleranceError):
            NormalToleranceModel(epsilon=1.0, delta=1.0)


class TestOneDimensionalInterval:
    def test_zero_delta_gives_plain_interval(self):
        model = NormalToleranceModel(epsilon=5.0, delta=0.0)
        assert model.half_width(3.0) == 5.0

    def test_zero_sigma_gives_plain_interval(self):
        model = NormalToleranceModel(epsilon=5.0, delta=0.1)
        assert model.half_width(0.0) == 5.0

    def test_interval_is_centred_on_mean(self):
        model = NormalToleranceModel(epsilon=5.0, delta=0.1)
        low_x, low_y, high_x, high_y = model.tolerance_bounds(7.0, -2.0, 1.0, 1.0)
        assert (low_x + high_x) / 2.0 == pytest.approx(7.0)
        assert (low_y + high_y) / 2.0 == pytest.approx(-2.0)
        assert (high_x - low_x) / 2.0 == pytest.approx(model.half_width(1.0))

    def test_interval_shrinks_with_noise(self):
        model = NormalToleranceModel(epsilon=5.0, delta=0.1)
        assert model.half_width(0.5) > model.half_width(2.0)

    def test_interval_never_exceeds_plain_epsilon(self):
        model = NormalToleranceModel(epsilon=5.0, delta=0.1)
        assert model.half_width(0.5) <= 5.0 + 1e-9

    def test_solution_satisfies_equation_2(self):
        """At the solved boundary offset, the coverage probability equals 1 - delta."""
        epsilon, delta, sigma = 5.0, 0.1, 1.5
        model = NormalToleranceModel(epsilon=epsilon, delta=2 * delta)  # per-axis budget: delta
        boundary = model.half_width(sigma)  # offset from the mean
        probability = interval_probability(boundary, epsilon, sigma)
        assert probability == pytest.approx(1.0 - delta, abs=1e-6)

    def test_unsatisfiable_raise_policy(self):
        model = NormalToleranceModel(
            epsilon=1.0, delta=0.01, policy=UnsatisfiableTolerancePolicy.RAISE
        )
        with pytest.raises(ToleranceError):
            model.half_width(10.0)

    def test_unsatisfiable_minimal_policy(self):
        model = NormalToleranceModel(
            epsilon=1.0,
            delta=0.01,
            policy=UnsatisfiableTolerancePolicy.MINIMAL,
        )
        assert model.half_width(10.0) == pytest.approx(0.05)  # 5 % of epsilon
        low_x, _low_y, high_x, _high_y = model.tolerance_bounds(3.0, 0.0, 10.0, 0.0)
        assert (low_x + high_x) / 2.0 == pytest.approx(3.0)


class TestTwoDimensionalSquare:
    def test_square_centred_on_measurement(self):
        model = NormalToleranceModel(epsilon=5.0, delta=0.1)
        measurement = UncertainTimePoint(Point(10.0, 20.0), 0, 1.0, 1.0)
        square = model.tolerance_square(measurement)
        assert square.center.x == pytest.approx(10.0)
        assert square.center.y == pytest.approx(20.0)

    def test_square_shrinks_with_delta(self):
        loose = NormalToleranceModel(epsilon=5.0, delta=0.4)
        tight = NormalToleranceModel(epsilon=5.0, delta=0.05)
        measurement = UncertainTimePoint(Point(0.0, 0.0), 0, 1.5, 1.5)
        assert tight.tolerance_square(measurement).area < loose.tolerance_square(measurement).area

    def test_asymmetric_noise_gives_asymmetric_square(self):
        model = NormalToleranceModel(epsilon=5.0, delta=0.1)
        measurement = UncertainTimePoint(Point(0.0, 0.0), 0, 0.5, 2.0)
        square = model.tolerance_square(measurement)
        assert square.width > square.height

    def test_noiseless_measurement_gives_plain_square(self):
        model = NormalToleranceModel(epsilon=3.0, delta=0.2)
        measurement = UncertainTimePoint(Point(1.0, 1.0), 0, 0.0, 0.0)
        square = model.tolerance_square(measurement)
        assert square.width == pytest.approx(6.0)
        assert square.height == pytest.approx(6.0)

    def test_square_is_the_scalar_bounds(self):
        model = NormalToleranceModel(epsilon=5.0, delta=0.1)
        measurement = UncertainTimePoint(Point(3.0, -4.0), 0, 0.5, 2.0)
        square = model.tolerance_square(measurement)
        assert square.as_bounds() == model.tolerance_bounds(3.0, -4.0, 0.5, 2.0)

    def test_an_overflowing_bound_raises_the_constructors_error(self):
        """The scalar form refuses a bound exactly where building the
        rectangle would, with the ``Point`` constructor's own message."""
        model = NormalToleranceModel(epsilon=1e308, delta=0.1)
        with pytest.raises(InvalidGeometryError) as scalar:
            model.tolerance_bounds(1.7e308, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidGeometryError) as constructed:
            Rectangle(Point(1.7e308 - 1e308, -1e308), Point(1.7e308 + 1e308, 1e308))
        assert str(scalar.value) == str(constructed.value)
        assert "got (inf, 1e+308)" in str(scalar.value)
