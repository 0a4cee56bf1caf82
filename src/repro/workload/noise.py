"""Positional noise models for the workload generator.

The paper's generator adds *white noise* to object locations: a value chosen
uniformly at random in ``[-err, err]`` is added independently to each
coordinate; the sensor then reports the standard deviation of that noise
along with each measurement when the uncertainty-aware filter is exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Protocol, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point

__all__ = ["NoiseModel", "UniformNoiseModel"]


class NoiseModel(Protocol):
    """Protocol of a positional noise model."""

    def perturb(self, point: Point, rng: random.Random) -> Point:
        """Return the measured (noisy) position for a true position."""
        ...

    def reported_sigma(self) -> Tuple[float, float]:
        """Per-axis standard deviation the sensor would report (0 when noiseless)."""
        ...


@dataclass(frozen=True)
class UniformNoiseModel:
    """White noise uniform in ``[-err, err]`` on each coordinate (the paper's model)."""

    err: float

    def __post_init__(self) -> None:
        if self.err < 0:
            raise ConfigurationError(f"err must be non-negative, got {self.err}")

    def perturb(self, point: Point, rng: random.Random) -> Point:
        if self.err == 0.0:
            return point
        return Point(
            point.x + rng.uniform(-self.err, self.err),
            point.y + rng.uniform(-self.err, self.err),
        )

    def reported_sigma(self) -> Tuple[float, float]:
        # Standard deviation of U(-err, err) is err / sqrt(3); a sensor
        # characterised by this model would report that figure.
        sigma = self.err / (3.0 ** 0.5)
        return (sigma, sigma)
