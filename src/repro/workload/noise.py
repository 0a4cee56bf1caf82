"""Positional noise models for the workload generator.

The paper's generator adds *white noise* to object locations: a value chosen
uniformly at random in ``[-err, err]`` is added independently to each
coordinate; the sensor then reports the standard deviation of that noise
along with each measurement when the uncertainty-aware filter is exercised.
``MovingObjectWorkload.step`` draws the noise itself, as ``uniform(-err, err)``
per coordinate, x first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.errors import ConfigurationError

__all__ = ["UniformNoiseModel"]


@dataclass(frozen=True)
class UniformNoiseModel:
    """White noise uniform in ``[-err, err]`` on each coordinate (the paper's model)."""

    err: float

    def __post_init__(self) -> None:
        if self.err < 0:
            raise ConfigurationError(f"err must be non-negative, got {self.err}")

    def reported_sigma(self) -> Tuple[float, float]:
        # Standard deviation of U(-err, err) is err / sqrt(3); a sensor
        # characterised by this model would report that figure.
        sigma = self.err / (3.0 ** 0.5)
        return (sigma, sigma)
