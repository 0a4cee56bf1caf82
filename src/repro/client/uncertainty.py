"""Uncertainty-aware tolerance intervals (paper Section 4.1).

A location sensor reports the mean and standard deviation of a Gaussian
estimate of the true position.  Given tolerance parameters ``(epsilon,
delta)``, a candidate location ``x'`` is *close* to the measurement when the
true location falls inside ``[x' - epsilon, x' + epsilon]`` with probability at
least ``1 - delta``.  The set of admissible ``x'`` values is an interval
``[l, u]`` centred on the reported mean; it is obtained by solving

    Phi((x' + eps - x) / sigma) - Phi((x' - eps - x) / sigma) = 1 - delta

for the two extreme values of ``x'`` (Equation 2).  The paper recommends a
precomputed lookup table; :class:`NormalToleranceModel` builds one (offsets of
``x' - x`` in units of sigma, indexed by ``epsilon / sigma``) and falls back to
bisection outside its range.

In two dimensions the requirement splits into per-axis conditions with failure
probability ``delta / 2`` each, so the same 1-d machinery applies to x and y
independently and the tolerance *square* becomes the product of the two
intervals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ToleranceError
from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import UncertainTimePoint

__all__ = [
    "standard_normal_cdf",
    "interval_probability",
    "ToleranceInterval",
    "UnsatisfiableTolerancePolicy",
    "NormalToleranceModel",
]


def standard_normal_cdf(z: float) -> float:
    """Cumulative distribution function of the standard normal distribution."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def interval_probability(center_offset: float, epsilon: float, sigma: float) -> float:
    """Probability that ``X ~ N(0, sigma^2)`` lies in ``[offset - eps, offset + eps]``.

    ``center_offset`` is the (signed) distance of the candidate location from
    the reported mean.  With ``sigma == 0`` the measurement is exact and the
    probability degenerates to an indicator.
    """
    if sigma == 0.0:
        return 1.0 if abs(center_offset) <= epsilon else 0.0
    upper = standard_normal_cdf((center_offset + epsilon) / sigma)
    lower = standard_normal_cdf((center_offset - epsilon) / sigma)
    return upper - lower


@dataclass(frozen=True)
class ToleranceInterval:
    """Admissible interval ``[low, high]`` of close locations on one axis."""

    low: float
    high: float


class UnsatisfiableTolerancePolicy(enum.Enum):
    """What to do when Equation 2 has no solution (noise too large for epsilon).

    ``RAISE`` surfaces a :class:`ToleranceError` (the strictest reading of the
    paper).  ``MINIMAL`` is the retroactive fallback the paper suggests: assign
    a predefined minimal tolerance interval centred on the reported mean.
    """

    RAISE = "raise"
    MINIMAL = "minimal"


class NormalToleranceModel:
    """Solver for uncertainty-aware tolerance intervals and squares.

    Parameters
    ----------
    epsilon:
        Spatial tolerance of the motion-path definition.
    delta:
        Maximum allowed failure probability. ``delta == 0`` disables the
        probabilistic model and the tolerance interval is the plain
        ``[x - eps, x + eps]``.
    table_resolution:
        Number of entries in the precomputed lookup table over the offset axis.
    policy:
        Behaviour when the interval is unsatisfiable; see
        :class:`UnsatisfiableTolerancePolicy`.
    minimal_half_width:
        Half width of the fallback interval used by the ``MINIMAL`` policy.
    """

    def __init__(
        self,
        epsilon: float,
        delta: float = 0.0,
        table_resolution: int = 2048,
        policy: UnsatisfiableTolerancePolicy = UnsatisfiableTolerancePolicy.MINIMAL,
        minimal_half_width: Optional[float] = None,
    ) -> None:
        if epsilon <= 0:
            raise ToleranceError(f"epsilon must be positive, got {epsilon}")
        if not 0.0 <= delta < 1.0:
            raise ToleranceError(f"delta must be in [0, 1), got {delta}")
        if table_resolution < 2:
            raise ToleranceError(f"table resolution must be at least 2, got {table_resolution}")
        self.epsilon = epsilon
        self.delta = delta
        self.policy = policy
        self.minimal_half_width = (
            minimal_half_width if minimal_half_width is not None else epsilon * 0.05
        )
        self._table_resolution = table_resolution
        # Per-axis failure budget: the paper splits delta evenly between x and y.
        self._axis_delta = delta / 2.0
        # Lookup tables are keyed by sigma because offsets scale with sigma; we
        # cache the solved half width for recently seen sigmas.
        self._half_width_cache: dict = {}

    # -- one-dimensional interval -------------------------------------------------

    def tolerance_interval(
        self, mean: float, sigma: float, axis_delta: Optional[float] = None
    ) -> ToleranceInterval:
        """Admissible interval of close locations for a 1-d measurement.

        With ``delta == 0`` or ``sigma == 0`` this is simply
        ``[mean - eps, mean + eps]``; otherwise the interval shrinks as the
        noise grows, collapsing to the unsatisfiable case handled per policy.
        """
        delta = self._axis_delta if axis_delta is None else axis_delta
        if delta <= 0.0 or sigma <= 0.0:
            return ToleranceInterval(mean - self.epsilon, mean + self.epsilon)
        half_width = self._solve_half_width(sigma, delta)
        if half_width is None:
            if self.policy is UnsatisfiableTolerancePolicy.RAISE:
                raise ToleranceError(
                    f"no tolerance interval exists for sigma={sigma} with "
                    f"epsilon={self.epsilon}, delta={delta}"
                )
            half_width = self.minimal_half_width
        return ToleranceInterval(mean - half_width, mean + half_width)

    # -- two-dimensional square ------------------------------------------------------

    def tolerance_square(self, measurement: UncertainTimePoint) -> Rectangle:
        """Tolerance rectangle for a 2-d uncertain measurement.

        The per-axis intervals are computed with failure budget ``delta / 2``
        each, following the simplification in Section 4.1, then combined into
        an axis-aligned rectangle.
        """
        interval_x = self.tolerance_interval(measurement.x, measurement.sigma_x)
        interval_y = self.tolerance_interval(measurement.y, measurement.sigma_y)
        return Rectangle(
            Point(interval_x.low, interval_y.low),
            Point(interval_x.high, interval_y.high),
        )

    # -- internals --------------------------------------------------------------------

    def _solve_half_width(self, sigma: float, delta: float) -> Optional[float]:
        """Solve Equation 2 for the half width of the admissible interval.

        The admissible offsets are symmetric around zero, so it suffices to
        find the largest non-negative offset ``d`` with
        ``interval_probability(d, eps, sigma) >= 1 - delta``.  Returns ``None``
        when even ``d = 0`` fails, i.e. the equation has no solution.
        """
        key = (round(sigma, 9), round(delta, 12))
        if key in self._half_width_cache:
            return self._half_width_cache[key]
        target = 1.0 - delta
        if interval_probability(0.0, self.epsilon, sigma) < target:
            self._half_width_cache[key] = None
            return None
        # interval_probability is monotonically decreasing in |offset|, so a
        # bisection over [0, epsilon] finds the boundary offset. Offsets larger
        # than epsilon are impossible: the mean itself would then lie outside
        # [x' - eps, x' + eps] and the mass could not reach 1 - delta for any
        # delta < 1/2; for larger delta the boundary is still found because we
        # extend the bracket until the probability drops below the target.
        low, high = 0.0, self.epsilon
        while interval_probability(high, self.epsilon, sigma) >= target:
            high *= 2.0
            if high > self.epsilon * 1e6:
                break
        for _ in range(60):
            mid = (low + high) / 2.0
            if interval_probability(mid, self.epsilon, sigma) >= target:
                low = mid
            else:
                high = mid
        self._half_width_cache[key] = low
        return low
