"""Figure 8 — varying the tolerance parameter (paper Section 6.2).

Same three panels as Figure 7 but sweeping epsilon in {1, 2, 10, 20} metres at
a fixed population of 20,000 objects.  The expected shape from the paper:
SinglePath stores fewer, hotter and longer paths as epsilon grows, and the
coordinator's processing time drops by more than a factor of three between
epsilon = 2 and epsilon = 20.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import PAPER_TOLERANCES, ExperimentScale
from repro.experiments.sweeps import SweepReport, _sweep

__all__ = ["Figure8Report", "run_figure8"]


class Figure8Report(SweepReport):
    """Data behind the three panels of Figure 8."""

    heading = "epsilon (m)"
    value_format = ">12.1f"


def run_figure8(
    tolerances: Optional[Sequence[float]] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> Figure8Report:
    """Run the Figure 8 sweep (population fixed at the default of 20,000 objects)."""
    values = tolerances if tolerances is not None else PAPER_TOLERANCES
    return Figure8Report(_sweep("tolerance", values, scale, seed, num_objects=20000))
