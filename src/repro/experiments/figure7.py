"""Figure 7 — varying the number of objects (paper Section 6.2).

Three panels share the same sweep (N in {10k, 20k, 50k, 100k}, epsilon = 10):

* 7(a) motion paths stored in the index, SinglePath vs DP;
* 7(b) score of the top-10 hottest motion paths, SinglePath vs DP;
* 7(c) coordinator processing time per epoch for SinglePath.

:func:`run_figure7` executes the sweep and returns a report object whose
``format_table`` method prints the three series side by side the way the
figure's data would be tabulated.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import PAPER_OBJECT_COUNTS, ExperimentScale
from repro.experiments.sweeps import SweepReport, _sweep

__all__ = ["Figure7Report", "run_figure7"]


class Figure7Report(SweepReport):
    """Data behind the three panels of Figure 7."""

    heading = "N (paper)"
    value_format = ">12.0f"


def run_figure7(
    object_counts: Optional[Sequence[int]] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> Figure7Report:
    """Run the Figure 7 sweep (tolerance fixed at the default of 10 metres)."""
    counts = object_counts if object_counts is not None else PAPER_OBJECT_COUNTS
    return Figure7Report(_sweep("num_objects", counts, scale, seed, tolerance=10.0))
