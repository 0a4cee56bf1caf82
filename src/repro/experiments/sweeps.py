"""Parameter sweeps underlying Figures 7 and 8.

Each sweep runs the full simulation (SinglePath plus the DP baseline on the
same measurement stream) for a list of parameter values and collects one
:class:`SweepRow` per value with exactly the series the paper plots: motion
path index size, top-k score and coordinator processing time, for both
methods where applicable.  :class:`SweepReport` tabulates a sweep's rows.
A point's simulation is reclaimed before the next point starts, so each
point's time per epoch (panel (c)) is measured with no earlier one alive.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentScale, scaled_simulation_config
from repro.simulation.engine import HotPathSimulation

__all__ = ["SweepRow", "SweepReport"]


@dataclass
class SweepRow:
    """One row of a parameter sweep (one simulated configuration)."""

    parameter_name: str
    parameter_value: float
    scaled_num_objects: int
    index_size: float
    dp_index_size: float
    top_k_score: float
    dp_top_k_score: float
    processing_seconds: float
    uplink_messages: int
    naive_messages: int


@dataclass
class SweepReport:
    """Data behind panels (a) and (b) of a sweep figure, and its table."""

    rows: List[SweepRow] = field(default_factory=list)

    #: Each figure sets the swept column's key, its table heading and format.
    key: ClassVar[str]
    heading: ClassVar[str]
    value_format: ClassVar[str]

    @property
    def values(self) -> List[float]:
        return [row.parameter_value for row in self.rows]

    def panel_a(self) -> Dict[str, List[float]]:
        """Index size series: SinglePath vs DP."""
        return {
            self.key: self.values,
            "single_path_index_size": [row.index_size for row in self.rows],
            "dp_index_size": [row.dp_index_size for row in self.rows],
        }

    def panel_b(self) -> Dict[str, List[float]]:
        """Top-k score series: SinglePath vs DP."""
        return {
            self.key: self.values,
            "single_path_score": [row.top_k_score for row in self.rows],
            "dp_score": [row.dp_top_k_score for row in self.rows],
        }

    def format_table(self) -> str:
        """Human-readable table of all three panels."""
        header = (
            f"{self.heading:>12} {'N (run)':>9} {'idx SP':>10} {'idx DP':>10} "
            f"{'score SP':>12} {'score DP':>12} {'time/epoch s':>14}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.parameter_value:{self.value_format}} {row.scaled_num_objects:>9} "
                f"{row.index_size:>10.1f} {row.dp_index_size:>10.1f} "
                f"{row.top_k_score:>12.1f} {row.dp_top_k_score:>12.1f} "
                f"{row.processing_seconds:>14.4f}"
            )
        return "\n".join(lines)


def _sweep(
    parameter_name: str,
    values: Sequence[float],
    scale: Optional[ExperimentScale],
    seed: int,
    **fixed: float,
) -> List[SweepRow]:
    """One simulation per value of ``parameter_name``, the others held at ``fixed``."""
    rows: List[SweepRow] = []
    for value in values:
        # The previous point's simulation is unreachable by now: reclaim it
        # before this point starts, so its garbage is not timed here.
        gc.collect()
        config = scaled_simulation_config(
            scale=scale, seed=seed, run_dp_baseline=True, **{parameter_name: value}, **fixed
        )
        metrics = HotPathSimulation(config).run().metrics
        rows.append(
            SweepRow(
                parameter_name=parameter_name,
                parameter_value=value,
                scaled_num_objects=config.num_objects,
                index_size=metrics.mean_index_size,
                dp_index_size=metrics.mean_dp_index_size,
                top_k_score=metrics.mean_top_k_score,
                dp_top_k_score=metrics.mean_dp_top_k_score,
                processing_seconds=metrics.mean_processing_seconds,
                uplink_messages=metrics.uplink.messages,
                naive_messages=metrics.naive_uplink.messages,
            )
        )
    return rows
