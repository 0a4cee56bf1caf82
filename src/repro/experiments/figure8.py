"""Figure 8 — varying the tolerance parameter (paper Section 6.2).

Same three panels as Figure 7 but sweeping epsilon in {1, 2, 10, 20} metres at
a fixed population of 20,000 objects.  The expected shape from the paper:
SinglePath stores fewer, hotter and longer paths as epsilon grows, and the
coordinator's processing time drops by more than a factor of three between
epsilon = 2 and epsilon = 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentScale, PAPER_TOLERANCES
from repro.experiments.sweeps import SweepRow, run_tolerance_sweep

__all__ = ["Figure8Report", "run_figure8"]


@dataclass
class Figure8Report:
    """Data behind the three panels of Figure 8."""

    rows: List[SweepRow] = field(default_factory=list)

    @property
    def tolerances(self) -> List[float]:
        return [row.parameter_value for row in self.rows]

    def panel_a(self) -> Dict[str, List[float]]:
        """Index size series: SinglePath vs DP."""
        return {
            "tolerance": self.tolerances,
            "single_path_index_size": [row.index_size for row in self.rows],
            "dp_index_size": [row.dp_index_size for row in self.rows],
        }

    def panel_b(self) -> Dict[str, List[float]]:
        """Top-k score series: SinglePath vs DP."""
        return {
            "tolerance": self.tolerances,
            "single_path_score": [row.top_k_score for row in self.rows],
            "dp_score": [row.dp_top_k_score for row in self.rows],
        }

    def format_table(self) -> str:
        """Human-readable table of all three panels."""
        header = (
            f"{'epsilon (m)':>12} {'N (run)':>9} {'idx SP':>10} {'idx DP':>10} "
            f"{'score SP':>12} {'score DP':>12} {'time/epoch s':>14}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.parameter_value:>12.1f} {row.scaled_num_objects:>9} "
                f"{row.index_size:>10.1f} {row.dp_index_size:>10.1f} "
                f"{row.top_k_score:>12.1f} {row.dp_top_k_score:>12.1f} "
                f"{row.processing_seconds:>14.4f}"
            )
        return "\n".join(lines)


def run_figure8(
    tolerances: Optional[Sequence[float]] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> Figure8Report:
    """Run the Figure 8 sweep (population fixed at the default of 20,000 objects)."""
    values = list(tolerances) if tolerances is not None else PAPER_TOLERANCES
    rows = run_tolerance_sweep(values, scale=scale, num_objects=20000, seed=seed)
    return Figure8Report(rows)
