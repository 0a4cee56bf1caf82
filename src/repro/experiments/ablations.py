"""Ablation studies on the design choices called out in DESIGN.md.

These go beyond the paper's reported figures but use only machinery the paper
describes:

* **Communication** (A1) — RayTrace's uplink message volume versus the naive
  always-report client, across tolerance values.  This quantifies the saving
  that motivates the two-tier design (Sections 1 and 3.2).
* **Uncertainty** (A2) — the effect of the (epsilon, delta) model on the
  effective tolerance square and therefore on message volume and index size,
  across delta values.
* **Grid resolution** (A3) — sensitivity of coordinator processing time and
  index behaviour to the grid-index resolution (Section 5.1 leaves the cell
  count as a free parameter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.config import ExperimentScale, scaled_simulation_config
from repro.simulation.engine import HotPathSimulation
from repro.simulation.metrics import MetricsCollector

__all__ = [
    "CommunicationAblationRow",
    "UncertaintyAblationRow",
    "GridResolutionAblationRow",
    "run_communication_ablation",
    "run_uncertainty_ablation",
    "run_grid_resolution_ablation",
]


@dataclass
class CommunicationAblationRow:
    """Uplink volume of RayTrace versus naive reporting for one tolerance."""

    tolerance: float
    raytrace_messages: int
    raytrace_bytes: int
    naive_messages: int
    naive_bytes: int
    reduction: float


@dataclass
class UncertaintyAblationRow:
    """Effect of the delta parameter on filtering and index size."""

    delta: float
    uplink_messages: int
    mean_index_size: float
    mean_top_k_score: float


@dataclass
class GridResolutionAblationRow:
    """Effect of the grid resolution on coordinator cost."""

    cells_per_axis: int
    mean_processing_seconds: float
    mean_index_size: float
    mean_top_k_score: float


def _metrics(scale: Optional[ExperimentScale], seed: int, **overrides) -> MetricsCollector:
    """Run one scaled simulation and return its metrics."""
    config = scaled_simulation_config(scale=scale, seed=seed, **overrides)
    return HotPathSimulation(config).run().metrics


def run_communication_ablation(
    tolerances: Sequence[float] = (2.0, 10.0, 20.0),
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> List[CommunicationAblationRow]:
    """Compare RayTrace uplink volume against naive reporting across tolerances."""
    rows: List[CommunicationAblationRow] = []
    for tolerance in tolerances:
        metrics = _metrics(scale, seed, tolerance=tolerance)
        rows.append(
            CommunicationAblationRow(
                tolerance=tolerance,
                raytrace_messages=metrics.uplink.messages,
                raytrace_bytes=metrics.uplink.bytes,
                naive_messages=metrics.naive_uplink.messages,
                naive_bytes=metrics.naive_uplink.bytes,
                reduction=metrics.message_reduction_versus_naive(),
            )
        )
    return rows


def run_uncertainty_ablation(
    deltas: Sequence[float] = (0.0, 0.05, 0.2),
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> List[UncertaintyAblationRow]:
    """Sweep the delta parameter of the uncertainty-aware filter."""
    rows: List[UncertaintyAblationRow] = []
    for delta in deltas:
        metrics = _metrics(scale, seed, delta=delta, run_naive_baseline=False)
        rows.append(
            UncertaintyAblationRow(
                delta=delta,
                uplink_messages=metrics.uplink.messages,
                mean_index_size=metrics.mean_index_size,
                mean_top_k_score=metrics.mean_top_k_score,
            )
        )
    return rows


def run_grid_resolution_ablation(
    cell_counts: Sequence[int] = (16, 64, 128),
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> List[GridResolutionAblationRow]:
    """Sweep the grid-index resolution at otherwise default parameters."""
    rows: List[GridResolutionAblationRow] = []
    for cells in cell_counts:
        metrics = _metrics(scale, seed, cells_per_axis=cells, run_naive_baseline=False)
        rows.append(
            GridResolutionAblationRow(
                cells_per_axis=cells,
                mean_processing_seconds=metrics.mean_processing_seconds,
                mean_index_size=metrics.mean_index_size,
                mean_top_k_score=metrics.mean_top_k_score,
            )
        )
    return rows
