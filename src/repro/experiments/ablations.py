"""Ablation studies on the paper's design choices (``repro ablations``).

These go beyond the paper's reported figures but use only machinery the paper
describes.  A1–A3 each sweep the values of a module constant:

* **Communication** (A1) — RayTrace's uplink message volume versus the naive
  always-report client, across tolerance values.  This quantifies the saving
  that motivates the two-tier design (Sections 1 and 3.2).
* **Uncertainty** (A2) — the effect of the (epsilon, delta) model on the
  effective tolerance square and therefore on message volume and index size,
  across delta values.
* **Grid resolution** (A3) — sensitivity of coordinator processing time and
  index behaviour to the grid-index resolution (Section 5.1 leaves the cell
  count as a free parameter).
* **Feedback** (A4) — the coordinator-to-client hints Section 7 sketches as
  future work: one corridor workload replayed through the base protocol and
  through :mod:`repro.extensions.feedback` (hot-vertex hints, FSA snapping),
  comparing index size, hottest-path hotness and message volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.geometry import Point, Rectangle
from repro.client.raytrace import RayTraceConfig
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.experiments.config import ExperimentScale, scaled_simulation_config
from repro.extensions.feedback import FeedbackCoordinator
from repro.simulation.engine import HotPathSimulation
from repro.simulation.metrics import MetricsCollector
from repro.simulation.replay import TrajectoryReplayDriver
from repro.workload.scenarios import waypoint_corridor_trajectories

__all__ = [
    "CommunicationAblationRow",
    "UncertaintyAblationRow",
    "GridResolutionAblationRow",
    "FeedbackAblationRow",
    "COMMUNICATION_TOLERANCES",
    "UNCERTAINTY_DELTAS",
    "GRID_CELL_COUNTS",
    "run_communication_ablation",
    "run_uncertainty_ablation",
    "run_grid_resolution_ablation",
    "run_feedback_ablation",
]

#: Tolerances (metres) of the communication ablation.
COMMUNICATION_TOLERANCES = (2.0, 10.0, 20.0)
#: Values of delta of the uncertainty ablation.
UNCERTAINTY_DELTAS = (0.0, 0.05, 0.2)
#: Grid resolutions (cells per axis) of the grid ablation.
GRID_CELL_COUNTS = (16, 64, 128)

#: The feedback ablation's corridor: four turns, legs 700-900 m long.
FEEDBACK_CORRIDOR = (
    Point(0.0, 0.0),
    Point(900.0, 0.0),
    Point(900.0, 700.0),
    Point(1800.0, 700.0),
    Point(1800.0, 1500.0),
)
FEEDBACK_BOUNDS = Rectangle(Point(-2000.0, -2000.0), Point(4000.0, 4000.0))


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


@dataclass
class FeedbackAblationRow:
    """One protocol variant replayed over the feedback ablation's corridor."""

    variant: str
    index_size: int
    max_hotness: int
    uplink_messages: int
    downlink_bytes: int
    snapped_reports: int


def _metrics(scale: Optional[ExperimentScale], seed: int, **overrides) -> MetricsCollector:
    """Run one scaled simulation and return its metrics."""
    config = scaled_simulation_config(scale=scale, seed=seed, **overrides)
    return HotPathSimulation(config).run().metrics


def run_communication_ablation(
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> List[CommunicationAblationRow]:
    """Compare RayTrace uplink volume against naive reporting across tolerances."""
    rows: List[CommunicationAblationRow] = []
    for tolerance in COMMUNICATION_TOLERANCES:
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
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> List[UncertaintyAblationRow]:
    """Sweep the delta parameter of the uncertainty-aware filter."""
    rows: List[UncertaintyAblationRow] = []
    for delta in UNCERTAINTY_DELTAS:
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
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> List[GridResolutionAblationRow]:
    """Sweep the grid-index resolution at otherwise default parameters."""
    rows: List[GridResolutionAblationRow] = []
    for cells in GRID_CELL_COUNTS:
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


def run_feedback_ablation() -> List[FeedbackAblationRow]:
    """Replay the corridor workload through the base protocol, then with feedback.

    The workload is fixed (20 objects, 120 timestamps, seed 5): neither the
    scale nor the seed of the other ablations applies to it.
    """
    trajectories = waypoint_corridor_trajectories(
        list(FEEDBACK_CORRIDOR), num_objects=20, duration=120, lateral_spread=3.0,
        start_stagger=4, seed=5,
    )
    rows: List[FeedbackAblationRow] = []
    for use_feedback in (False, True):
        config = CoordinatorConfig(bounds=FEEDBACK_BOUNDS, window=2000, cells_per_axis=48)
        # The hint radius must reach the next corridor corner for a hint to
        # help a client that reports again only at that corner.
        coordinator = (
            FeedbackCoordinator(config, hint_radius=1200.0) if use_feedback else Coordinator(config)
        )
        stats = TrajectoryReplayDriver(
            coordinator, RayTraceConfig(15.0), epoch_length=10, use_feedback=use_feedback
        ).replay(trajectories)
        rows.append(
            FeedbackAblationRow(
                variant="feedback" if use_feedback else "base",
                index_size=coordinator.index_size(),
                max_hotness=coordinator.top_k(1)[0].hotness,
                uplink_messages=stats.uplink.messages,
                downlink_bytes=stats.downlink.bytes,
                snapped_reports=stats.snapped_reports,
            )
        )
    return rows
