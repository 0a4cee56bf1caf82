"""Experiment runners regenerating every table and figure of the paper's evaluation."""

from repro.experiments.config import (
    PAPER_DEFAULTS,
    PAPER_OBJECT_COUNTS,
    PAPER_TOLERANCES,
    ExperimentScale,
    scaled_simulation_config,
)
from repro.experiments.sweeps import SweepRow
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9, run_figure10
from repro.experiments.ablations import (
    run_communication_ablation,
    run_uncertainty_ablation,
    run_grid_resolution_ablation,
    run_feedback_ablation,
)
from repro.experiments.report import write_experiment_bundle

__all__ = [
    "PAPER_DEFAULTS",
    "PAPER_OBJECT_COUNTS",
    "PAPER_TOLERANCES",
    "ExperimentScale",
    "scaled_simulation_config",
    "SweepRow",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_communication_ablation",
    "run_uncertainty_ablation",
    "run_grid_resolution_ablation",
    "run_feedback_ablation",
    "write_experiment_bundle",
]
