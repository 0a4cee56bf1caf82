"""Experimental parameters (paper Table 2) and the scaling machinery.

The paper's experiments run 10,000 to 100,000 objects for 250 timestamps over
the full Athens network in C++.  The pure-Python reproduction keeps the exact
same parameter *structure* but scales the population, the duration and the
network size down by a configurable factor so the whole benchmark suite runs
on a laptop in minutes.  The scale can be raised via the ``REPRO_SCALE``
environment variable (1.0 reproduces the paper-size runs).

Table 2 (defaults in bold in the paper):

=====================  ==========================================
Parameter              Values
=====================  ==========================================
N                      10000, **20000**, 100000 objects
Tolerance (epsilon)    1, 2, **10**, 20 metres
Positional error       1 metre
Agility (alpha)        0.1
Displacement (s)       10 metres
Window size (W)        100 timestamps
k                      10
=====================  ==========================================

Duration is 250 timestamps and an epoch corresponds to 10 timestamps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.coordinator.fleet import FleetConfig
from repro.network.generator import NetworkConfig
from repro.simulation.engine import SimulationConfig

__all__ = [
    "PAPER_DEFAULTS",
    "PAPER_OBJECT_COUNTS",
    "PAPER_TOLERANCES",
    "DEFAULT_SCALE",
    "ExperimentScale",
    "scaled_simulation_config",
]

#: Default parameter values of Table 2.
PAPER_DEFAULTS: Dict[str, float] = {
    "num_objects": 20000,
    "tolerance": 10.0,
    "positional_error": 1.0,
    "agility": 0.1,
    "displacement": 10.0,
    "window": 100,
    "top_k": 10,
    "duration": 250,
    "epoch_length": 10,
}

#: Object counts swept in Figure 7.
PAPER_OBJECT_COUNTS: List[int] = [10000, 20000, 50000, 100000]

#: Tolerance values swept in Figure 8.
PAPER_TOLERANCES: List[float] = [1.0, 2.0, 10.0, 20.0]

#: Fraction of the paper-scale population used by default in benchmarks.
DEFAULT_SCALE: float = 0.02


@dataclass(frozen=True)
class ExperimentScale:
    """How aggressively to shrink the paper-scale experiments.

    ``population`` scales the object counts, ``duration`` scales the number of
    timestamps (never below three epochs) and ``network_nodes_per_axis`` sizes
    the synthetic network (the paper's Athens graph has ~1125 nodes, i.e. a
    33x33 grid; smaller runs use proportionally smaller grids so object
    density per link stays comparable).
    """

    population: float = DEFAULT_SCALE
    duration: float = 0.5
    network_nodes_per_axis: int = 12

    def __post_init__(self) -> None:
        if self.population <= 0 or self.population > 1.0:
            raise ConfigurationError(
                f"population scale must be in (0, 1], got {self.population}"
            )
        if self.duration <= 0 or self.duration > 1.0:
            raise ConfigurationError(f"duration scale must be in (0, 1], got {self.duration}")
        if self.network_nodes_per_axis < 2:
            raise ConfigurationError(
                f"network_nodes_per_axis must be at least 2, got {self.network_nodes_per_axis}"
            )

    @classmethod
    def from_environment(cls) -> "ExperimentScale":
        """Build a scale from the ``REPRO_SCALE`` environment variable.

        ``REPRO_SCALE=1.0`` reproduces the paper-size experiments;
        unset/empty uses the laptop-friendly default.
        """
        raw = os.environ.get("REPRO_SCALE", "").strip()
        if not raw:
            return cls()
        try:
            population = float(raw)
        except ValueError as exc:
            raise ConfigurationError(f"invalid REPRO_SCALE value: {raw!r}") from exc
        if population >= 1.0:
            return cls(population=1.0, duration=1.0, network_nodes_per_axis=33)
        # Scale the network roughly with the square root of the population so
        # object density per link stays in the same ballpark.
        nodes = max(6, int(33 * (population ** 0.5) * 2))
        return cls(population=population, duration=max(0.2, population * 10), network_nodes_per_axis=min(nodes, 33))

    def scale_objects(self, paper_count: int) -> int:
        return max(20, int(paper_count * self.population))

    def scale_duration(self, paper_duration: int, epoch_length: int) -> int:
        scaled = int(paper_duration * self.duration)
        return max(3 * epoch_length + 1, scaled)


def scaled_simulation_config(
    scale: Optional[ExperimentScale] = None,
    num_objects: Optional[int] = None,
    tolerance: Optional[float] = None,
    delta: float = 0.0,
    run_dp_baseline: bool = True,
    run_naive_baseline: bool = True,
    cells_per_axis: int = 64,
    fleet: FleetConfig = FleetConfig(),
    seed: int = 42,
) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from paper defaults, scaled for Python.

    ``num_objects`` and ``tolerance`` are the *paper-scale* values (e.g. 20000
    and 10.0); the population is scaled down by ``scale`` while tolerance and
    the other physical parameters are kept as-is because they are properties of
    the environment, not of the experiment size.
    """
    scale = scale if scale is not None else ExperimentScale.from_environment()
    paper_objects = num_objects if num_objects is not None else int(PAPER_DEFAULTS["num_objects"])
    epoch_length = int(PAPER_DEFAULTS["epoch_length"])
    network_config = NetworkConfig(
        area_size=16000.0 * (scale.network_nodes_per_axis / 33.0),
        grid_nodes_per_axis=scale.network_nodes_per_axis,
    )
    return SimulationConfig(
        num_objects=scale.scale_objects(paper_objects),
        tolerance=tolerance if tolerance is not None else PAPER_DEFAULTS["tolerance"],
        delta=delta,
        window=int(PAPER_DEFAULTS["window"]),
        epoch_length=epoch_length,
        duration=scale.scale_duration(int(PAPER_DEFAULTS["duration"]), epoch_length),
        agility=PAPER_DEFAULTS["agility"],
        displacement=PAPER_DEFAULTS["displacement"],
        positional_error=PAPER_DEFAULTS["positional_error"],
        top_k=int(PAPER_DEFAULTS["top_k"]),
        cells_per_axis=cells_per_axis,
        fleet=fleet,
        seed=seed,
        run_dp_baseline=run_dp_baseline,
        run_naive_baseline=run_naive_baseline,
        network_config=network_config,
    )
