"""Reproduction of *On-Line Discovery of Hot Motion Paths* (EDBT 2008).

The package is organised around the paper's two-tier architecture:

* :mod:`repro.client` — the RayTrace filter executed on every moving object,
  including the (epsilon, delta) uncertainty-aware variant.
* :mod:`repro.coordinator` — the SinglePath discovery strategy, the grid
  index over motion-path endpoints and the sliding-window hotness maintenance.
* :mod:`repro.baselines` — the Douglas-Peucker opening-window variants and the
  relaxed DP hot-segment baseline used as the paper's competitor (the naive
  "send everything" client is a message counter in the simulation engine).
* :mod:`repro.network` / :mod:`repro.workload` — the synthetic road network and
  the network-constrained moving-object workload generator from Section 6.1.
* :mod:`repro.simulation` — the discrete-time simulation engine that wires
  clients and coordinator together and records the evaluation metrics.
* :mod:`repro.experiments` — runners that regenerate every figure of the
  paper's evaluation section.

Quickstart::

    from repro import HotPathSimulation, SimulationConfig

    config = SimulationConfig(num_objects=500, tolerance=10.0)
    sim = HotPathSimulation(config)
    result = sim.run()
    for path in result.top_k_paths(10):
        print(path.path, path.hotness)

Every name below is exported lazily (PEP 562): ``import repro`` loads no
submodule, and ``from repro import X`` imports only the module defining
``X`` — so ``python -m repro serve`` never pays for the simulation and
experiment layers it does not run.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

#: Exported name -> the module defining it.
_EXPORTS = {
    "Point": "repro.core.geometry",
    "Rectangle": "repro.core.geometry",
    "max_distance": "repro.core.geometry",
    "TimePoint": "repro.core.trajectory",
    "UncertainTimePoint": "repro.core.trajectory",
    "Trajectory": "repro.core.trajectory",
    "MotionPath": "repro.core.motion_path",
    "top_k_score": "repro.core.scoring",
    "RayTraceFilter": "repro.client.raytrace",
    "ObjectState": "repro.client.state",
    "NormalToleranceModel": "repro.client.uncertainty",
    "Coordinator": "repro.coordinator.coordinator",
    "SinglePathStrategy": "repro.coordinator.single_path",
    "HotPathSimulation": "repro.simulation.engine",
    "SimulationConfig": "repro.simulation.engine",
    "SimulationResult": "repro.simulation.engine",
    "SyntheticRoadNetworkGenerator": "repro.network.generator",
    "NetworkConfig": "repro.network.generator",
    "MovingObjectWorkload": "repro.workload.moving_objects",
    "WorkloadConfig": "repro.workload.moving_objects",
}

__all__ = [*_EXPORTS, "__version__"]


__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
