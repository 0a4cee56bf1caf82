#!/usr/bin/env python3
"""Emergency evacuation monitoring scenario from the paper's introduction.

A fire breaks out and residents evacuate along whichever roads are passable.
The authorities track their phones and need the popular escape routes *now*,
with stale information dropping out of a short sliding window, so ambulances
and fire engines can be positioned along the routes people actually use.

The example highlights two aspects of the framework:

* the sliding window — the escape routes used early in the evacuation cool
  down once people stop using them;
* uncertainty-aware filtering — phone positions are noisy, so the clients run
  the (epsilon, delta) variant of RayTrace.

Run it with::

    python examples/evacuation_monitoring.py
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import Trajectory, UncertainTimePoint
from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.analysis.export import paths_to_wkt
from repro.workload.scenarios import evacuation_trajectories

DANGER_ZONE = Point(0.0, 0.0)
TOLERANCE = 30.0
DELTA = 0.1           # allow a 10% failure probability per reported position
SENSOR_SIGMA = 5.0    # metres of GPS noise reported by the handsets
WINDOW = 60           # timestamps: only recent crossings count
EPOCH = 5


def add_sensor_noise(trajectories: Dict[int, Trajectory], seed: int = 3) -> Dict[int, list]:
    """Turn exact trajectories into noisy uncertain measurements."""
    rng = random.Random(seed)
    noisy: Dict[int, list] = {}
    for object_id, trajectory in trajectories.items():
        measurements = []
        for timepoint in trajectory:
            measurements.append(
                UncertainTimePoint(
                    Point(
                        timepoint.x + rng.gauss(0.0, SENSOR_SIGMA),
                        timepoint.y + rng.gauss(0.0, SENSOR_SIGMA),
                    ),
                    timepoint.timestamp,
                    SENSOR_SIGMA,
                    SENSOR_SIGMA,
                )
            )
        noisy[object_id] = measurements
    return noisy


def main() -> None:
    print("Simulating two evacuation waves fleeing the danger zone...")
    # Wave 1 evacuates immediately; wave 2 starts 40 timestamps later and uses
    # different (fresher) escape routes because the fire has spread.
    wave_1 = evacuation_trajectories(
        num_objects=25, danger_zone=DANGER_ZONE, evacuation_radius=2500.0,
        num_escape_routes=3, duration=60, seed=1,
    )
    wave_2_raw = evacuation_trajectories(
        num_objects=25, danger_zone=DANGER_ZONE, evacuation_radius=2500.0,
        num_escape_routes=2, duration=60, seed=2,
    )
    # Shift wave 2 in time and renumber its objects.
    wave_2: Dict[int, Trajectory] = {}
    for object_id, trajectory in wave_2_raw.items():
        shifted = Trajectory(object_id + 1000)
        for timepoint in trajectory:
            shifted.append(type(timepoint)(timepoint.point, timepoint.timestamp + 40))
        wave_2[object_id + 1000] = shifted

    trajectories = {**wave_1, **wave_2}
    measurements = add_sensor_noise(trajectories)

    bounds = Rectangle(Point(-3000.0, -3000.0), Point(3000.0, 3000.0))
    coordinator = Coordinator(CoordinatorConfig(bounds=bounds, window=WINDOW, cells_per_axis=48))
    config = RayTraceConfig(TOLERANCE, DELTA)
    filters: Dict[int, RayTraceFilter] = {}

    end_time = max(m[-1].timestamp for m in measurements.values())
    checkpoints = {40, 70, end_time + 1}
    for timestamp in range(end_time + 2):
        for object_id, stream in measurements.items():
            offset = timestamp - stream[0].timestamp
            if offset < 0 or offset >= len(stream):
                continue
            measurement = stream[offset]
            if object_id not in filters:
                filters[object_id] = RayTraceFilter(object_id, measurement, config)
                continue
            state = filters[object_id].observe(measurement)
            if state is not None:
                coordinator.submit_state(state)
        if timestamp and timestamp % EPOCH == 0:
            for response in coordinator.run_epoch(timestamp).responses:
                follow_up = filters[response.object_id].receive_response(response)
                if follow_up is not None:
                    coordinator.submit_state(follow_up)
        if timestamp in checkpoints:
            top = coordinator.top_k(5)
            print(f"\n[t={timestamp:3d}] hottest escape routes "
                  f"({coordinator.index_size()} paths in the index):")
            for rank, scored in enumerate(top, start=1):
                heading = scored.path.end
                print(
                    f"  {rank}. hotness={scored.hotness:<3d} towards ({heading.x:7.1f}, {heading.y:7.1f})"
                    f"  length={scored.path.length:7.1f}"
                )

    print("\nWKT export of the final hot paths (load into any GIS viewer):")
    final_hot = [(path, hotness) for path, hotness in coordinator.hot_paths() if hotness >= 3]
    for line in paths_to_wkt(final_hot):
        print(" ", line)


if __name__ == "__main__":
    main()
