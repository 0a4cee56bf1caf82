#!/usr/bin/env python3
"""Targeted advertising scenario from the paper's introduction.

A sporting event draws subscribers towards a venue; most of them approach it
along a handful of corridors (ring roads, metro exits, main avenues).  The
mobile-phone carrier wants to know, on-line, which approach corridors are hot
right now so a partner store next to one of them can push a promotion to
passers-by.

The example replays the converging-crowd trajectories through the full
RayTrace + SinglePath protocol (``TrajectoryReplayDriver``, no simulation
engine) and then ranks the discovered motion paths by how close they are to
the advertised store.

Run it with::

    python examples/targeted_advertising.py
"""

from __future__ import annotations

from repro.core.geometry import Point, Rectangle
from repro.client.raytrace import RayTraceConfig
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.analysis.render import render_hot_paths
from repro.simulation.replay import TrajectoryReplayDriver
from repro.workload.scenarios import converging_event_trajectories

VENUE = Point(0.0, 0.0)
STORE = Point(450.0, 80.0)   # a kiosk just off the eastern approach corridor
TOLERANCE = 25.0
EPOCH = 5


def main() -> None:
    print("Simulating 60 subscribers converging on the stadium along 4 corridors...")
    trajectories = converging_event_trajectories(
        num_objects=60,
        venue=VENUE,
        spawn_radius=2000.0,
        duration=80,
        num_corridors=4,
        seed=11,
    )

    bounds = Rectangle(Point(-2500.0, -2500.0), Point(2500.0, 2500.0))
    coordinator = Coordinator(CoordinatorConfig(bounds=bounds, window=500, cells_per_axis=48))
    driver = TrajectoryReplayDriver(coordinator, RayTraceConfig(TOLERANCE), epoch_length=EPOCH)
    driver.replay(trajectories)

    hot_paths = coordinator.hot_paths()
    print(f"\nDiscovered {len(hot_paths)} motion paths; top-10 by hotness:")
    for rank, scored in enumerate(coordinator.top_k(10), start=1):
        midpoint = scored.path.start.midpoint(scored.path.end)
        print(
            f"  {rank:2d}. hotness={scored.hotness:<3d} length={scored.path.length:7.1f} "
            f"midpoint=({midpoint.x:8.1f}, {midpoint.y:8.1f})"
        )

    # Which hot paths pass near the advertised store?
    near_store = [
        (path, hotness)
        for path, hotness in hot_paths
        if hotness >= 2
        and min(
            path.start.euclidean_distance_to(STORE),
            path.end.euclidean_distance_to(STORE),
            path.point_at(0.5).euclidean_distance_to(STORE),
        )
        <= 300.0
    ]
    audience = sum(hotness for _, hotness in near_store)
    print(f"\nHot paths within 300 m of the store at ({STORE.x:.0f}, {STORE.y:.0f}): {len(near_store)}")
    print(f"Estimated promotion audience (sum of hotness): {audience}")

    print("\nDensity map of the discovered approach corridors (venue at the centre):")
    print(render_hot_paths(hot_paths, bounds, width=72, height=30))


if __name__ == "__main__":
    main()
