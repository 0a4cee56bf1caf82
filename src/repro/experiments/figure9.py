"""Figures 9 and 10 — qualitative maps of the discovered motion paths.

Figure 9 draws every motion path with non-zero hotness inside the sliding
window; the discovered set closely resembles the (hidden) road network.
Figure 10 zooms into the centre of the monitored area and draws the top-20
hottest motion paths.  The reproduction renders both as ASCII density maps and
also exposes the raw hot-path sets (and CSV/WKT exports) so the figures can be
redrawn with any plotting tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPathRecord
from repro.analysis.render import AsciiMapRenderer
from repro.experiments.config import ExperimentScale, scaled_simulation_config
from repro.simulation.engine import HotPathSimulation, SimulationResult

__all__ = ["NetworkDiscoveryReport", "run_figure9", "run_figure10"]

HotPath = Tuple[MotionPathRecord, int]


@dataclass
class NetworkDiscoveryReport:
    """Discovered hot paths plus renderings of the map they trace out."""

    result: SimulationResult
    hot_paths: List[HotPath]
    bounds: Rectangle
    discovered_map: str
    network_map: str

    def coverage_fraction(self) -> float:
        """Fraction of the ground-truth map cells also lit by discovered paths.

        A cheap quantitative proxy for "the discovered paths resemble the
        network": both maps are rendered on the same grid and the fraction of
        network cells that are also non-blank in the discovery map is
        reported.
        """
        network_cells = 0
        shared_cells = 0
        for network_row, discovered_row in zip(
            self.network_map.splitlines(), self.discovered_map.splitlines()
        ):
            for network_char, discovered_char in zip(network_row, discovered_row):
                if network_char != " ":
                    network_cells += 1
                    if discovered_char != " ":
                        shared_cells += 1
        if network_cells == 0:
            return 0.0
        return shared_cells / network_cells


def run_figure9(
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
    map_width: int = 80,
    map_height: int = 40,
) -> NetworkDiscoveryReport:
    """Reproduce Figure 9: all motion paths with hotness > 0 within the window."""
    config = scaled_simulation_config(scale=scale, seed=seed, run_naive_baseline=False)
    result = HotPathSimulation(config).run()
    hot_paths = result.hot_paths()
    bounds = result.network.bounding_box(padding=config.tolerance)
    renderer = AsciiMapRenderer(bounds, map_width, map_height)
    return NetworkDiscoveryReport(
        result=result,
        hot_paths=hot_paths,
        bounds=bounds,
        discovered_map=renderer.render_paths(hot_paths),
        network_map=renderer.render_network(result.network),
    )


def run_figure10(
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
    k: int = 20,
    map_width: int = 60,
    map_height: int = 30,
) -> NetworkDiscoveryReport:
    """Reproduce Figure 10: the top-k hottest motion paths in the centre of the area.

    The centre is the central half of the monitored area along each axis,
    mirroring the paper's zoom on the centre of Athens.
    """
    config = scaled_simulation_config(scale=scale, seed=seed, run_naive_baseline=False)
    result = HotPathSimulation(config).run()

    full_bounds = result.network.bounding_box(padding=config.tolerance)
    margin_x = full_bounds.width / 4.0
    margin_y = full_bounds.height / 4.0
    centre = Rectangle(
        Point(full_bounds.low.x + margin_x, full_bounds.low.y + margin_y),
        Point(full_bounds.high.x - margin_x, full_bounds.high.y - margin_y),
    )

    central_paths = [
        (record, hotness)
        for record, hotness in result.hot_paths()
        if centre.contains_point(record.path.start) or centre.contains_point(record.path.end)
    ]
    central_paths.sort(key=lambda item: item[1], reverse=True)
    top = central_paths[:k]

    renderer = AsciiMapRenderer(centre, map_width, map_height)
    return NetworkDiscoveryReport(
        result=result,
        hot_paths=top,
        bounds=centre,
        discovered_map=renderer.render_paths(top),
        network_map=renderer.render_network(result.network),
    )
