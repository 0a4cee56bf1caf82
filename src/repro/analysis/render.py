"""ASCII rendering of discovered motion paths (stand-in for Figures 9 and 10).

The paper's Figures 9 and 10 draw the discovered motion paths over the Athens
road network, with hotter paths drawn thicker.  The renderer here rasterises
paths onto a character grid, mapping accumulated hotness per cell to a density
ramp, so a terminal (or the benchmark log) shows the same qualitative picture:
the discovered paths trace out the arterial structure of the underlying
network even though the algorithms never see the network itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.network.road_network import RoadNetwork

__all__ = ["AsciiMapRenderer", "render_hot_paths"]

HotPath = Tuple[MotionPath, int]

# Density ramp from cold to hot.
_DENSITY_RAMP = " .:-=+*#%@"


@dataclass
class AsciiMapRenderer:
    """Rasterises segments onto a fixed-size character grid."""

    bounds: Rectangle
    width: int = 80
    height: int = 40

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("renderer dimensions must be positive")
        if self.bounds.width <= 0 or self.bounds.height <= 0:
            raise ConfigurationError("renderer bounds must have positive area")

    def render_paths(self, hot_paths: Iterable[HotPath]) -> str:
        """Render hot paths; cell brightness is proportional to accumulated hotness."""
        weights = self._blank()
        for path, hotness in hot_paths:
            self._rasterise(weights, path.start, path.end, max(hotness, 1))
        return self._to_text(weights)

    def render_network(self, network: RoadNetwork) -> str:
        """Render the ground-truth road network (for side-by-side comparison)."""
        weights = self._blank()
        for link in network.links():
            start = network.node(link.source).location
            end = network.node(link.target).location
            self._rasterise(weights, start, end, link.weight)
        return self._to_text(weights)

    # -- internals --------------------------------------------------------------

    def _blank(self) -> List[List[float]]:
        return [[0.0 for _ in range(self.width)] for _ in range(self.height)]

    def _cell_of(self, point: Point) -> Optional[Tuple[int, int]]:
        if not self.bounds.contains_point(point):
            return None
        col = int((point.x - self.bounds.low.x) / self.bounds.width * (self.width - 1))
        row = int((point.y - self.bounds.low.y) / self.bounds.height * (self.height - 1))
        return (row, col)

    def _rasterise(self, weights: List[List[float]], start: Point, end: Point, weight: float) -> None:
        """Accumulate ``weight`` along the segment using dense sampling."""
        length = start.euclidean_distance_to(end)
        cell_size = min(
            self.bounds.width / self.width, self.bounds.height / self.height
        )
        samples = max(2, int(length / max(cell_size, 1e-9)) * 2)
        last_cell: Optional[Tuple[int, int]] = None
        for index in range(samples + 1):
            fraction = index / samples
            point = Point(
                start.x + fraction * (end.x - start.x),
                start.y + fraction * (end.y - start.y),
            )
            cell = self._cell_of(point)
            if cell is None or cell == last_cell:
                continue
            row, col = cell
            weights[row][col] += weight
            last_cell = cell

    def _to_text(self, weights: List[List[float]]) -> str:
        peak = max((value for row in weights for value in row), default=0.0)
        if peak == 0.0:
            return "\n".join(" " * self.width for _ in range(self.height))
        lines: List[str] = []
        # Row 0 corresponds to the lowest y; render top-down so north is up.
        for row in reversed(weights):
            characters = []
            for value in row:
                level = int(value / peak * (len(_DENSITY_RAMP) - 1))
                characters.append(_DENSITY_RAMP[level])
            lines.append("".join(characters))
        return "\n".join(lines)


def render_hot_paths(
    hot_paths: Sequence[HotPath],
    bounds: Rectangle,
    width: int = 80,
    height: int = 40,
) -> str:
    """Convenience wrapper: render ``hot_paths`` over ``bounds`` at the given size."""
    renderer = AsciiMapRenderer(bounds, width, height)
    return renderer.render_paths(hot_paths)
