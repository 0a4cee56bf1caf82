"""Analysis utilities: exporting and rendering discovered motion paths."""

from repro.analysis.export import paths_to_csv, paths_to_wkt, write_csv
from repro.analysis.render import AsciiMapRenderer, render_hot_paths
from repro.analysis.statistics import (
    DistributionSummary,
    HotPathStatistics,
    hot_path_statistics,
    summarise_distribution,
)

__all__ = [
    "paths_to_csv",
    "paths_to_wkt",
    "write_csv",
    "AsciiMapRenderer",
    "render_hot_paths",
    "DistributionSummary",
    "HotPathStatistics",
    "hot_path_statistics",
    "summarise_distribution",
]
