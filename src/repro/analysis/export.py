"""Export discovered motion paths to CSV and WKT.

Figures 9 and 10 of the paper are maps of the discovered motion paths drawn
over the road network.  The reproduction cannot ship a plotting stack, so the
equivalent artefacts are (a) ASCII density maps (:mod:`repro.analysis.render`)
and (b) machine-readable exports produced here, which any GIS tool can load to
recreate the figures exactly (each path becomes a ``LINESTRING`` with its
hotness as an attribute).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple, Union

from repro.core.motion_path import MotionPath

__all__ = ["paths_to_csv", "paths_to_wkt", "write_csv"]

HotPath = Tuple[MotionPath, int]


def paths_to_csv(hot_paths: Iterable[HotPath]) -> str:
    """Serialise ``(stored path, hotness)`` pairs to CSV text.

    Columns: path id, start x/y, end x/y, Euclidean length, hotness and score.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["path_id", "start_x", "start_y", "end_x", "end_y", "length", "hotness", "score"]
    )
    for path, hotness in hot_paths:
        writer.writerow(
            [
                path.path_id,
                f"{path.start.x:.3f}",
                f"{path.start.y:.3f}",
                f"{path.end.x:.3f}",
                f"{path.end.y:.3f}",
                f"{path.length:.3f}",
                hotness,
                f"{hotness * path.length:.3f}",
            ]
        )
    return buffer.getvalue()


def paths_to_wkt(hot_paths: Iterable[HotPath]) -> List[str]:
    """Serialise each hot path to a WKT ``LINESTRING`` annotated with its hotness.

    The returned strings have the form ``LINESTRING (x1 y1, x2 y2);hotness=h``
    so they can be bulk-loaded or simply eyeballed.
    """
    lines: List[str] = []
    for path, hotness in hot_paths:
        start, end = path.start, path.end
        lines.append(
            f"LINESTRING ({start.x:.3f} {start.y:.3f}, {end.x:.3f} {end.y:.3f});hotness={hotness}"
        )
    return lines


def write_csv(hot_paths: Iterable[HotPath], destination: Union[str, Path]) -> Path:
    """Write the CSV export to ``destination`` and return the path written."""
    destination = Path(destination)
    destination.write_text(paths_to_csv(hot_paths))
    return destination
