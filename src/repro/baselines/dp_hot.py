"""The DP hot-segment baseline used as the paper's competitor (Section 6).

The method combines the opening-window Douglas-Peucker simplifier with a
segment-reuse policy: whenever a new segment is about to be created between a
starting point and the chosen floating point, the tracker first checks whether
an existing segment (produced earlier, possibly by another object) falls
completely within the candidate segment's minimum bounding box expanded by the
tolerance.  If so, the earliest-inserted such segment's hotness is increased
instead of storing a new one; otherwise the candidate segment is stored with
hotness 1.  ``docs/ARCHITECTURE.md`` ("The DP baseline's rules") states each
rule, and ``tests/dp_oracle.py`` transcribes them.

Time is ignored when matching (the paper relaxes the requirements for DP so
that its hotness upper-bounds what proper motion paths can achieve), but the
sliding window still applies to hotness: each reuse/insertion schedules an
expiry ``W`` time units after the segment was crossed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Rectangle
from repro.core.motion_path import MotionPath
from repro.core.scoring import ScoredPath, select_top_k, top_k_score
from repro.core.trajectory import TimePoint
from repro.coordinator.grid_index import GridConfig, GridIndex
from repro.coordinator.hotness import HotnessTracker
from repro.baselines.opening_window import OpeningWindowSegment, OpeningWindowSimplifier

__all__ = ["DPHotSegmentTracker"]


class DPHotSegmentTracker:
    """Coordinator-side tracker for the DP baseline.

    One :class:`OpeningWindowSimplifier` is kept per object; segments they emit
    are matched against the stored segments via the expanded-MBB containment
    rule and either reused (hotness + 1) or inserted (hotness 1).
    """

    def __init__(
        self,
        bounds: Rectangle,
        tolerance: float,
        window: int = 100,
    ) -> None:
        if tolerance <= 0:
            raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
        self.tolerance = tolerance
        # Only the end table's region query is read, so the grid resolution
        # changes nothing.
        self.index = GridIndex(GridConfig(bounds), kernel="columnar")
        self.hotness = HotnessTracker(window)
        self._simplifiers: Dict[int, OpeningWindowSimplifier] = {}

    # -- streaming interface ---------------------------------------------------------

    def observe(self, object_id: int, timepoint: TimePoint) -> Optional[int]:
        """Feed one measurement of ``object_id`` (an :class:`UncertainTimePoint`'s
        sigmas are ignored: the baseline reads the position and timestamp only).

        Returns the id of the segment that was credited (reused or newly
        stored) when the measurement closed a segment, otherwise ``None``.
        """
        simplifier = self._simplifiers.get(object_id)
        if simplifier is None:
            simplifier = OpeningWindowSimplifier(self.tolerance)
            self._simplifiers[object_id] = simplifier
        closed = simplifier.observe(timepoint)
        if closed is None:
            return None
        return self._register_segment(closed)

    def advance_time(self, now: int) -> int:
        """Expire segments whose crossings fell outside the window; return how many vanished."""
        vanished = self.hotness.advance_time(now)
        self.index.delete_live(vanished)
        return len(vanished)

    # -- segment registration ------------------------------------------------------------

    def _register_segment(self, segment: OpeningWindowSegment) -> int:
        """Credit the earliest-inserted live segment lying inside the
        candidate's MBB expanded by the tolerance (closed bounds), else
        insert the candidate.  Both ends of such a segment lie in the box, so
        the box's end vertices hold every one of them."""
        start, end = segment.start.point, segment.end.point
        query_box = Rectangle.bounding(start, end, self.tolerance)
        paths, inside = self.index.by_id, query_box.contains_point
        path_id = min(
            (
                path_id
                for _vertex, path_ids in self.index.end_vertices_in(query_box).values()
                for path_id in path_ids
                if inside(paths[path_id].start)
            ),
            default=None,
        )
        if path_id is None:
            path_id = self.index.insert(start, end, created_at=segment.end.timestamp).path_id
        self.hotness.record_crossing(path_id, segment.end.timestamp)
        return path_id

    # -- reporting -------------------------------------------------------------------------

    def index_size(self) -> int:
        """Number of distinct segments currently stored."""
        return len(self.index)

    def hot_segments(self) -> List[Tuple[MotionPath, int]]:
        """All stored segments with non-zero hotness."""
        results: List[Tuple[MotionPath, int]] = []
        for path_id, hotness in self.hotness.items():
            if path_id in self.index:
                results.append((self.index.get(path_id), hotness))
        return results

    def top_k(self, k: int, by_score: bool = False) -> List[ScoredPath]:
        """Top-k hottest segments."""
        return select_top_k(self.hot_segments(), k, by_score=by_score)

    def top_k_score(self, k: int) -> float:
        """Average score of the current top-k segments."""
        return top_k_score(self.top_k(k))
