"""The DP hot-segment baseline used as the paper's competitor (Section 6).

The method combines the opening-window Douglas-Peucker simplifier with a
segment-reuse policy: whenever a new segment is about to be created between a
starting point and the chosen floating point, the tracker first checks whether
an existing segment (produced earlier, possibly by another object) falls
completely within the candidate segment's minimum bounding box expanded by the
tolerance.  If so, the existing segment's hotness is increased instead of
storing a new one; otherwise the candidate segment is stored with hotness 1.

Time is ignored when matching (the paper relaxes the requirements for DP so
that its hotness upper-bounds what proper motion paths can achieve), but the
sliding window still applies to hotness: each reuse/insertion schedules an
expiry ``W`` time units after the segment was crossed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.geometry import Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
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
        cells_per_axis: int = 64,
    ) -> None:
        if tolerance <= 0:
            raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
        self.tolerance = tolerance
        self.index = GridIndex(GridConfig(bounds, cells_per_axis))
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
        """Reuse an existing stored segment or insert the new one (MBB containment rule)."""
        candidate = MotionPath(segment.start.point, segment.end.point)
        query_box = candidate.bounding_box(padding=self.tolerance)
        reused_id: Optional[int] = None
        for record in self.index.paths_intersecting(query_box):
            stored_box = Rectangle.bounding(record.path.start, record.path.end)
            if query_box.contains_rectangle(stored_box):
                reused_id = record.path_id
                break
        if reused_id is not None:
            self.hotness.record_crossing(reused_id, segment.end.timestamp)
            return reused_id
        record = self.index.insert(candidate, created_at=segment.end.timestamp)
        self.hotness.record_crossing(record.path_id, segment.end.timestamp)
        return record.path_id

    # -- reporting -------------------------------------------------------------------------

    def index_size(self) -> int:
        """Number of distinct segments currently stored."""
        return len(self.index)

    def hot_segments(self) -> List[Tuple[MotionPathRecord, int]]:
        """All stored segments with non-zero hotness."""
        results: List[Tuple[MotionPathRecord, int]] = []
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
