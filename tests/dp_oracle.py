"""Reference DP baseline: Section 6's competitor transcribed over plain lists, kept as the test oracle.

``repro.baselines.dp_hot`` runs the DP baseline as one opening-window
simplifier per object, a grid index whose end table answers the reuse
query, and a hotness tracker with an expiry queue.  This module is the same
method with none of that:

* each object's opening window is a list of ``(x, y, t)``;
* the live segments are one list of ``(id, start, end)`` in insertion order,
  and each segment's crossings are a list of end timestamps; hotness is the
  length of that list, trimmed to the window ``W`` at each
  :meth:`ReferenceDP.advance` (Section 5.2);
* the reuse query is a scan of every live segment.

Each rule below sits next to the sentence of ``docs/ARCHITECTURE.md`` ("The
DP baseline's rules") that states it, quoted.  ``tests/test_dp_oracle.py``
replays hypothesis streams and a recorded Figure 7 point through it and
compares each closed segment's credited id, the index size after each
``advance_time`` and the final top-k with ``DPHotSegmentTracker``'s.  A
disagreement is a finding about ``src/``, never a reason to edit the oracle
to match.

Nothing under ``src/`` imports this module, and it imports nothing from
``repro.coordinator`` or ``repro.baselines``.
"""

from __future__ import annotations

from math import hypot
from typing import Dict, List, Optional, Tuple

from repro.core.geometry import Point

__all__ = ["ReferenceDP"]

#: One live segment: ``(segment id, start, end)``.
Segment = Tuple[int, Point, Point]

#: One measurement of an opening window: ``(position, timestamp)``.
Measurement = Tuple[Point, int]


class ReferenceDP:
    """The DP baseline's state, one call per measurement and per expiry, over lists."""

    def __init__(self, tolerance: float, window: int) -> None:
        self.tolerance = tolerance
        self.window = window
        #: ``object id -> its opening window``, oldest measurement first.
        self.windows: Dict[int, List[Measurement]] = {}
        #: Live segments in insertion order (ascending id).
        self.segments: List[Segment] = []
        #: ``segment id -> end timestamps`` of its crossings still in the window.
        self.crossings: Dict[int, List[int]] = {}
        self.next_id = 0

    # -- opening-window simplification ---------------------------------------------

    def observe(self, object_id: int, position: Point, timestamp: int) -> Optional[int]:
        """One measurement; the credited segment's id when it closed a segment."""
        # "An object's first measurement opens its window."
        window = self.windows.setdefault(object_id, [])
        if not window:
            window.append((position, timestamp))
            return None

        # "Each later measurement is the floating end of a candidate segment
        # from the window's first measurement, and every measurement after that
        # first one is measured against it: the max-distance to the
        # candidate's position at the measurement's own timestamp (the
        # candidate's start when both ends share a timestamp)."
        start, t_start = window[0]
        span = timestamp - t_start
        distances = []
        for point, t in window[1:]:
            if span == 0:
                at_x, at_y = start.x, start.y
            else:
                fraction = (t - t_start) / span
                at_x = start.x + fraction * (position.x - start.x)
                at_y = start.y + fraction * (position.y - start.y)
            distances.append(max(abs(point.x - at_x), abs(point.y - at_y)))

        # "While no distance exceeds ε the measurement joins the window.
        # Otherwise the segment closes at the worst intermediate measurement,
        # the earliest on a tie (NOPW), and the window restarts there with
        # the measurements after it and the new one."
        if not distances or max(distances) <= self.tolerance:
            window.append((position, timestamp))
            return None
        worst = 1 + distances.index(max(distances))
        end, t_end = window[worst]
        self.windows[object_id] = window[worst:] + [(position, timestamp)]
        return self._register(start, end, t_end)

    # -- segment reuse -------------------------------------------------------------

    def _register(self, start: Point, end: Point, t_end: int) -> int:
        # "A closed segment's query box is the minimum bounding box of its two
        # ends expanded by ε on every side."
        low_x = min(start.x, end.x) - self.tolerance
        low_y = min(start.y, end.y) - self.tolerance
        high_x = max(start.x, end.x) + self.tolerance
        high_y = max(start.y, end.y) + self.tolerance

        def inside(point: Point) -> bool:
            return low_x <= point.x <= high_x and low_y <= point.y <= high_y

        # "A live stored segment qualifies when its own bounding box lies
        # inside the query box, closed bounds: both of its ends do."
        qualifying = [
            segment_id for segment_id, stored_start, stored_end in self.segments
            if inside(stored_start) and inside(stored_end)
        ]

        # "The earliest-inserted qualifying segment is credited; with none,
        # the closed segment is stored under the next id."
        if qualifying:
            credited = qualifying[0]
        else:
            credited = self.next_id
            self.next_id += 1
            self.segments.append((credited, start, end))

        # "Either way the credited segment gets one crossing at the closed
        # segment's end timestamp."
        self.crossings.setdefault(credited, []).append(t_end)
        return credited

    # -- the window (Section 5.2) ----------------------------------------------------

    def advance(self, now: int) -> int:
        """Expire at ``now``; the number of segments deleted."""
        # "A crossing that ended at `t_e` counts towards its segment's
        # hotness until the first `advance_time(now)` with `now >= t_e + W`;
        # a segment whose last crossing leaves the window there is deleted."
        vanished = set()
        for segment_id, ends in list(self.crossings.items()):
            kept = [t_end for t_end in ends if t_end + self.window > now]
            if kept:
                self.crossings[segment_id] = kept
            else:
                del self.crossings[segment_id]
                vanished.add(segment_id)
        self.segments = [segment for segment in self.segments if segment[0] not in vanished]
        return len(vanished)

    def index_size(self) -> int:
        return len(self.segments)

    # -- the top-k -------------------------------------------------------------------

    def top_k(self, k: int) -> List[Tuple[int, Point, Point, int]]:
        """``(id, start, end, hotness)`` of the top-k segments, best first."""
        # "The top-k are the `k` live segments of greatest `(hotness, score,
        # -id)`, where the score is the hotness times the segment's Euclidean
        # length."
        ranked = []
        for segment_id, start, end in self.segments:
            hotness = len(self.crossings[segment_id])
            score = hotness * hypot(start.x - end.x, start.y - end.y)
            ranked.append(((hotness, score, -segment_id), (segment_id, start, end, hotness)))
        ranked.sort(key=lambda item: item[0], reverse=True)
        return [entry for _key, entry in ranked[:k]]
