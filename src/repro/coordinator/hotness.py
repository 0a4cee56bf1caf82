"""Sliding-window hotness maintenance (paper Section 5.2).

The hotness of a motion path is the number of crossings recorded during the
last ``W`` time units.  The tracker keeps a hash table ``path_id -> hotness``
and a min-heap *event queue* of ``(expiry_time, path_id)`` tuples.  Recording
a crossing that ended at ``t_e`` increments the counter and schedules a
decrement at ``t_e + W``; advancing the clock pops expired events, decrements
the counters and reports the paths whose hotness dropped to zero so the caller
can evict them from the grid index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import ConfigurationError, CoordinatorError

__all__ = ["HotnessDeltaLog", "HotnessTracker"]


class HotnessDeltaLog:
    """Per-epoch event log of one tracker's hotness transitions.

    Feeds :class:`repro.coordinator.delta.EpochDelta`: each crossing lands in
    ``newly_hot`` (hotness ``0 -> 1``) or ``touched`` (``n -> n+1``), each
    expiry in ``decayed`` (counter survived) or ``vanished`` (dropped to
    zero).
    """

    __slots__ = ("newly_hot", "touched", "decayed", "vanished")

    def __init__(self) -> None:
        self.newly_hot: List[int] = []
        self.touched: List[int] = []
        self.decayed: List[int] = []
        self.vanished: List[int] = []

    def ids(self) -> List[int]:
        """Every path id with a logged transition (repeats included)."""
        return self.newly_hot + self.touched + self.decayed + self.vanished


class HotnessTracker:
    """Hash table + expiry event queue implementing the sliding window."""

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ConfigurationError(f"window length must be positive, got {window}")
        self.window = window
        self._hotness: Dict[int, int] = {}
        self._events: List[Tuple[int, int]] = []  # (expiry_time, path_id) min-heap
        self._delta_log: Optional[HotnessDeltaLog] = None

    # -- delta logging (epoch_mode="delta") ----------------------------------------

    def enable_delta_log(self) -> None:
        """Start logging hotness transitions for per-epoch delta assembly."""
        if self._delta_log is None:
            self._delta_log = HotnessDeltaLog()

    def drain_delta_log(self) -> HotnessDeltaLog:
        """Return the events logged since the last drain and start a fresh log."""
        if self._delta_log is None:
            raise CoordinatorError("hotness delta log was never enabled")
        drained = self._delta_log
        self._delta_log = HotnessDeltaLog()
        return drained

    def pending_delta_ids(self) -> List[int]:
        """Ids with transitions logged since the last drain, left in the log.

        Empty right after ``run_epoch`` (delta assembly drains); the query
        view reads it to see crossings recorded directly between epochs.
        """
        if self._delta_log is None:
            raise CoordinatorError("hotness delta log was never enabled")
        return self._delta_log.ids()

    # -- recording --------------------------------------------------------------

    def record_crossing(self, path_id: int, t_end: int) -> int:
        """Record that an object finished crossing ``path_id`` at time ``t_end``.

        Returns the updated hotness of the path.
        """
        new_hotness = self._hotness.get(path_id, 0) + 1
        self._hotness[path_id] = new_hotness
        if self._delta_log is not None:
            if new_hotness == 1:
                self._delta_log.newly_hot.append(path_id)
            else:
                self._delta_log.touched.append(path_id)
        heapq.heappush(self._events, (t_end + self.window, path_id))
        return new_hotness

    # -- expiry -------------------------------------------------------------------

    def advance_time(self, now: int) -> List[int]:
        """Expire crossings whose interval fell outside the window at time ``now``.

        Returns the ids of paths whose hotness reached zero (and were removed
        from the hash table); the caller is responsible for deleting them from
        the spatial index.
        """
        vanished: List[int] = []
        while self._events and self._events[0][0] <= now:
            _expiry, path_id = heapq.heappop(self._events)
            current = self._hotness.get(path_id)
            if current is None:
                raise CoordinatorError(
                    f"expiry event for path {path_id} which has no hotness entry"
                )
            if current <= 1:
                del self._hotness[path_id]
                vanished.append(path_id)
                if self._delta_log is not None:
                    self._delta_log.vanished.append(path_id)
            else:
                self._hotness[path_id] = current - 1
                if self._delta_log is not None:
                    self._delta_log.decayed.append(path_id)
        return vanished

    # -- queries -------------------------------------------------------------------

    def hotness(self, path_id: int) -> int:
        """Current hotness of ``path_id`` (zero when unknown)."""
        return self._hotness.get(path_id, 0)

    def __contains__(self, path_id: int) -> bool:
        return path_id in self._hotness

    def __len__(self) -> int:
        """Number of paths with non-zero hotness."""
        return len(self._hotness)

    @property
    def pending_events(self) -> int:
        """Number of scheduled expiry events (one per recorded crossing)."""
        return len(self._events)

    def items(self) -> Iterable[Tuple[int, int]]:
        """Iterate over ``(path_id, hotness)`` pairs."""
        return self._hotness.items()

    def total_crossings(self) -> int:
        """Sum of hotness over all live paths."""
        return sum(self._hotness.values())
