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
    zero).  Crossings may be recorded under provisional path ids during a
    parallel commit; :meth:`rename` re-keys them alongside the tracker's
    counters, so a drained log always speaks final ids.  Migration adoption
    (:meth:`HotnessTracker.adopt_count` / ``adopt_event``) is deliberately
    not logged — a rebalance moves counters between shards without changing
    any path's global hotness.
    """

    __slots__ = ("newly_hot", "touched", "decayed", "vanished")

    def __init__(self) -> None:
        self.newly_hot: List[int] = []
        self.touched: List[int] = []
        self.decayed: List[int] = []
        self.vanished: List[int] = []

    def rename(self, mapping: Dict[int, int]) -> None:
        """Re-key provisional path ids after a parallel-commit renumbering."""
        if not mapping:
            return
        for events in (self.newly_hot, self.touched, self.decayed, self.vanished):
            for position, path_id in enumerate(events):
                events[position] = mapping.get(path_id, path_id)

    def ids(self) -> List[int]:
        """Every path id with a logged transition (repeats included)."""
        return self.newly_hot + self.touched + self.decayed + self.vanished

    def merge_from(self, other: "HotnessDeltaLog") -> None:
        """Append another tracker's events (the sharded fleet's union)."""
        self.newly_hot.extend(other.newly_hot)
        self.touched.extend(other.touched)
        self.decayed.extend(other.decayed)
        self.vanished.extend(other.vanished)


class HotnessTracker:
    """Hash table + expiry event queue implementing the sliding window."""

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ConfigurationError(f"window length must be positive, got {window}")
        self.window = window
        self._hotness: Dict[int, int] = {}
        self._events: List[Tuple[int, int]] = []  # (expiry_time, path_id) min-heap
        self._deferred: Optional[List[Tuple[int, int]]] = None
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

    def absorb_delta_log(self, log: HotnessDeltaLog) -> None:
        """Merge another tracker's pending delta-log events into this log.

        Used by the elastic fleet handoff: when a migration replaces the
        shard objects mid-epoch-boundary, the epoch's already-logged hotness
        transitions must survive the trackers that recorded them — the new
        fleet absorbs them so the epoch's delta assembly still sees every
        event.  The delta assembler sorts the merged categories, so the
        interleaving carries no information.
        """
        if self._delta_log is None:
            raise CoordinatorError("hotness delta log was never enabled")
        self._delta_log.merge_from(log)

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
        if self._deferred is not None:
            self._deferred.append((t_end + self.window, path_id))
        else:
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

    # -- deferred recording (parallel epoch commits) ------------------------------

    def begin_deferred(self) -> None:
        """Buffer subsequent crossings' expiry events instead of heap-pushing.

        Opened by the sharded router for the span of a parallel epoch commit:
        crossings may be recorded under provisional path ids that are
        renumbered when the commit finishes, and expiry never runs mid-epoch,
        so the heap pushes can wait for :meth:`flush_deferred`.  Hotness
        counters still update immediately (same-epoch decisions read them).
        """
        self._deferred = []

    def flush_deferred(self, mapping: Dict[int, int]) -> None:
        """Close the deferred span, re-keying provisional ids to final ones.

        ``mapping`` holds the provisional -> final renames of the finished
        commit (see
        :meth:`repro.coordinator.sharding.ShardRouter.finish_parallel_commit`);
        counters and the buffered events are re-keyed in O(renames + buffered)
        — the existing heap is never scanned — and the events are pushed.
        Heap pops drain in sorted ``(expiry, path_id)`` order regardless of
        push order, so deferral is not observable.
        """
        deferred = self._deferred if self._deferred is not None else []
        self._deferred = None
        if self._delta_log is not None:
            self._delta_log.rename(mapping)
        for old_id, new_id in mapping.items():
            if old_id in self._hotness:
                self._hotness[new_id] = self._hotness.pop(old_id)
        for expiry, path_id in deferred:
            heapq.heappush(self._events, (expiry, mapping.get(path_id, path_id)))

    # -- migration (shard rebalancing) ---------------------------------------------

    def export_state(self) -> Tuple[Dict[int, int], List[Tuple[int, int]]]:
        """Hand off all counters and pending expiry events, leaving the tracker empty.

        Used by the shard rebalance protocol: the returned ``(counters,
        events)`` are re-adopted by the migrated paths' new owner trackers
        via :meth:`adopt_count` / :meth:`adopt_event`.  Must not be called
        inside a deferred span (a parallel commit is never open at a
        rebalance point).
        """
        if self._deferred is not None:
            raise CoordinatorError("cannot export hotness state inside a deferred span")
        counters, events = self._hotness, self._events
        self._hotness, self._events = {}, []
        return counters, events

    def adopt_count(self, path_id: int, hotness: int) -> None:
        """Absorb a migrated hotness counter (the path's events follow separately)."""
        if hotness:
            self._hotness[path_id] = self._hotness.get(path_id, 0) + hotness

    def adopt_event(self, expiry: int, path_id: int) -> None:
        """Absorb one migrated expiry event, preserving the heap invariant."""
        heapq.heappush(self._events, (expiry, path_id))

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
