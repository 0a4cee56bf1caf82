"""Motion paths, crossings and covering motion path sets (paper Section 3.1).

A *motion path* is a directed segment ``start -> end`` on the xy plane.  An
object *crosses* it over a time interval ``[t_start, t_end]`` when, for every
intermediate fraction lambda, the interpolated point on the segment is within
tolerance epsilon of the object's interpolated location at the corresponding
time.  The coordinator stores one :class:`MotionPathRecord` per discovered
path, tracking its identity and geometry; hotness is maintained separately by
:mod:`repro.coordinator.hotness`.

A *covering motion path set* for an object is a chain of (path, interval)
pairs whose intervals tile the object's lifetime and whose geometry is
connected: each path starts where the previous one ended.  RayTrace together
with SinglePath construct such a covering set implicitly; the class here exists
mainly so tests and analyses can verify the invariant explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import InvalidGeometryError, InvalidTrajectoryError
from repro.core.geometry import Point, Rectangle, interpolate_point, segment_length
from repro.core.trajectory import Trajectory

__all__ = ["MotionPath", "PathCrossing", "MotionPathRecord", "CoveringMotionPathSet"]


@dataclass(frozen=True)
class MotionPath:
    """A directed segment ``start -> end`` on the xy plane."""

    start: Point
    end: Point

    @cached_property
    def length(self) -> float:
        """Euclidean length of the segment (used by the score metric).

        Cached in the instance ``__dict__``: not a field, so ``repr``,
        equality and hash are unchanged.
        """
        return segment_length(self.start, self.end)

    def point_at(self, fraction: float) -> Point:
        """Point ``start + fraction * (end - start)`` for ``fraction`` in [0, 1]."""
        return interpolate_point(self.start, self.end, fraction)

    def reversed(self) -> "MotionPath":
        """The same segment travelled in the opposite direction."""
        return MotionPath(self.end, self.start)

    def bounding_box(self, padding: float = 0.0) -> Rectangle:
        """Minimum bounding rectangle of the segment, expanded by ``padding``."""
        return Rectangle.bounding(self.start, self.end, padding)

    def fits(self, trajectory: Trajectory, t_start: int, t_end: int, tolerance: float) -> bool:
        """Check whether ``trajectory`` crosses this path during ``[t_start, t_end]``.

        The check samples every discrete timestamp in the interval (time is
        discrete in the paper's model) and verifies max-distance proximity of
        the time-aligned point on the segment to the interpolated object
        location.
        """
        if t_start > t_end:
            raise InvalidTrajectoryError(f"invalid crossing interval [{t_start}, {t_end}]")
        if not trajectory.covers_time(t_start) or not trajectory.covers_time(t_end):
            return False
        span = t_end - t_start
        for timestamp in range(t_start, t_end + 1):
            fraction = 0.0 if span == 0 else (timestamp - t_start) / span
            path_point = self.point_at(fraction)
            object_point = trajectory.location_at(timestamp)
            if path_point.max_distance_to(object_point) > tolerance:
                return False
        return True


@dataclass(frozen=True)
class PathCrossing:
    """A motion path paired with the time interval during which it was crossed."""

    path: MotionPath
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        if self.t_start > self.t_end:
            raise InvalidTrajectoryError(
                f"crossing interval must be ordered, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def duration(self) -> int:
        return self.t_end - self.t_start


@dataclass
class MotionPathRecord:
    """A motion path as stored by the coordinator.

    ``path_id`` is assigned by the coordinator on insertion and is the key used
    by the grid index, the hotness hash table and the expiry queue.
    """

    path_id: int
    path: MotionPath
    created_at: int = 0

    @property
    def start(self) -> Point:
        return self.path.start

    @property
    def end(self) -> Point:
        return self.path.end

    @property
    def length(self) -> float:
        return self.path.length


class CoveringMotionPathSet:
    """An ordered set of crossings forming a covering set for one object.

    The covering-set invariant of the paper: crossings are chained in time and
    in space — each crossing starts at the timestamp and at the endpoint where
    the previous one ended.
    """

    __slots__ = ("object_id", "_crossings")

    def __init__(self, object_id: int = 0, crossings: Optional[Iterable[PathCrossing]] = None) -> None:
        self.object_id = object_id
        self._crossings: List[PathCrossing] = []
        if crossings is not None:
            for crossing in crossings:
                self.append(crossing)

    def append(self, crossing: PathCrossing) -> None:
        """Append a crossing, enforcing the chaining invariant."""
        if self._crossings:
            previous = self._crossings[-1]
            if crossing.t_start != previous.t_end:
                raise InvalidTrajectoryError(
                    "covering set crossings must chain in time: "
                    f"{crossing.t_start} != {previous.t_end}"
                )
            if crossing.path.start != previous.path.end:
                raise InvalidGeometryError(
                    "covering set crossings must chain in space: "
                    f"{crossing.path.start} != {previous.path.end}"
                )
        self._crossings.append(crossing)

    def __len__(self) -> int:
        return len(self._crossings)

    def __iter__(self) -> Iterator[PathCrossing]:
        return iter(self._crossings)

    def __getitem__(self, index: int) -> PathCrossing:
        return self._crossings[index]

    @property
    def crossings(self) -> Sequence[PathCrossing]:
        return tuple(self._crossings)

    @property
    def time_span(self) -> Tuple[int, int]:
        """Overall ``(start, end)`` time interval covered by the set."""
        if not self._crossings:
            raise InvalidTrajectoryError("empty covering set has no time span")
        return (self._crossings[0].t_start, self._crossings[-1].t_end)

    def total_length(self) -> float:
        """Sum of the Euclidean lengths of the member paths."""
        return sum(crossing.path.length for crossing in self._crossings)

    def is_valid_for(self, trajectory: Trajectory, tolerance: float) -> bool:
        """Verify that every crossing fits the trajectory within ``tolerance``."""
        return all(
            crossing.path.fits(trajectory, crossing.t_start, crossing.t_end, tolerance)
            for crossing in self._crossings
        )
