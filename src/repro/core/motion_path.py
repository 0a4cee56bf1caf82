"""Motion paths and their coordinator records (paper Section 3.1).

A *motion path* is a directed segment ``start -> end`` on the xy plane.  An
object *crosses* it over a time interval ``[t_start, t_end]`` when, for every
intermediate fraction lambda, the interpolated point on the segment is within
tolerance epsilon of the object's interpolated location at the corresponding
time.  The coordinator stores one :class:`MotionPathRecord` per discovered
path, tracking its identity and geometry; hotness is maintained separately by
:mod:`repro.coordinator.hotness`.

RayTrace together with SinglePath build each object's *covering motion path
set* implicitly: a chain of crossings whose intervals tile the object's
lifetime and whose paths start where the previous one ended.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.geometry import Point, Rectangle, interpolate_point, segment_length

__all__ = ["MotionPath", "MotionPathRecord"]


@dataclass(frozen=True)
class MotionPath:
    """A directed segment ``start -> end`` on the xy plane.

    ``length`` (float) is the segment's Euclidean length, used by the score
    metric.  It is computed once, at construction, into the instance
    ``__dict__``: not a field, so ``repr``, equality and hash are unchanged,
    and reading it is a plain attribute read (a ``cached_property`` takes a
    lock on its first read on CPython 3.11).
    """

    start: Point
    end: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", segment_length(self.start, self.end))

    def point_at(self, fraction: float) -> Point:
        """Point ``start + fraction * (end - start)`` for ``fraction`` in [0, 1]."""
        return interpolate_point(self.start, self.end, fraction)

    def bounding_box(self, padding: float = 0.0) -> Rectangle:
        """Minimum bounding rectangle of the segment, expanded by ``padding``."""
        return Rectangle.bounding(self.start, self.end, padding)


@dataclass
class MotionPathRecord:
    """A motion path as stored by the coordinator.

    ``path_id`` is assigned by the coordinator on insertion and is the key used
    by the grid index, the hotness hash table and the expiry queue.
    """

    path_id: int
    path: MotionPath
    created_at: int = 0
