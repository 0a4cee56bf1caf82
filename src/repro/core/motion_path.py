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

from math import hypot

from repro.core.geometry import Point, Rectangle, interpolate_point
from repro.core.value import FrozenValue, Value

__all__ = ["MotionPath", "MotionPathRecord"]


class MotionPath(FrozenValue):
    """A directed segment ``start -> end`` on the xy plane.

    ``length`` (float) is the segment's Euclidean length, used by the score
    metric: motion-path length is measured with the Euclidean norm even
    though proximity uses the max-distance, matching the paper.  It is
    computed once, at construction, into its own slot: not a field (not in
    ``__match_args__``), so ``repr``, equality and hash are those of
    ``(start, end)``, and reading it is a plain attribute read.
    """

    __slots__ = ("start", "end", "length")
    __match_args__ = ("start", "end")

    def __init__(self, start: Point, end: Point) -> None:
        _set_start(self, start)
        _set_end(self, end)
        _set_length(self, hypot(start.x - end.x, start.y - end.y))

    def point_at(self, fraction: float) -> Point:
        """Point ``start + fraction * (end - start)`` for ``fraction`` in [0, 1]."""
        return interpolate_point(self.start, self.end, fraction)

    def bounding_box(self, padding: float = 0.0) -> Rectangle:
        """Minimum bounding rectangle of the segment, expanded by ``padding``."""
        return Rectangle.bounding(self.start, self.end, padding)


_set_start = MotionPath.start.__set__
_set_end = MotionPath.end.__set__
_set_length = MotionPath.length.__set__


class MotionPathRecord(Value):
    """A motion path as stored by the coordinator.

    ``path_id`` is assigned by the coordinator on insertion and is the key used
    by the grid index, the hotness hash table and the expiry queue.  Mutable,
    and so unhashable, like the non-frozen dataclass it replaced.
    """

    __slots__ = ("path_id", "path", "created_at")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, path_id: int, path: MotionPath, created_at: int = 0) -> None:
        self.path_id = path_id
        self.path = path
        self.created_at = created_at
