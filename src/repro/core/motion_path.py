"""Motion paths (paper Section 3.1).

A *motion path* is a directed segment ``start -> end`` on the xy plane.  An
object *crosses* it over a time interval ``[t_start, t_end]`` when, for every
intermediate fraction lambda, the interpolated point on the segment is within
tolerance epsilon of the object's interpolated location at the corresponding
time.  The coordinator stores one :class:`MotionPath` per discovered path,
carrying its id and creation time; hotness is maintained separately by
:mod:`repro.coordinator.hotness`.

RayTrace together with SinglePath build each object's *covering motion path
set* implicitly: a chain of crossings whose intervals tile the object's
lifetime and whose paths start where the previous one ended.
"""

from __future__ import annotations

from math import hypot

from repro.core.geometry import Point, interpolate_point
from repro.core.value import FrozenValue

__all__ = ["MotionPath"]


class MotionPath(FrozenValue):
    """A directed segment ``start -> end`` on the xy plane.

    ``length`` (float) is the segment's Euclidean length, used by the score
    metric: motion-path length is measured with the Euclidean norm even
    though proximity uses the max-distance, matching the paper.  It is
    computed once, at construction, into its own slot.

    A path stored by the coordinator is built by
    :meth:`~repro.coordinator.grid_index.GridIndex.insert`, which sets two
    more slots: ``path_id``, the key of the grid index, the hotness hash
    table and the expiry queue, and ``created_at``, the timestamp of the
    insert.  A path built anywhere else reads ``path_id`` -1 (unstored) and
    ``created_at`` 0.  Like ``length`` they are not fields (not in
    ``__match_args__``), so ``repr``, equality and hash are those of
    ``(start, end)``, and reading one is a plain attribute read.  Pickling
    rebuilds a path from its fields alone, so a pickled stored path comes
    back unstored (``path_id`` -1, ``created_at`` 0).
    """

    __slots__ = ("start", "end", "length", "path_id", "created_at")
    __match_args__ = ("start", "end")

    def __init__(self, start: Point, end: Point, path_id: int = -1, created_at: int = 0) -> None:
        _set_start(self, start)
        _set_end(self, end)
        _set_length(self, hypot(start.x - end.x, start.y - end.y))
        _set_path_id(self, path_id)
        _set_created_at(self, created_at)

    def point_at(self, fraction: float) -> Point:
        """Point ``start + fraction * (end - start)`` for ``fraction`` in [0, 1]."""
        return interpolate_point(self.start, self.end, fraction)


_set_start = MotionPath.start.__set__
_set_end = MotionPath.end.__set__
_set_length = MotionPath.length.__set__
_set_path_id = MotionPath.path_id.__set__
_set_created_at = MotionPath.created_at.__set__
