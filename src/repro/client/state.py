"""Messages exchanged between moving objects and the coordinator.

The paper's protocol is deliberately tiny:

* when RayTrace can no longer grow its Spatial Safe Area, the object sends an
  :class:`ObjectState` — the SSA start timepoint plus the Final Safe Area and
  its timestamp (three points and two timestamps in total);
* at the next epoch the coordinator answers with a
  :class:`CoordinatorResponse` carrying the single endpoint timepoint that the
  object must use as the start of its next SSA, which is what guarantees the
  covering-set chaining.

Both messages expose ``message_size_bytes`` so the simulation can account for
communication volume, one of the costs the framework is designed to reduce.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.geometry import Point, Rectangle
from repro.core.value import FrozenValue

__all__ = ["ObjectState", "CoordinatorResponse"]

# A coordinate or timestamp serialised as a 4-byte value, mirroring the
# compact binary encoding a real deployment would use.
_FIELD_BYTES = 4


class ObjectState(FrozenValue):
    """State message ``<s, t_s, l(t_e), u(t_e), t_e>`` sent by a reporting object."""

    __slots__ = ("object_id", "start", "t_start", "fsa_low", "fsa_high", "t_end")

    def __init__(
        self,
        object_id: int,
        start: Point,
        t_start: int,
        fsa_low: Point,
        fsa_high: Point,
        t_end: int,
    ) -> None:
        _set_state_id(self, object_id)
        _set_start(self, start)
        _set_t_start(self, t_start)
        _set_fsa_low(self, fsa_low)
        _set_fsa_high(self, fsa_high)
        _set_t_end(self, t_end)

    @property
    def fsa(self) -> Rectangle:
        """The Final Safe Area as a rectangle.

        Builds and validates a new ``Rectangle`` on every access, so a hot
        loop reads it once (the coordinator does, once per state per epoch).
        """
        return Rectangle(self.fsa_low, self.fsa_high)

    def message_size_bytes(self) -> int:
        """Size of the state message on the wire.

        Three points (six coordinates), two timestamps and the object id.
        """
        return (6 + 2 + 1) * _FIELD_BYTES

    def as_tuple(self) -> Tuple[int, float, float, int, float, float, float, float, int]:
        """Flat tuple representation, convenient for logging and CSV export."""
        return (
            self.object_id,
            self.start.x,
            self.start.y,
            self.t_start,
            self.fsa_low.x,
            self.fsa_low.y,
            self.fsa_high.x,
            self.fsa_high.y,
            self.t_end,
        )


_set_state_id = ObjectState.object_id.__set__
_set_start = ObjectState.start.__set__
_set_t_start = ObjectState.t_start.__set__
_set_fsa_low = ObjectState.fsa_low.__set__
_set_fsa_high = ObjectState.fsa_high.__set__
_set_t_end = ObjectState.t_end.__set__


class CoordinatorResponse(FrozenValue):
    """Response ``<e, t_e>`` assigning the object its next SSA start timepoint."""

    __slots__ = ("object_id", "endpoint", "timestamp")

    def __init__(self, object_id: int, endpoint: Point, timestamp: int) -> None:
        _set_response_id(self, object_id)
        _set_endpoint(self, endpoint)
        _set_timestamp(self, timestamp)

    def message_size_bytes(self) -> int:
        """Size of the response on the wire: one point, one timestamp, the id."""
        return (2 + 1 + 1) * _FIELD_BYTES


_set_response_id = CoordinatorResponse.object_id.__set__
_set_endpoint = CoordinatorResponse.endpoint.__set__
_set_timestamp = CoordinatorResponse.timestamp.__set__
