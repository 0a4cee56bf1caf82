"""The naive "send everything" approach used to motivate the two-tier design.

The paper argues (Section 1 and 3.2) that continuously relaying every location
update to the coordinator is infeasible because of bandwidth and coordinator
load.  This module implements that strawman so the communication-overhead
ablation can quantify the saving achieved by RayTrace: :class:`NaiveClient`
transmits every measurement as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.trajectory import TimePoint

__all__ = ["NaiveClient"]

# Bytes per transmitted raw measurement: two coordinates, a timestamp and the
# object id, each serialised as a 4-byte field (same convention as ObjectState).
_MEASUREMENT_BYTES = 4 * 4


@dataclass
class NaiveClient:
    """A client that forwards every measurement to the coordinator."""

    object_id: int
    measurements_sent: int = 0
    bytes_sent: int = 0

    def observe(self, timepoint: TimePoint) -> Tuple[int, TimePoint]:
        """Transmit the measurement; returns ``(object_id, timepoint)`` as the message."""
        self.measurements_sent += 1
        self.bytes_sent += _MEASUREMENT_BYTES
        return (self.object_id, timepoint)
