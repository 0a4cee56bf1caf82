"""Wire protocol of the served front door.

Messages are newline-delimited JSON objects — one request per line, one
response per line, over a plain TCP stream (the container ships no HTTP
client library, and the paper's protocol is three points and two timestamps
per message; a framed text protocol keeps the encode/decode cost visible
and the server dependency-free).  Every request carries an ``op``:

``batch``
    ``{"op": "batch", "client": C, "seq": S, "updates": [[...9 fields...]]}``
    — a client's location-update batch.  Updates are the flat 9-field form
    of :meth:`ObjectState.as_tuple`.  ``client`` is an integer id and
    ``seq`` a per-client integer batch number; ``(client, seq)`` identifies
    the batch for dedupe: redelivering an accepted batch is idempotent.  The
    response is ``{"ok": true, "accepted": n, "seq": S}``, with
    ``"duplicate": true`` when the batch was already accepted, or
    ``{"ok": false, "error": "backpressure", ...}`` when the epoch queue is
    full — the client must retry after the next epoch commit.  A client
    should number its batches contiguously: the server remembers its seqs
    as runs, and a seq that would leave it more than
    :data:`~repro.serving.batcher.MAX_SEQ_RUNS` disjoint runs is refused
    with ``{"ok": false, "error": "too many seq gaps", ...}`` (a seq that
    fills a gap is always admitted).

``tick``
    ``{"op": "tick", "now": T}`` — close the current epoch at integer
    boundary ``T`` (strictly increasing).  All accepted updates are committed
    through :meth:`Coordinator.run_epoch`; the response carries the epoch
    counters.  Ticks make epoch boundaries explicit and deterministic —
    the harness drives them; a live deployment can enable the wall-clock
    auto-ticker instead (:class:`ServingConfig.auto_epoch_seconds`), which
    then refuses explicit ticks.

``topk`` / ``corridors``
    ``{"op": "topk", "k": K, "by_score": B}`` — ranked hot-path /
    composite-corridor reports.  ``k`` defaults to 10.  ``by_score`` is a
    JSON ``true`` (rank by score) or ``false`` (rank by hotness, also when
    the field is missing), on both ops; any other value (``"false"``,
    ``0``, ``null``) is a ``malformed by_score`` protocol error.

``snapshot``
    The canonical full-state report (:func:`coordinator_snapshot`) — the
    bit-for-bit equivalence artifact: a served coordinator's snapshot must
    equal the snapshot of a seed coordinator that replayed the same
    accepted updates at the same epoch boundaries.

``stats``
    Serving counters: accepted/rejected/duplicate batches, epochs, ingest
    latency quantiles.

``client``, ``seq``, ``now`` and ``k`` are decoded like a row's id and
timestamps (:func:`_wire_integer`): an integer, or a float with no fraction;
a bool, a string or ``1.5`` is a protocol error.

All payloads are restricted to JSON scalars, lists and objects, so a
snapshot survives a wire round trip unchanged (Python's JSON float
round-trip is exact), which is what lets the equivalence suites compare
served reports against in-process replays with ``==``.
"""

from __future__ import annotations

import json
import numbers
from typing import Any, Dict, List, Sequence

from repro.core.errors import ReproError
from repro.core.geometry import Point
from repro.client.state import ObjectState

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "encode_update",
    "decode_update",
    "encode_scored_path",
    "encode_corridor",
    "coordinator_snapshot",
]

PROTOCOL_VERSION = 1

#: Upper bound on one request line; protects the reader from an unframed
#: client streaming garbage without a newline.
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ReproError):
    """Raised when a wire message cannot be decoded or violates the protocol."""


def encode_message(payload: Dict[str, Any]) -> bytes:
    """Serialize one message as a newline-terminated JSON line."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict (must be a JSON object)."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer literal past
        # CPython's digit limit; RecursionError, nesting past the stack.
        raise ProtocolError(f"undecodable message line: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(payload).__name__}")
    return payload


def encode_update(state: ObjectState) -> List[Any]:
    """Flatten a state message into its 9-field wire row."""
    return list(state.as_tuple())


def _wire_integer(value: Any, name: str) -> int:
    """An id or timestamp field: an integer, or a float with no fraction.

    ``int()`` alone would truncate ``1.7`` and accept ``True`` and ``"3"``,
    so distinct wire values could collapse onto one object id or timestamp.
    """
    if type(value) is int:  # what JSON decodes an integer to: checked first
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ProtocolError(f"{name} must be an integer, got {value!r}")


def _wire_coordinate(value: Any) -> float:
    """A coordinate field: a JSON number.

    ``float()`` alone would accept ``" 7 "`` and ``True``.
    """
    if type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:  # an integer literal past the float range
            raise ProtocolError(f"a coordinate must fit a float, got {value!r}") from None
    raise ProtocolError(f"a coordinate must be a number, got {value!r}")


def decode_update(fields: Sequence[Any]) -> ObjectState:
    """Rebuild an :class:`ObjectState` from its 9-field wire row.

    The object id and both timestamps must be integral (see
    :func:`_wire_integer`), every coordinate a number (see
    :func:`_wire_coordinate`), and neither the SSA interval ``[t_start,
    t_end]`` nor the FSA corners may be reversed.
    """
    if not isinstance(fields, (list, tuple)) or len(fields) != 9:
        raise ProtocolError(f"update row must have 9 fields, got {fields!r}")
    object_id, s_x, s_y, t_start, f_lx, f_ly, f_hx, f_hy, t_end = fields
    object_id = _wire_integer(object_id, "object id")
    t_start = _wire_integer(t_start, "t_start")
    t_end = _wire_integer(t_end, "t_end")
    if t_start > t_end:
        raise ProtocolError(f"t_start {t_start} is after t_end {t_end} in {fields!r}")
    s_x, s_y, f_lx, f_ly, f_hx, f_hy = map(_wire_coordinate, (s_x, s_y, f_lx, f_ly, f_hx, f_hy))
    if f_lx > f_hx or f_ly > f_hy:
        raise ProtocolError(f"the FSA's low corner exceeds its high corner in {fields!r}")
    try:
        return ObjectState(
            object_id,
            Point(s_x, s_y),
            t_start,
            Point(f_lx, f_ly),
            Point(f_hx, f_hy),
            t_end,
        )
    except (TypeError, ValueError, ReproError) as exc:
        raise ProtocolError(f"invalid update row {fields!r}: {exc}") from None


def encode_scored_path(scored) -> List[Any]:
    """One ranked hot path as ``[path_id, hotness, score, sx, sy, ex, ey]``."""
    return [
        scored.path_id,
        scored.hotness,
        scored.score,
        scored.path.start.x,
        scored.path.start.y,
        scored.path.end.x,
        scored.path.end.y,
    ]


def encode_corridor(corridor) -> Dict[str, Any]:
    """One composite corridor: member path ids, merged hotness, summed score."""
    return {
        "path_ids": list(corridor.path_ids),
        "segments": corridor.num_segments,
        "hotness": corridor.hotness,
        "score": corridor.score,
        "start": [corridor.start.x, corridor.start.y],
        "end": [corridor.end.x, corridor.end.y],
    }


def coordinator_snapshot(coordinator) -> Dict[str, Any]:
    """Canonical, order-independent, JSON-pure snapshot of coordinator state.

    The serving-layer equivalence artifact — part of the answer surface the
    exactness harness (``tests/differential.py``) compares, restricted to
    JSON types so a snapshot fetched over the wire compares ``==`` against
    one built in-process: sorted index records, the sorted hotness table, the
    top 10 under both rankings, and the top 10 corridors.
    """
    k = 10
    records = sorted(
        (
            path.path_id,
            [path.start.x, path.start.y],
            [path.end.x, path.end.y],
            path.created_at,
        )
        for path in coordinator.index.records
    )
    return {
        "size": coordinator.index_size(),
        "records": [list(record) for record in records],
        "hotness": [list(item) for item in sorted(coordinator.hotness.items())],
        "pending_events": coordinator.hotness.pending_events,
        "top_k_hotness": [encode_scored_path(s) for s in coordinator.top_k(k)],
        "top_k_score": [encode_scored_path(s) for s in coordinator.top_k(k, by_score=True)],
        "top_k_score_value": coordinator.top_k_score(k),
        "corridors": [encode_corridor(c) for c in coordinator.top_k_corridors(k)],
    }
