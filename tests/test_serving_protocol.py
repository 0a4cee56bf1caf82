"""Unit tests for the serving wire protocol and the server's dispatch table."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    coordinator_snapshot,
    decode_message,
    decode_update,
    encode_message,
    encode_update,
)
from repro.serving.server import IngestionServer, ServingConfig

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


def make_state(seed: int = 0) -> ObjectState:
    rng = random.Random(seed)
    start = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
    fsa = Rectangle.from_center(start, rng.uniform(10, 100))
    return ObjectState(rng.randrange(50), start, 3, fsa.low, fsa.high, 8)


def make_server(**config) -> IngestionServer:
    coordinator = Coordinator(
        CoordinatorConfig(bounds=BOUNDS, window=60, cells_per_axis=16)
    )
    return IngestionServer(coordinator, ServingConfig(**config))


class TestMessageCodec:
    def test_message_round_trip(self):
        payload = {"op": "batch", "client": 3, "seq": 0, "updates": [[1, 2.0, 3.0]]}
        line = encode_message(payload)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_message(line) == payload

    @pytest.mark.parametrize(
        "line",
        [b"not json\n", b"[1,2,3]\n", b'"a string"\n', b"\xff\xfe\n"],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_message(line)

    def test_update_round_trip(self):
        state = make_state(7)
        row = encode_update(state)
        assert len(row) == 9
        # JSON round trip included: the row must survive the wire exactly.
        decoded = decode_update(json.loads(json.dumps(row)))
        assert decoded == state

    @pytest.mark.parametrize(
        "row",
        [
            [],
            [1, 2, 3],
            list(range(10)),
            "not a row",
            [None] * 9,
            ["x", 0.0, 0.0, 5, 0.0, 0.0, 10.0, 10.0, 9],
        ],
    )
    def test_malformed_updates_rejected(self, row):
        with pytest.raises(ProtocolError):
            decode_update(row)


def wire_row(object_id, t_start, t_end):
    """A 9-field update row with a valid geometry around the three integers."""
    return [object_id, 5.0, 5.0, t_start, 1.0, 1.0, 20.0, 20.0, t_end]


#: Row positions of the fields that must be integers on the wire.
INTEGER_FIELDS = {"object_id": 0, "t_start": 3, "t_end": 8}

#: Values ``int()`` used to accept there: bools, strings (numeric ones
#: included), fractional floats, infinities and NaN.
non_integers = st.one_of(
    st.booleans(),
    st.text(max_size=6),
    st.integers().map(str),
    st.floats().filter(lambda value: not value.is_integer()),
)

#: Rows accepted before wire validation, each collapsing or reversing
#: something: ids 1.7 and True both became object 1, "3" became object 3, a
#: fractional timestamp was truncated, and an SSA interval ran backwards.
SILENTLY_ACCEPTED = {
    "fractional_id": wire_row(1.7, 1, 9),
    "bool_id": wire_row(True, 1, 9),
    "string_id": wire_row("3", 1, 9),
    "fractional_t_start": wire_row(1, 1.5, 9),
    "reversed_interval": [1, 5, 5, 9, 1, 1, 20, 20, 5],
}


class TestUpdateValidation:
    """``decode_update`` rejects what ``int()`` would silently coerce."""

    @given(
        st.integers(min_value=-(2**53), max_value=2**53),
        st.integers(min_value=0, max_value=2**53),
        st.integers(min_value=0, max_value=2**53),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_integral_rows_decode_exactly(self, object_id, first, second, as_floats):
        t_start, t_end = sorted((first, second))
        values = (object_id, t_start, t_end)
        if as_floats:  # JSON writers may emit 7.0 for 7; it is still 7
            values = tuple(float(value) for value in values)
        state = decode_update(json.loads(json.dumps(wire_row(*values))))
        assert (state.object_id, state.t_start, state.t_end) == (object_id, t_start, t_end)
        assert all(type(value) is int for value in (state.object_id, state.t_start, state.t_end))

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    @given(value=non_integers)
    @settings(max_examples=100, deadline=None)
    def test_non_integers_are_rejected(self, field, value):
        row = wire_row(4, 1, 9)
        row[INTEGER_FIELDS[field]] = value
        with pytest.raises(ProtocolError):
            decode_update(row)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_a_reversed_interval_is_rejected(self, t_end, gap):
        with pytest.raises(ProtocolError):
            decode_update(wire_row(4, t_end + gap, t_end))
        assert decode_update(wire_row(4, t_end, t_end)).duration == 0

    @pytest.mark.parametrize("name", sorted(SILENTLY_ACCEPTED))
    def test_formerly_accepted_rows_are_rejected(self, name):
        with pytest.raises(ProtocolError):
            decode_update(SILENTLY_ACCEPTED[name])

    @pytest.mark.parametrize("name", sorted(SILENTLY_ACCEPTED))
    def test_a_bad_row_refuses_its_batch_with_a_protocol_error_reply(self, name):
        server = make_server()
        try:
            rows = [wire_row(4, 1, 9), SILENTLY_ACCEPTED[name]]
            response = server.handle_line(
                encode_message({"op": "batch", "client": 0, "seq": 0, "updates": rows})
            )
            assert response["ok"] is False
            assert server.protocol_errors == 1
            assert server.batcher.pending_updates == 0  # nothing of the batch admitted
            # The handler survived: the same batch without the bad row is served.
            ok = server.handle_line(
                encode_message({"op": "batch", "client": 0, "seq": 0, "updates": rows[:1]})
            )
            assert ok == {"ok": True, "accepted": 1, "seq": 0}
        finally:
            server.coordinator.close()


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(auto_epoch_seconds=0.0)
        with pytest.raises(ConfigurationError):
            ServingConfig(auto_epoch_timestamps=0)

    def test_port_requires_started_server(self):
        server = make_server()
        try:
            with pytest.raises(ConfigurationError):
                server.port
        finally:
            server.coordinator.close()


class TestDispatch:
    """Request handling minus the sockets: dispatch is synchronous by design."""

    def make(self):
        server = make_server()
        return server, server.coordinator

    def test_batch_tick_snapshot_flow(self):
        server, coordinator = self.make()
        try:
            rows = [encode_update(make_state(seed)) for seed in range(6)]
            ack = server.dispatch({"op": "batch", "client": 0, "seq": 0, "updates": rows})
            assert ack == {"ok": True, "accepted": 6, "seq": 0}

            outcome = server.dispatch({"op": "tick", "now": 10})
            assert outcome["ok"] and outcome["epoch"]["states_processed"] == 6

            snapshot = server.dispatch({"op": "snapshot"})["snapshot"]
            assert snapshot == coordinator_snapshot(coordinator)
            assert snapshot["size"] > 0
        finally:
            coordinator.close()

    def test_duplicate_batch_is_idempotent(self):
        server, coordinator = self.make()
        try:
            rows = [encode_update(make_state(1))]
            first = server.dispatch({"op": "batch", "client": 2, "seq": 5, "updates": rows})
            again = server.dispatch({"op": "batch", "client": 2, "seq": 5, "updates": rows})
            assert first["accepted"] == 1
            assert again == {"ok": True, "accepted": 0, "duplicate": True, "seq": 5}
            assert server.batcher.pending_updates == 1
        finally:
            coordinator.close()

    def test_stale_tick_is_an_error_not_a_commit(self):
        server, coordinator = self.make()
        try:
            server.dispatch({"op": "tick", "now": 10})
            with pytest.raises(CoordinatorError):
                server.dispatch({"op": "tick", "now": 10})
            # handle_line maps it to a protocol-level error response.
            response = server.handle_line(encode_message({"op": "tick", "now": 5}))
            assert response["ok"] is False and "boundary" in response["error"]
        finally:
            coordinator.close()

    def test_unknown_and_malformed_ops_counted(self):
        server, coordinator = self.make()
        try:
            assert server.handle_line(b"junk\n")["ok"] is False
            assert server.handle_line(encode_message({"op": "warp"}))["ok"] is False
            bad_batch = server.handle_line(
                encode_message({"op": "batch", "client": "x"})
            )
            assert bad_batch["ok"] is False
            assert server.protocol_errors == 3
        finally:
            coordinator.close()

    @pytest.mark.parametrize("op", ["topk", "corridors"])
    @pytest.mark.parametrize("k", ["x", None, [1]])
    def test_malformed_k_is_a_protocol_error_reply(self, op, k):
        """A non-integer ``k`` used to raise ValueError/TypeError out of
        ``handle_line``, killing the connection handler without a reply."""
        server, coordinator = self.make()
        try:
            response = server.handle_line(encode_message({"op": op, "k": k}))
            assert response["ok"] is False and "malformed k" in response["error"]
            assert server.protocol_errors == 1
            # The handler survived: the next request on the line is served.
            assert server.handle_line(encode_message({"op": op, "k": 3}))["ok"] is True
        finally:
            coordinator.close()

    def test_hello_reports_protocol_version(self):
        server, coordinator = self.make()
        try:
            assert server.dispatch({"op": "hello"}) == {
                "ok": True,
                "version": PROTOCOL_VERSION,
            }
        finally:
            coordinator.close()

    def test_stats_surface_batcher_counters(self):
        server, coordinator = self.make()
        try:
            rows = [encode_update(make_state(2))]
            server.dispatch({"op": "batch", "client": 0, "seq": 0, "updates": rows})
            server.dispatch({"op": "tick", "now": 10})
            stats = server.dispatch({"op": "stats"})["stats"]
            assert stats["accepted_batches"] == 1
            assert stats["epochs"] == 1
            assert stats["index_size"] == coordinator.index_size()
            assert "p99_ms" in stats
        finally:
            coordinator.close()
