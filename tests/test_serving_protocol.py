"""Unit tests for the serving wire protocol and the server's dispatch table,
the served process over real sockets, and the wall-clock epoch ticker under
concurrent load."""

from __future__ import annotations

import asyncio
import contextlib
import errno
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.fleet import FleetConfig
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    coordinator_snapshot,
    decode_message,
    decode_update,
    encode_corridor,
    encode_message,
    encode_scored_path,
    encode_update,
)
from repro.serving.scenarios import ScenarioRunner, _WireClient, replay_accepted_log
from repro.serving import server as server_module
from repro.serving.server import IngestionServer, ServingConfig, _Connection

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
#: fractional timestamp was truncated, an SSA interval ran backwards, the
#: coordinates " 7 " and True became 7.0 and 1.0, and an inverted FSA was
#: queued until its epoch failed for every client.
SILENTLY_ACCEPTED = {
    "fractional_id": wire_row(1.7, 1, 9),
    "bool_id": wire_row(True, 1, 9),
    "string_id": wire_row("3", 1, 9),
    "fractional_t_start": wire_row(1, 1.5, 9),
    "reversed_interval": [1, 5, 5, 9, 1, 1, 20, 20, 5],
    "string_coordinate": [1, " 7 ", 2, 0, 0, 0, 10, 10, 5],
    "bool_coordinate": [1, True, 2, 0, 0, 0, 10, 10, 5],
    "inverted_fsa": [1, 5, 5, 0, 10, 10, 0, 0, 5],
}

COORDINATE_FIELDS = {"start_x": 1, "start_y": 2, "low_x": 4, "low_y": 5, "high_x": 6, "high_y": 7}

#: Values ``float()`` used to accept as a coordinate: bools and numeric strings.
non_numbers = st.one_of(
    st.booleans(),
    st.text(max_size=6),
    st.integers(min_value=1, max_value=19).map(lambda value: f" {value} "),
    st.floats(min_value=1.0, max_value=19.0).map(str),
)


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

    @pytest.mark.parametrize("field", sorted(COORDINATE_FIELDS))
    @given(value=non_numbers)
    @settings(max_examples=100, deadline=None)
    def test_non_number_coordinates_are_rejected(self, field, value):
        row = wire_row(4, 1, 9)
        row[COORDINATE_FIELDS[field]] = value
        with pytest.raises(ProtocolError):
            decode_update(row)

    @pytest.mark.parametrize("field", sorted(COORDINATE_FIELDS))
    @given(value=st.one_of(st.integers(min_value=1, max_value=19), st.floats(min_value=1.0, max_value=19.0)))
    @settings(max_examples=50, deadline=None)
    def test_number_coordinates_decode_exactly(self, field, value):
        row = wire_row(4, 1, 9)
        row[COORDINATE_FIELDS[field]] = value
        decoded = decode_update(json.loads(json.dumps(row)))
        assert decoded.as_tuple()[COORDINATE_FIELDS[field]] == float(value)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_a_reversed_interval_is_rejected(self, t_end, gap):
        with pytest.raises(ProtocolError):
            decode_update(wire_row(4, t_end + gap, t_end))
        state = decode_update(wire_row(4, t_end, t_end))
        assert state.t_end - state.t_start == 0

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


class TestEnvelopeIntegers:
    """``client``, ``seq``, ``now`` and ``k`` decode like the rows' integers:
    ``int()`` used to collapse ``1.5`` onto seq 1 (acked as a duplicate, its
    updates lost), accept ``true`` and ``"2"``, and commit ``now: 10.9`` at 10."""

    def test_a_fractional_seq_is_refused_not_acked_as_a_duplicate(self):
        server = make_server()
        try:
            rows = [wire_row(4, 1, 9)]
            first = server.handle_line(
                encode_message({"op": "batch", "client": 0, "seq": 1, "updates": rows})
            )
            assert first == {"ok": True, "accepted": 1, "seq": 1}
            response = server.handle_line(
                encode_message({"op": "batch", "client": 0, "seq": 1.5, "updates": rows})
            )
            assert response["ok"] is False and "seq" in response["error"]
            assert server.protocol_errors == 1
            assert server.batcher.duplicate_batches == 0
        finally:
            server.coordinator.close()

    @pytest.mark.parametrize(
        "envelope",
        [{"client": True, "seq": 0}, {"client": "0", "seq": 0}, {"client": 0, "seq": "2"},
         {"client": 0, "seq": False}, {"client": 0.5, "seq": 0}, {"client": 0, "seq": None}],
        ids=str,
    )
    def test_non_integer_client_or_seq_refuses_the_batch(self, envelope):
        server = make_server()
        try:
            message = dict(envelope, op="batch", updates=[wire_row(4, 1, 9)])
            response = server.handle_line(encode_message(message))
            assert response["ok"] is False
            assert server.protocol_errors == 1
            assert server.batcher.accepted_batches == 0
        finally:
            server.coordinator.close()

    @pytest.mark.parametrize("now", [10.9, "10", True, None])
    def test_a_non_integer_boundary_commits_nothing(self, now):
        server = make_server()
        try:
            response = server.handle_line(encode_message({"op": "tick", "now": now}))
            assert response["ok"] is False and "now" in response["error"]
            assert server.protocol_errors == 1
            assert server.batcher.epochs_committed == 0
        finally:
            server.coordinator.close()

    @pytest.mark.parametrize("op", ["topk", "corridors"])
    @pytest.mark.parametrize("k", [2.5, True, "3"])
    def test_a_non_integer_k_is_refused(self, op, k):
        server = make_server()
        try:
            response = server.handle_line(encode_message({"op": op, "k": k}))
            assert response["ok"] is False and "malformed k" in response["error"]
        finally:
            server.coordinator.close()

    def test_integral_floats_are_their_integers(self):
        """A JSON writer may emit 7.0 for 7; it is still 7, as in the rows."""
        server = make_server()
        try:
            rows = [wire_row(4, 1, 9)]
            ack = server.handle_line(
                encode_message({"op": "batch", "client": 3.0, "seq": 2.0, "updates": rows})
            )
            assert ack == {"ok": True, "accepted": 1, "seq": 2}
            again = server.dispatch({"op": "batch", "client": 3, "seq": 2, "updates": rows})
            assert again["duplicate"] is True
            tick = server.handle_line(encode_message({"op": "tick", "now": 10.0}))
            assert tick["ok"] is True and tick["epoch"]["timestamp"] == 10
        finally:
            server.coordinator.close()


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(auto_epoch_seconds=0.0)
        with pytest.raises(ConfigurationError):
            ServingConfig(auto_epoch_timestamps=0)

    @pytest.mark.parametrize(
        "field", (dict(port=-1), dict(port=65536), dict(max_pending_updates=0)), ids=str
    )
    def test_port_and_queue_bound_are_validated(self, field):
        with pytest.raises(ConfigurationError):
            ServingConfig(**field)

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

    @pytest.mark.parametrize("by_score", ["false", 0, 1, None, []], ids=repr)
    def test_a_non_boolean_by_score_is_a_protocol_error_reply(self, by_score):
        """``by_score`` used to go through ``bool()``, so ``"false"`` ranked by score."""
        server, coordinator = self.make()
        try:
            message = {"op": "topk", "k": 3, "by_score": by_score}
            response = server.handle_line(encode_message(message))
            assert response["ok"] is False and "malformed by_score" in response["error"]
            assert server.protocol_errors == 1
        finally:
            coordinator.close()

    @pytest.mark.parametrize("field", [{"by_score": True}, {"by_score": False}, {}], ids=repr)
    def test_a_boolean_or_missing_by_score_is_answered(self, field):
        """JSON ``true`` / ``false`` choose the order; no field means by hotness."""
        server, coordinator = self.make()
        try:
            rows = [encode_update(make_state(seed)) for seed in range(6)]
            server.dispatch({"op": "batch", "client": 0, "seq": 0, "updates": rows})
            server.dispatch({"op": "tick", "now": 10})
            response = server.handle_line(encode_message(dict(field, op="topk", k=3)))
            expected = coordinator.top_k(3, by_score=field.get("by_score", False))
            assert expected, "nothing to rank"
            assert response == {"ok": True, "paths": [encode_scored_path(s) for s in expected]}
            assert server.protocol_errors == 0
        finally:
            coordinator.close()

    @pytest.mark.parametrize("by_score", ["false", 0, None], ids=repr)
    def test_a_non_boolean_by_score_on_corridors_is_a_protocol_error_reply(self, by_score):
        server, coordinator = self.make()
        try:
            message = {"op": "corridors", "k": 3, "by_score": by_score}
            response = server.handle_line(encode_message(message))
            assert response == {
                "ok": False,
                "error": f"malformed by_score: {by_score!r} is not true or false",
            }
            assert server.protocol_errors == 1
        finally:
            coordinator.close()

    @staticmethod
    def commit_two_orders(server) -> None:
        """One epoch whose hotness and score orders disagree: a short path
        crossed three times, and a long one crossed once."""
        short = [
            ObjectState(object_id, Point(100.0, 100.0), 3, Point(110.0, 99.0), Point(112.0, 101.0), 8)
            for object_id in range(3)
        ]
        long = ObjectState(9, Point(500.0, 500.0), 3, Point(900.0, 499.0), Point(902.0, 501.0), 8)
        rows = [encode_update(state) for state in [*short, long]]
        server.dispatch({"op": "batch", "client": 0, "seq": 0, "updates": rows})
        server.dispatch({"op": "tick", "now": 10})

    @pytest.mark.parametrize("field", [{"by_score": True}, {"by_score": False}, {}], ids=repr)
    def test_corridors_are_answered_in_the_requested_order(self, field):
        """``corridors`` used to drop ``by_score`` and always rank by hotness."""
        server, coordinator = self.make()
        try:
            self.commit_two_orders(server)
            response = server.handle_line(encode_message(dict(field, op="corridors", k=3)))
            expected = coordinator.top_k_corridors(3, by_score=field.get("by_score", False))
            assert response == {"ok": True, "corridors": [encode_corridor(c) for c in expected]}
            # The long path (401 units, crossed once) leads by score only.
            leader = response["corridors"][0]
            assert (leader["hotness"], leader["score"]) == (
                (1, 401.0) if field.get("by_score") else (3, 33.0)
            )
            assert server.protocol_errors == 0
        finally:
            coordinator.close()

    @pytest.mark.parametrize("op, key", [("topk", "paths"), ("corridors", "corridors")])
    def test_true_and_false_each_answer_in_their_own_order(self, op, key):
        server, coordinator = self.make()
        try:
            self.commit_two_orders(server)
            answers = {
                by_score: server.handle_line(encode_message({"op": op, "by_score": by_score}))
                for by_score in (True, False)
            }
            assert answers[True][key] == answers[False][key][::-1]
            assert len(answers[True][key]) == 2
            assert server.handle_line(encode_message({"op": op})) == answers[False]
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

    def test_snapshot_reports_real_state(self):
        result = ScenarioRunner(FleetConfig(num_shards=1)).run("uniform_trickle", seed=2)

        report = result.report
        assert report["size"] == len(report["records"]) > 0
        assert report["top_k_hotness"]
        # The snapshot is wire-pure: a JSON round trip is the identity.
        assert json.loads(json.dumps(report)) == report


HELLO = encode_message({"op": "hello"})


def serve_process(*python_flags: str) -> subprocess.Popen:
    """``python [flags] -m repro serve --port 0``, its stdout and stderr piped."""
    return subprocess.Popen(
        [sys.executable, *python_flags, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )


def banner_port(process: subprocess.Popen) -> int:
    """The bound port, read from the ``serving on host:port`` banner."""
    banner = process.stdout.readline().decode()
    assert banner.startswith("serving on "), banner
    return int(banner.split()[2].rsplit(":", 1)[1])


def connect(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=10)


def round_trip(connection: socket.socket, line: bytes = HELLO) -> dict:
    connection.sendall(line)
    reader = connection.makefile("rb")
    try:
        return decode_message(reader.readline())
    finally:
        reader.close()


#: Any JSON value, with integers big enough to overflow a float but short of
#: the fresh client id and tick of :class:`TestHandleLineFuzz`.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
_ROW = st.lists(st.integers(0, 50) | st.floats(-10.0, 1010.0) | _JSON, min_size=8, max_size=10)
_MESSAGE = st.fixed_dictionaries(
    {"op": st.sampled_from(["batch", "tick", "topk", "corridors", "snapshot", "stats", "hello"]) | _JSON},
    optional={
        "client": st.integers(0, 3) | _JSON,
        "seq": st.integers(0, 5) | _JSON,
        "now": st.integers(0, 100) | _JSON,
        "k": st.integers(-2, 12) | _JSON,
        "by_score": _JSON,
        "updates": st.lists(_ROW | st.just(wire_row(1, 1, 9)), max_size=3) | _JSON,
    },
)
_LINE = st.one_of(
    _MESSAGE.map(encode_message),
    _JSON.map(lambda value: json.dumps(value).encode() + b"\n"),
    st.binary(max_size=40),
)


class TestHandleLineFuzz:
    """Arbitrary JSON messages and raw bytes through ``handle_line``: it never
    raises, every reply is a dict with ``ok``, an undecodable line counts as one
    protocol error, and the server still commits a valid batch afterwards."""

    @given(lines=st.lists(_LINE, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_no_line_breaks_the_handler(self, lines):
        server = make_server()
        try:
            for line in lines:
                try:
                    decode_message(line)
                    undecodable = False
                except ProtocolError:
                    undecodable = True
                errors = server.protocol_errors
                reply = server.handle_line(line)
                assert isinstance(reply, dict) and "ok" in reply
                if undecodable:
                    assert reply["ok"] is False and server.protocol_errors == errors + 1
            client, now = 2**71, 2**72  # past every fuzzed client id and tick
            batch = {"op": "batch", "client": client, "seq": 0, "updates": [wire_row(7, 1, 9)]}
            assert server.handle_line(encode_message(batch))["ok"] is True
            tick = server.handle_line(encode_message({"op": "tick", "now": now}))
            assert tick["ok"] is True and tick["epoch"]["states_processed"] >= 1
        finally:
            server.coordinator.close()


#: Lines that used to raise past ``handle_line``'s ``ReproError`` guard: JSON
#: nested past the recursion limit, an integer literal past CPython's digit
#: limit for ``int()``, and a coordinate too large for a float.
UNDECODABLE_LINES = {
    "deep_nesting": b"[" * 100_000 + b"\n",
    "huge_integer": b'{"op": "hello", "n": ' + b"7" * 5_000 + b"}\n",
    "overflowing_coordinate": encode_message(
        {"op": "batch", "client": 0, "seq": 0, "updates": [[1, 10**400, *wire_row(1, 1, 9)[2:]]]}
    ),
}


@contextlib.contextmanager
def serving_thread(server: IngestionServer):
    """``server`` bound and serving on a thread; stopped, joined and its
    coordinator closed on exit."""
    server.start()
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    try:
        yield serving
    finally:
        server.stop()
        serving.join()
        server.coordinator.close()


def ipv6_loopback() -> bool:
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


@pytest.fixture
def served_port():
    """A real ``repro serve`` process on an ephemeral port, SIGINT on teardown."""
    process = serve_process()
    try:
        yield banner_port(process)
    finally:
        process.send_signal(signal.SIGINT)
        process.communicate(timeout=30)


class TestServedWire:
    """The served process over real sockets: what one connection may do to
    the server, and what it may not do to the others."""

    @pytest.mark.parametrize(
        "tail",
        # The last: 300 000 bytes of pipelined requests behind the line are
        # still unread when the server closes, which must not reset the reply.
        [b"", b"\n", b"\n" + HELLO * 20_000],
        ids=["unterminated", "terminated", "followed_by_requests"],
    )
    def test_an_overlong_line_gets_one_error_then_eof(self, served_port, tail):
        with connect(served_port) as bystander, connect(served_port) as offender:
            offender.sendall(b"x" * (MAX_LINE_BYTES + 1) + tail)
            reader = offender.makefile("rb")
            assert decode_message(reader.readline()) == {
                "ok": False,
                "error": "line too long",
            }
            assert reader.readline() == b""
            reader.close()
            assert round_trip(bystander) == {"ok": True, "version": PROTOCOL_VERSION}

    @pytest.mark.parametrize("line", list(UNDECODABLE_LINES.values()), ids=list(UNDECODABLE_LINES))
    def test_an_undecodable_line_is_a_protocol_error_for_its_sender_only(
        self, served_port, line
    ):
        with connect(served_port) as bystander, connect(served_port) as sender:
            reply = round_trip(sender, line)
            assert reply["ok"] is False and reply["error"], reply
            assert round_trip(sender) == {"ok": True, "version": PROTOCOL_VERSION}
            assert round_trip(bystander) == {"ok": True, "version": PROTOCOL_VERSION}

    def test_an_unexpected_error_closes_only_its_connection(self, monkeypatch, caplog):
        """A bug in answering one line drops that line's connection after the
        replies queued before it, and the server goes on serving."""
        answer = IngestionServer.handle_line

        def handle_line(self, line):
            if line == b"boom\n":
                raise RuntimeError("boom")
            return answer(self, line)

        monkeypatch.setattr(IngestionServer, "handle_line", handle_line)
        server = make_server()
        with serving_thread(server) as serving:
            with connect(server.port) as bystander, connect(server.port) as victim:
                victim.sendall(HELLO + b"boom\n" + HELLO)
                reader = victim.makefile("rb")
                assert decode_message(reader.readline())["ok"] is True
                assert reader.readline() == b""
                reader.close()
                assert round_trip(bystander) == {"ok": True, "version": PROTOCOL_VERSION}
            assert serving.is_alive()
        assert [r.levelname for r in caplog.records] == ["ERROR"]

    def test_a_socket_error_closes_only_its_connection(self, monkeypatch):
        """``recv`` failing with ETIMEDOUT (a peer gone silent) drops that
        peer, not the server."""
        recv, victims = socket.socket.recv, set()

        def timed_out_recv(self, size, *flags):
            data = recv(self, size, *flags)
            if self.family == socket.AF_INET and self.getpeername() in victims:
                raise TimeoutError(errno.ETIMEDOUT, os.strerror(errno.ETIMEDOUT))
            return data

        monkeypatch.setattr(socket.socket, "recv", timed_out_recv)
        server = make_server()
        with serving_thread(server) as serving:
            with connect(server.port) as bystander, connect(server.port) as victim:
                victims.add(victim.getsockname())
                victim.sendall(HELLO)
                reader = victim.makefile("rb")
                assert reader.readline() == b""
                reader.close()
                assert round_trip(bystander) == {"ok": True, "version": PROTOCOL_VERSION}
            assert serving.is_alive()

    def test_running_out_of_descriptors_pauses_accepting(self, monkeypatch):
        """EMFILE on ``accept`` stops accepting for the retry delay, without
        spinning on the still-readable listener, then serves the client."""
        monkeypatch.setattr(server_module, "ACCEPT_RETRY_SECONDS", 0.3)
        accept, calls = socket.socket.accept, []

        def exhausted_once(self):
            calls.append(time.monotonic())
            if len(calls) == 1:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return accept(self)

        monkeypatch.setattr(socket.socket, "accept", exhausted_once)
        server = make_server()
        with serving_thread(server):
            with connect(server.port) as client:
                assert round_trip(client) == {"ok": True, "version": PROTOCOL_VERSION}
        assert len(calls) == 2
        assert calls[1] - calls[0] >= 0.3

    @pytest.mark.skipif(not ipv6_loopback(), reason="no IPv6 loopback")
    def test_an_ipv6_host_is_served(self):
        server = make_server(host="::1")
        with serving_thread(server):
            with socket.create_connection(("::1", server.port), timeout=10) as client:
                assert round_trip(client) == {"ok": True, "version": PROTOCOL_VERSION}

    def test_a_trickled_line_keeps_its_scan_offset(self):
        """A line arriving in pieces records how much of it holds no newline,
        so each ``recv`` searches only the bytes it added; the line is
        answered once it is whole."""
        server = make_server()
        try:
            connection = _Connection(None)
            line = b'{"op": "hello"' + b" " * 1_000 + b"}\n"
            pieces = [line[i : i + 100] for i in range(0, len(line), 100)]
            for piece in pieces[:-1]:
                connection.inbox += piece
                server._answer(connection)
                assert connection.scanned == len(connection.inbox) and not connection.outbox
            connection.inbox += pieces[-1]
            server._answer(connection)
            assert connection.scanned == 0 and not connection.inbox
            assert bytes(connection.outbox) == encode_message(
                {"ok": True, "version": PROTOCOL_VERSION}
            )
        finally:
            server.coordinator.close()

    def test_a_slow_reader_does_not_stall_other_clients(self, served_port):
        """A pipelines 50 000 requests and reads nothing; B still gets served,
        and A's replies all arrive, in order, once A reads."""
        lines = 50_000
        with connect(served_port) as slow, connect(served_port) as prompt:
            sender = threading.Thread(target=slow.sendall, args=(HELLO * lines,))
            sender.start()
            time.sleep(0.2)  # let the server fill A's socket and stop reading it
            started = time.monotonic()
            assert round_trip(prompt) == {"ok": True, "version": PROTOCOL_VERSION}
            assert time.monotonic() - started < 2.0
            reader = slow.makefile("rb")
            replies = [reader.readline() for _ in range(lines)]
            sender.join(timeout=30)
            assert not sender.is_alive()
            expected = encode_message({"ok": True, "version": PROTOCOL_VERSION})
            assert replies == [expected] * lines
            reader.close()

    def test_stop_from_another_thread_returns_and_closes_clients(self):
        server = make_server()
        try:
            server.start()
            serving = threading.Thread(target=server.serve_forever, daemon=True)
            serving.start()
            with connect(server.port) as first, connect(server.port) as second:
                for client in (first, second):
                    assert round_trip(client) == {"ok": True, "version": PROTOCOL_VERSION}
                started = time.monotonic()
                server.stop()
                serving.join(timeout=1.0)
                assert not serving.is_alive()
                assert time.monotonic() - started < 1.0
                assert first.recv(1) == b"" and second.recv(1) == b""
        finally:
            server.coordinator.close()

    def test_the_serve_process_imports_no_asyncio_or_ssl(self):
        process = serve_process("-X", "importtime")
        try:
            with connect(banner_port(process)) as client:
                assert round_trip(client) == {"ok": True, "version": PROTOCOL_VERSION}
        finally:
            process.send_signal(signal.SIGINT)
            stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 0
        assert "shutting down" in stdout.decode()
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in stderr.decode().splitlines()
            if line.startswith("import time:")
        }
        assert "repro.serving.server" in imported
        assert not {
            name for name in imported if name.split(".")[0] in ("asyncio", "ssl", "_ssl")
        }


class TestAutoEpochTicker:
    """The wall-clock epoch ticker under concurrent client load.

    Epoch boundaries here are *nondeterministic* (the ticker races the
    clients), but the accepted log records exactly which updates each
    committed epoch contained — so replaying the log through a fresh seed
    coordinator must still reproduce the served snapshot bit for bit, in
    both epoch modes.
    """

    CLIENTS = 4
    BATCHES_PER_CLIENT = 12
    UPDATES_PER_BATCH = 8

    @staticmethod
    def _batch_rows(client_id: int, seq: int):
        rng = random.Random(client_id * 10_007 + seq)
        rows = []
        for _ in range(TestAutoEpochTicker.UPDATES_PER_BATCH):
            start = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            fsa = Rectangle.from_center(
                Point(
                    min(max(start.x + rng.uniform(-150, 150), 0.0), 1000.0),
                    min(max(start.y + rng.uniform(-150, 150), 0.0), 1000.0),
                ),
                rng.uniform(10, 80),
            )
            # Timestamps far below any boundary the ticker will reach keep
            # every row admissible whatever epoch it happens to land in.
            rows.append(
                encode_update(
                    ObjectState(
                        rng.randrange(60), start, 0, fsa.low, fsa.high, 1
                    )
                )
            )
        return rows

    async def _drive(self, epoch_mode: str):
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS,
                window=1_000_000,  # nothing expires mid-run: keeps rows admissible
                cells_per_axis=32,
                num_shards=4,
                epoch_mode=epoch_mode,
            )
        )
        server = IngestionServer(
            coordinator,
            ServingConfig(port=0, auto_epoch_seconds=0.01, auto_epoch_timestamps=10),
            log=[],
        )
        with serving_thread(server):
            host, port = server.config.host, server.port

            async def client(client_id: int) -> None:
                wire = await _WireClient.connect(host, port)
                try:
                    for seq in range(self.BATCHES_PER_CLIENT):
                        ack = await wire.request(
                            {
                                "op": "batch",
                                "client": client_id,
                                "seq": seq,
                                "updates": self._batch_rows(client_id, seq),
                            }
                        )
                        assert ack["ok"], ack
                        # Spread the batches across several ticker intervals so
                        # the load genuinely interleaves with wall-clock commits.
                        await asyncio.sleep(0.003)
                finally:
                    await wire.close()

            await asyncio.gather(*(client(i) for i in range(self.CLIENTS)))
            # Drain: wait until the ticker has committed every accepted update.
            deadline = time.monotonic() + 5.0
            while (
                server.batcher.pending_updates or server.batcher.epochs_committed < 3
            ) and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert server.batcher.pending_updates == 0, "ticker never drained the queue"
            assert server.batcher.epochs_committed >= 3, (
                "the wall-clock ticker never fired three times"
            )
        # Read once the loop is gone: the ticker commits on its own thread.
        return (
            coordinator_snapshot(coordinator),
            list(server.batcher.accepted_log),
            server.batcher.accepted_updates,
        )

    def test_an_explicit_tick_cannot_kill_the_ticker(self):
        """A client tick at ``now=1000`` used to be committed, so the ticker's
        next boundary was stale: its task died, no epoch committed again and
        ``stop()`` re-raised the ``CoordinatorError``."""

        def drive():
            coordinator = Coordinator(
                CoordinatorConfig(bounds=BOUNDS, window=1_000_000, cells_per_axis=16)
            )
            server = IngestionServer(
                coordinator,
                ServingConfig(port=0, auto_epoch_seconds=0.01, auto_epoch_timestamps=10),
            )
            with serving_thread(server):
                # Over a socket: the loop thread, not this one, must run the
                # requests, or they would race the ticker.
                with connect(server.port) as client:
                    refused = round_trip(client, encode_message({"op": "tick", "now": 1000}))
                    rows = self._batch_rows(0, 0)
                    ack = round_trip(
                        client,
                        encode_message({"op": "batch", "client": 0, "seq": 0, "updates": rows}),
                    )
                deadline = time.monotonic() + 5.0
                while (
                    server.batcher.pending_updates or server.batcher.epochs_committed < 3
                ) and time.monotonic() < deadline:
                    time.sleep(0.01)
            return refused, ack, server.batcher.epochs_committed, server.batcher.pending_updates

        refused, ack, committed, pending = drive()
        assert refused["ok"] is False and "auto-ticker" in refused["error"]
        assert ack["ok"] is True
        assert committed >= 3 and pending == 0

    @pytest.mark.parametrize("epoch_mode", ["full", "delta"])
    def test_ticker_committed_state_replays_bit_for_bit(self, epoch_mode):
        snapshot, accepted_log, accepted = asyncio.run(self._drive(epoch_mode))
        assert accepted == self.CLIENTS * self.BATCHES_PER_CLIENT * self.UPDATES_PER_BATCH
        assert sum(len(rows) for _now, rows in accepted_log) == accepted
        # The served snapshot equals the seed replay of the ticker's log —
        # in both epoch modes, whatever boundaries the wall clock produced.
        for replay_mode in ("full", "delta"):
            assert snapshot == replay_accepted_log(
                accepted_log,
                window=1_000_000,
                cells_per_axis=32,
                fleet=FleetConfig(epoch_mode=replay_mode),
            ), f"served {epoch_mode} snapshot != {replay_mode} seed replay"
