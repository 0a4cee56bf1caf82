"""Plain-TCP front end serving the coordinator protocol on one ``selectors`` loop.

:class:`IngestionServer` is the deployment shape of the paper's protocol:
many concurrent clients hold plain TCP connections and stream
newline-delimited JSON requests (see :mod:`repro.serving.protocol`); the
server feeds accepted batches through one :class:`EpochBatcher` into a
single :class:`Coordinator`.

Concurrency model: one thread runs one ``selectors`` loop, and that loop is
the serialization point.  Each connection has an inbox and an outbox; every
complete line is dispatched synchronously on the loop thread, one at a time,
so batcher admission and epoch commits are atomic with respect to each
other without locks.  An epoch commit (``tick``) blocks the loop for one
``run_epoch`` — deliberate: the epoch boundary is a barrier in the paper's
protocol, and everything queued behind it lands in the *next* epoch whatever
socket it arrived on.  While a connection's outbox holds more than
:data:`HIGH_WATER` bytes the loop neither reads from it nor answers its
buffered lines, so a client that stops reading its replies stalls only
itself.  A line longer than ``MAX_LINE_BYTES`` gets one ``"line too long"``
reply, then its connection closes.  A socket error, or an unexpected
exception while answering a line, closes only the connection it came from
(the latter is logged); running out of file descriptors pauses accepting
for :data:`ACCEPT_RETRY_SECONDS`.  The loop is the standard library's
``selectors`` and ``socket`` alone, so a served process loads no event-loop
framework and no ``ssl``.

Epoch driving is explicit by default (clients or the harness send ``tick``
with a strictly-increasing boundary timestamp, keeping runs deterministic
and replayable); a live deployment sets ``auto_epoch_seconds`` to commit
epochs on a wall-clock cadence instead: the period is the loop's select
timeout, and the next commit is due one period after the last one
finished.  The two never mix: while the ticker runs, an explicit ``tick`` is
refused, so no client can hand the ticker a boundary it has already passed.
"""

from __future__ import annotations

import errno
import logging
import math
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.errors import ConfigurationError, ReproError
from repro.serving.batcher import EpochBatcher
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    _wire_integer,
    coordinator_snapshot,
    decode_message,
    decode_update,
    encode_corridor,
    encode_message,
    encode_scored_path,
)

__all__ = ["ServingConfig", "IngestionServer"]

#: While a connection's unsent replies exceed this many bytes the loop stops
#: reading from it (the standard library's default write high-water mark for
#: stream transports).
HIGH_WATER = 64 * 1024

#: Bytes asked of one ``recv``.
_READ_SIZE = 256 * 1024

#: How long the loop stops accepting after ``accept`` runs out of file
#: descriptors or memory (the standard library's event loop waits as long).
ACCEPT_RETRY_SECONDS = 1.0

#: ``accept`` errors that pause accepting instead of skipping one client.
_ACCEPT_EXHAUSTED = (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServingConfig:
    """Front-door configuration.

    ``port=0`` binds an ephemeral port (the default — tests and the smoke
    gate read the bound port back).  ``max_pending_updates`` bounds the
    batcher queue (the backpressure knob).  ``auto_epoch_seconds`` enables
    the wall-clock epoch ticker: every interval the server commits an epoch
    advancing the coordinator clock by ``auto_epoch_timestamps``; ``None``
    (default) leaves epoch boundaries to explicit ``tick`` requests.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending_updates: int = 100_000
    auto_epoch_seconds: Optional[float] = None
    auto_epoch_timestamps: int = 10

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.max_pending_updates < 1:
            raise ConfigurationError(
                f"max_pending_updates must be at least 1, got {self.max_pending_updates}"
            )
        seconds = self.auto_epoch_seconds
        if seconds is not None and not (math.isfinite(seconds) and seconds > 0):
            raise ConfigurationError(
                f"auto_epoch_seconds must be positive and finite, got {seconds}"
            )
        if self.auto_epoch_timestamps < 1:
            raise ConfigurationError(
                f"auto_epoch_timestamps must be at least 1, got {self.auto_epoch_timestamps}"
            )


class IngestionServer:
    """Serves one coordinator over newline-delimited JSON on TCP.

    ``log`` is forwarded to the :class:`EpochBatcher`: an in-process caller
    that wants the accepted log passes a list to collect it.
    """

    def __init__(
        self,
        coordinator,
        config: ServingConfig = ServingConfig(),
        log: Optional[List] = None,
    ) -> None:
        self.coordinator = coordinator
        self.config = config
        self.batcher = EpochBatcher(
            coordinator, max_pending_updates=config.max_pending_updates, log=log
        )
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._wake: Optional[socket.socket] = None
        self._stopping = False
        self._ticking = False
        self._accept_paused_until: Optional[float] = None
        self._next_auto_now = config.auto_epoch_timestamps
        self.connections_served = 0
        self.protocol_errors = 0

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Bind the listener; :meth:`serve_forever` then answers on it."""
        host = self.config.host
        # getaddrinfo picks the family, so ``--host ::1`` binds IPv6.  An ASCII
        # host goes in as bytes: a str would load the IDNA codec and
        # ``unicodedata`` (~0.4 MiB resident) just to encode it.
        family, _, _, _, address = socket.getaddrinfo(
            (host.encode() if host.isascii() else host) or None,
            self.config.port,
            type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )[0]
        listener = socket.create_server(address, family=family)
        listener.setblocking(False)
        wake_read, self._wake = socket.socketpair()
        wake_read.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(wake_read, selectors.EVENT_READ)
        self._listener = listener
        self._stopping = False
        self._ticking = self.config.auto_epoch_seconds is not None
        self._accept_paused_until = None

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        if self._listener is None:
            raise ConfigurationError("server is not started")
        return self._listener.getsockname()[1]

    def stop(self) -> None:
        """Make :meth:`serve_forever` return; safe to call from any thread."""
        self._stopping = True
        wake = self._wake
        if wake is not None:
            try:
                wake.send(b"\0")
            except OSError:  # the loop already closed it on its way out
                pass

    def serve_forever(self) -> None:
        """Run the loop until :meth:`stop`, then close every socket."""
        if self._listener is None:
            self.start()
        period = self.config.auto_epoch_seconds
        due = None if period is None else time.monotonic() + period
        try:
            while not self._stopping:
                deadlines = [t for t in (due, self._accept_paused_until) if t is not None]
                timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
                for key, events in self._selector.select(timeout):
                    if key.data is not None:
                        self._serve_connection(key.data, events)
                    elif key.fileobj is self._listener:
                        self._accept()
                    else:
                        key.fileobj.recv(64)  # stop()'s wake-up byte
                paused_until = self._accept_paused_until
                if paused_until is not None and time.monotonic() >= paused_until:
                    self._selector.register(self._listener, selectors.EVENT_READ)
                    self._accept_paused_until = None
                if due is not None and time.monotonic() >= due:
                    self.batcher.close_epoch(self._next_auto_now)
                    self._next_auto_now += self.config.auto_epoch_timestamps
                    due = time.monotonic() + period
        finally:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._listener.close()  # unregistered while accepting is paused
            self._selector.close()
            self._wake.close()
            self._selector = self._listener = self._wake = None
            self._ticking = False

    # -- connection handling ----------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _address = self._listener.accept()
        except OSError as exc:
            # Nothing pending, or the client gave up first (Linux also reports
            # a pending connection's network error here): skip it.  Out of
            # descriptors or memory: stop accepting for a while.
            if exc.errno in _ACCEPT_EXHAUSTED:
                _log.warning("accept failed (%s); pausing for %ss", exc, ACCEPT_RETRY_SECONDS)
                self._selector.unregister(self._listener)
                self._accept_paused_until = time.monotonic() + ACCEPT_RETRY_SECONDS
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(sock, selectors.EVENT_READ, _Connection(sock))
        self.connections_served += 1

    def _serve_connection(self, connection: "_Connection", events: int) -> None:
        sock = connection.sock
        try:
            if events & selectors.EVENT_READ:
                data = sock.recv(_READ_SIZE)
                if data:
                    connection.inbox += data
                else:
                    connection.eof = True
            # Answer and send until the inbox holds no answerable line or
            # the peer stops taking replies (then EVENT_WRITE resumes us).
            while True:
                self._answer(connection)
                paused = len(connection.outbox) > HIGH_WATER
                if connection.outbox:
                    try:
                        del connection.outbox[: sock.send(connection.outbox)]
                    except BlockingIOError:
                        break
                if not paused or len(connection.outbox) > HIGH_WATER:
                    break
        except OSError:  # reset, broken pipe, timed out, unreachable: this peer only
            connection.inbox.clear()
            connection.outbox.clear()
            connection.eof = True
        except Exception:
            # A bug answering one line drops that line's connection, not the
            # server; replies already queued are still sent before it closes.
            _log.exception("closing a connection after an unexpected error")
            connection.inbox.clear()
            connection.eof = True
        if connection.eof and not (connection.inbox or connection.outbox):
            self._selector.unregister(sock)
            try:
                # FIN before close: a peer that still has bytes in flight to
                # us would otherwise see a reset instead of our last reply.
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            sock.close()
            return
        wanted = selectors.EVENT_WRITE if connection.outbox else 0
        if not (connection.eof or len(connection.outbox) > HIGH_WATER):
            wanted |= selectors.EVENT_READ
        if wanted != connection.events:
            self._selector.modify(sock, wanted, connection)
            connection.events = wanted

    def _answer(self, connection: "_Connection") -> None:
        """Answer the inbox's complete lines while the outbox is under
        :data:`HIGH_WATER`; an unterminated line is answered at EOF."""
        inbox, outbox, start = connection.inbox, connection.outbox, 0
        scanned, connection.scanned = connection.scanned, 0
        while start < len(inbox) and len(outbox) <= HIGH_WATER:
            end = inbox.find(b"\n", max(start, scanned))
            if end < 0 and len(inbox) - start <= MAX_LINE_BYTES:
                if not connection.eof:
                    connection.scanned = len(inbox) - start
                    break
                end = len(inbox) - 1
            if end < 0 or end - start > MAX_LINE_BYTES:
                outbox += encode_message({"ok": False, "error": "line too long"})
                connection.eof = True
                start = len(inbox)
                break
            outbox += encode_message(self.handle_line(bytes(inbox[start : end + 1])))
            start = end + 1
        del inbox[:start]

    # -- request dispatch (synchronous: the loop thread is the serialization
    # point, so admission and commits never interleave) -------------------------

    def handle_line(self, line: bytes) -> Dict[str, Any]:
        try:
            return self.dispatch(decode_message(line))
        except ProtocolError as exc:
            self.protocol_errors += 1
            return {"ok": False, "error": str(exc)}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}

    def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        if op == "batch":
            return self._handle_batch(message)
        if op == "tick":
            return self._handle_tick(message)
        if op == "topk":
            k = self._requested_k(message)
            paths = self.coordinator.top_k(k, by_score=self._requested_by_score(message))
            return {"ok": True, "paths": [encode_scored_path(s) for s in paths]}
        if op == "corridors":
            corridors = self.coordinator.top_k_corridors(
                self._requested_k(message), by_score=self._requested_by_score(message)
            )
            return {"ok": True, "corridors": [encode_corridor(c) for c in corridors]}
        if op == "snapshot":
            return {"ok": True, "snapshot": coordinator_snapshot(self.coordinator)}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "hello":
            return {"ok": True, "version": PROTOCOL_VERSION}
        raise ProtocolError(f"unknown op {op!r}")

    @staticmethod
    def _requested_k(message: Dict[str, Any]) -> int:
        try:
            return _wire_integer(message.get("k", 10), "k")
        except ProtocolError as exc:
            raise ProtocolError(f"malformed k: {exc}") from None

    @staticmethod
    def _requested_by_score(message: Dict[str, Any]) -> bool:
        """A JSON ``true`` or ``false``; a missing field is ``false``."""
        by_score = message.get("by_score", False)
        if by_score is not True and by_score is not False:
            raise ProtocolError(f"malformed by_score: {by_score!r} is not true or false")
        return by_score

    def _handle_batch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            client_id = _wire_integer(message["client"], "client")
            seq = _wire_integer(message["seq"], "seq")
            rows = message["updates"]
        except KeyError as exc:
            raise ProtocolError(f"malformed batch: missing {exc}") from None
        if not isinstance(rows, list):
            raise ProtocolError("batch updates must be a list")
        states = [decode_update(row) for row in rows]
        decision = self.batcher.offer(client_id, seq, states)
        payload = decision.as_payload()
        payload["seq"] = seq
        return payload

    def _handle_tick(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self._ticking:
            return {"ok": False, "error": "epochs are ticked by the server's auto-ticker"}
        try:
            now = _wire_integer(message["now"], "now")
        except KeyError:
            raise ProtocolError("malformed tick: missing 'now'") from None
        outcome = self.batcher.close_epoch(now)
        return {
            "ok": True,
            "epoch": {
                "timestamp": outcome.timestamp,
                "states_processed": outcome.states_processed,
                "paths_inserted": outcome.paths_inserted,
                "paths_reused": outcome.paths_reused,
                "paths_expired": outcome.paths_expired,
                "responses": [
                    [r.object_id, r.endpoint.x, r.endpoint.y, r.timestamp]
                    for r in outcome.responses
                ],
            },
        }

    # -- reporting --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        stats = self.batcher.stats()
        stats["connections"] = self.connections_served
        stats["protocol_errors"] = self.protocol_errors
        stats["index_size"] = self.coordinator.index_size()
        return stats


class _Connection:
    """One client socket's buffers and the events the loop watches it for."""

    __slots__ = ("sock", "inbox", "outbox", "events", "eof", "scanned")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbox = bytearray()
        self.outbox = bytearray()
        self.events = selectors.EVENT_READ
        # Nothing more is read: the peer sent EOF, a line was refused or the
        # connection reset.  It closes once inbox and outbox are empty.
        self.eof = False
        # Bytes at the inbox's head already searched for a newline in vain,
        # so a line trickling in is scanned once, not once per ``recv``.
        self.scanned = 0
