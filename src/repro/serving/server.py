"""Asyncio TCP front end serving the coordinator protocol.

:class:`IngestionServer` is the deployment shape of the paper's protocol:
many concurrent clients hold plain TCP connections and stream
newline-delimited JSON requests (see :mod:`repro.serving.protocol`); the
server feeds accepted batches through one :class:`EpochBatcher` into a
single :class:`Coordinator`.

Concurrency model: the event loop is the serialization point.  Reading and
buffering happen concurrently per connection, but each decoded request is
dispatched synchronously on the loop thread, so batcher admission and epoch
commits are atomic with respect to each other without locks.  An epoch
commit (``tick``) blocks the loop for one ``run_epoch`` — deliberate: the
epoch boundary is a barrier in the paper's protocol, and everything queued
behind it lands in the *next* epoch whatever socket it arrived on.

Epoch driving is explicit by default (clients or the harness send ``tick``
with a strictly-increasing boundary timestamp, keeping runs deterministic
and replayable); a live deployment sets ``auto_epoch_seconds`` to commit
epochs on a wall-clock cadence instead.  The two never mix: while the
ticker runs, an explicit ``tick`` is refused, so no client can hand the
ticker a boundary it has already passed.
"""

from __future__ import annotations

import asyncio
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
        if self.auto_epoch_seconds is not None and self.auto_epoch_seconds <= 0:
            raise ConfigurationError(
                f"auto_epoch_seconds must be positive, got {self.auto_epoch_seconds}"
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
        self._server: Optional[asyncio.AbstractServer] = None
        self._ticker: Optional[asyncio.Task] = None
        self._handlers: set = set()
        self._next_auto_now = config.auto_epoch_timestamps
        self.connections_served = 0
        self.protocol_errors = 0

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        if self.config.auto_epoch_seconds is not None:
            self._ticker = asyncio.get_running_loop().create_task(self._auto_epoch_loop())

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None or not self._server.sockets:
            raise ConfigurationError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            try:
                await self._ticker
            except asyncio.CancelledError:
                pass
            self._ticker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Reap connection handlers still parked in readline (a client that
        # disconnected without the handler observing EOF yet): cancel and
        # await them here so nothing leaks into loop teardown.
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_message({"ok": False, "error": "line too long"}))
                    await writer.drain()
                    break
                if not line:
                    break
                response = self.handle_line(line)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Cancelled by stop() reaping handlers; exit quietly.
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            # Close without awaiting wait_closed(): when the peer already
            # disconnected, 3.11's wait_closed can hang until loop teardown
            # cancels the handler task (gh-104340); close() alone schedules
            # the transport teardown and lets the handler finish cleanly.
            writer.close()

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
            paths = self.coordinator.top_k(k, by_score=bool(message.get("by_score", False)))
            return {"ok": True, "paths": [encode_scored_path(s) for s in paths]}
        if op == "corridors":
            corridors = self.coordinator.top_k_corridors(self._requested_k(message))
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
        if self._ticker is not None:
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

    async def _auto_epoch_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.auto_epoch_seconds)
            self.batcher.close_epoch(self._next_auto_now)
            self._next_auto_now += self.config.auto_epoch_timestamps

    # -- reporting --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        stats = self.batcher.stats()
        stats["connections"] = self.connections_served
        stats["protocol_errors"] = self.protocol_errors
        stats["index_size"] = self.coordinator.index_size()
        return stats
