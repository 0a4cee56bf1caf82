"""Scenario-based load harness with deterministic, seed-driven chaos.

This is the proving ground of the served front door.  A
:class:`BaseScenario` describes one traffic shape — how many clients, what
each sends per epoch, where in the monitored area — plus the latency and
throughput envelope the serving layer must meet for it
(:meth:`~BaseScenario.validate_result`).  Four shapes are registered:

* ``uniform_trickle`` — every client drips a small batch every epoch;
* ``bursty_downtown`` — a heterogeneous mix: most clients burst from a
  dense downtown corner while suburb clients trickle uniformly (a skewed
  load that piles most records onto a few cells of the shard grid);
* ``ramp`` — per-epoch load grows linearly, probing the knee;
* ``thundering_herd`` — near-silence, then every client reconnects at once
  and bursts (the reconnect storm after an outage).

:class:`ScenarioRunner` boots a real :class:`IngestionServer` on an
ephemeral port, runs its loop on a thread of its own, drives the scenario
over genuine TCP connections from asyncio clients, and
injects the fault an :class:`InjectionConfig` names (``fault=None``, the
default, injects nothing):

* ``drop_batch`` / ``duplicate_batch`` / ``reorder_batch`` — network
  faults applied to client batches before they reach the socket;
* ``kill_worker`` — hard-kill a process-backend build worker (addressed by
  worker index) between epochs and recover it through
  :meth:`ProcessBackend.restart_worker`;
* ``stall_epoch`` — withhold an epoch's tick so updates pile up against
  the bounded batcher queue (the backpressure path).

The fault schedule is a pure function of ``(seed, scenario plan)`` —
:func:`build_fault_schedule` draws its ``(epoch, where)`` sites from one
``random.Random(seed)`` in canonical order — so the same seed replays the
same kills, drops and stalls, which is what lets the chaos suite pin
recovery behaviour as a regression test.  Each fault that fires is recorded
once, as a :attr:`ScenarioResult.fault_events` tuple; the per-fault
counters are counts over that list.

**The equivalence contract.**  Every run yields the server's canonical
report snapshot and the batcher's accepted-update log.  For every
non-degrading fault, :func:`replay_accepted_log` feeding that log into a
fresh coordinator (the seed single-shard shape, or any fleet shape) must
reproduce the served snapshot **bit for bit** — the same bar as
``tests/test_differential.py``.  Degrading faults (dropped batches,
stalled epochs) must instead land exactly where their quantified path
predicts: accepted = submitted − dropped, commits move to the next
boundary, and the accepted-log replay still matches bit for bit.  An update
that is neither committed nor dropped by a fault once the run's bounded
drain gives up fails :meth:`BaseScenario.validate_result`.
"""

from __future__ import annotations

import asyncio
import math
import random
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.fleet import FleetConfig
from repro.serving import FAULT_TYPES
from repro.serving.protocol import decode_message, decode_update, encode_message, encode_update
from repro.serving.server import IngestionServer, ServingConfig

__all__ = [
    "FAULT_TYPES",
    "SCENARIOS",
    "BaseScenario",
    "UniformTrickleScenario",
    "BurstyDowntownScenario",
    "RampScenario",
    "ThunderingHerdScenario",
    "InjectionConfig",
    "FaultSchedule",
    "build_fault_schedule",
    "ScenarioResult",
    "ScenarioRunner",
    "get_scenario",
    "replay_accepted_log",
]

#: Monitored area every scenario plays in — matches the differential
#: harness bounds, so scenario streams stress the same shard borders.
BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))

#: Ticks the runner adds after the plan to commit retries and queued
#: updates; traffic still uncommitted after them fails validation.
_DRAIN_ROUNDS = 8

#: One planned batch: ``(client_id, seq, states)``.
PlannedBatch = Tuple[int, int, List[ObjectState]]


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


class BaseScenario(ABC):
    """One registered traffic shape with its validation envelope.

    Subclasses set the identity attributes and implement
    :meth:`epoch_batches` (how many updates each client sends per epoch).
    The update stream itself is generated by :meth:`plan` — seeded, drawn
    from a start-vertex pool that includes exact shard-border points (the
    same boundary stress as the differential harness) so serving runs
    exercise cross-shard paths, straddling FSAs and path reuse.

    The latency/throughput envelope is deliberately generous — it is a
    *serving-health gate* (a wedged event loop, a stuck epoch, a collapsed
    pipeline), not a micro-benchmark; the benchmark (``bench/``) measures
    the real numbers.
    """

    scenario_id: str = "base"
    description: str = ""
    num_clients: int = 8
    epochs: int = 6
    #: Close-and-reopen every client connection before this epoch index
    #: (``None`` = never) — the thundering-herd reconnect storm.
    reconnect_before_epoch: Optional[int] = None
    #: Validation envelope: p99 batch-ack latency ceiling (ms) and the
    #: sustained accepted-updates/second floor.
    max_p99_ack_ms: float = 2000.0
    min_updates_per_sec: float = 5.0

    def __init__(self, load_factor: float = 1.0) -> None:
        if not (math.isfinite(load_factor) and load_factor > 0):
            raise ConfigurationError(f"load_factor must be positive and finite, got {load_factor}")
        self.load_factor = load_factor

    # -- traffic shape ----------------------------------------------------------

    @abstractmethod
    def epoch_batches(self, rng: random.Random, epoch: int, client: int) -> List[int]:
        """Batch sizes this client sends this epoch (empty list = silent)."""

    def pick_start(
        self, rng: random.Random, pool: Sequence[Point], epoch: int, client: int
    ) -> Point:
        """Start vertex of one update; default draws from the shared pool."""
        return rng.choice(pool)

    def _scaled(self, size: float) -> int:
        return max(1, round(size * self.load_factor))

    # -- plan generation --------------------------------------------------------

    @staticmethod
    def _start_pool(rng: random.Random) -> List[Point]:
        pool = [
            Point(rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0))
            for _ in range(12)
        ]
        pool += [
            Point(500.0, 300.0),  # on the 2x2 vertical shard border
            Point(250.0, 750.0),  # on 4x4 borders
            Point(500.0, 500.0),  # corner of all four 2x2 shards
            Point(-20.0, 500.0),  # clamped into a border shard
        ]
        return pool

    def make_state(
        self,
        rng: random.Random,
        pool: Sequence[Point],
        epoch: int,
        client: int,
        boundary: int,
        epoch_length: int,
    ) -> ObjectState:
        start = self.pick_start(rng, pool, epoch, client)
        centre = Point(
            start.x + rng.uniform(-200.0, 200.0),
            start.y + rng.uniform(-200.0, 200.0),
        )
        fsa = Rectangle.from_center(centre, rng.uniform(5.0, 120.0))
        t_end = boundary - rng.randrange(epoch_length)
        object_id = client * 1000 + rng.randrange(8)
        return ObjectState(object_id, start, max(0, t_end - 5), fsa.low, fsa.high, t_end)

    def plan(self, seed: int, epoch_length: int = 10) -> List[List[PlannedBatch]]:
        """The scenario's full traffic plan: per epoch, batches in canonical
        ``(client, seq)`` order.  A pure function of ``seed``."""
        rng = random.Random(seed)
        pool = self._start_pool(rng)
        seqs: Dict[int, int] = {}
        epochs_plan: List[List[PlannedBatch]] = []
        for epoch in range(self.epochs):
            boundary = (epoch + 1) * epoch_length
            batches: List[PlannedBatch] = []
            for client in range(self.num_clients):
                for size in self.epoch_batches(rng, epoch, client):
                    if size <= 0:
                        continue
                    states = [
                        self.make_state(rng, pool, epoch, client, boundary, epoch_length)
                        for _ in range(size)
                    ]
                    seq = seqs.get(client, 0)
                    seqs[client] = seq + 1
                    batches.append((client, seq, states))
            epochs_plan.append(batches)
        return epochs_plan

    # -- validation -------------------------------------------------------------

    def validate_result(self, result: "ScenarioResult") -> List[str]:
        """Check the run against the scenario's envelope; returns violations."""
        errors: List[str] = []
        if result.ack_latency_p99_ms > self.max_p99_ack_ms:
            errors.append(
                f"p99 batch-ack latency {result.ack_latency_p99_ms:.1f} ms exceeds "
                f"the {self.max_p99_ack_ms:.0f} ms envelope"
            )
        if result.accepted_updates and result.updates_per_sec < self.min_updates_per_sec:
            errors.append(
                f"sustained throughput {result.updates_per_sec:.1f} updates/s is below "
                f"the {self.min_updates_per_sec:.0f} updates/s floor"
            )
        committed = sum(len(rows) for _boundary, rows in result.accepted_log)
        lost = result.submitted_updates - result.dropped_updates - committed
        if lost > 0:
            errors.append(
                f"{lost} of {result.submitted_updates} updates were neither committed nor "
                f"dropped by a fault after {_DRAIN_ROUNDS} drain rounds"
            )
        return errors


class UniformTrickleScenario(BaseScenario):
    scenario_id = "uniform_trickle"
    description = "every client drips one small batch per epoch, uniformly spread"

    def epoch_batches(self, rng, epoch, client):
        return [self._scaled(2)]


class BurstyDowntownScenario(BaseScenario):
    scenario_id = "bursty_downtown"
    description = (
        "70% of clients burst from a dense downtown corner in alternating "
        "epochs; the rest trickle from the suburbs — a skewed mix"
    )
    num_clients = 10

    def _downtown(self, client: int) -> bool:
        return client < (self.num_clients * 7) // 10

    def pick_start(self, rng, pool, epoch, client):
        if self._downtown(client):
            return Point(rng.uniform(0.0, 250.0), rng.uniform(0.0, 250.0))
        return rng.choice(pool)

    def epoch_batches(self, rng, epoch, client):
        if self._downtown(client):
            return [self._scaled(6)] if (epoch + client) % 2 == 0 else [self._scaled(1)]
        return [self._scaled(1)]


class RampScenario(BaseScenario):
    scenario_id = "ramp"
    description = "per-client batch size grows linearly with the epoch index"
    num_clients = 6

    def epoch_batches(self, rng, epoch, client):
        return [self._scaled(2 * (epoch + 1))]


class ThunderingHerdScenario(BaseScenario):
    scenario_id = "thundering_herd"
    description = (
        "one scout trickles while the fleet idles; then every client "
        "reconnects at once and bursts (post-outage reconnect storm)"
    )
    num_clients = 12
    #: The herd reconnects, then bursts, at epoch 3 of 6.
    reconnect_before_epoch = 3

    def epoch_batches(self, rng, epoch, client):
        if epoch < self.reconnect_before_epoch:
            return [self._scaled(1)] if client == 0 else []
        if epoch == self.reconnect_before_epoch:
            return [self._scaled(5)]
        return [self._scaled(1)]


SCENARIOS: Dict[str, Type[BaseScenario]] = {
    cls.scenario_id: cls
    for cls in (
        UniformTrickleScenario,
        BurstyDowntownScenario,
        RampScenario,
        ThunderingHerdScenario,
    )
}


def get_scenario(name: str, load_factor: float = 1.0) -> BaseScenario:
    """Instantiate a registered scenario by id."""
    try:
        return SCENARIOS[name](load_factor)
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {', '.join(sorted(SCENARIOS))}"
        ) from None


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InjectionConfig:
    """Seed-driven fault injection; ``fault=None`` (the default) injects nothing.

    ``fault`` selects one class from :data:`FAULT_TYPES`; ``rate`` is the
    per-batch (drop, duplicate) or per-epoch (reorder, kill, stall)
    injection probability; ``seed`` makes the whole schedule a pure
    function of the configuration — same seed, same kills.
    """

    fault: Optional[str] = None
    rate: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fault is None:
            return
        if self.fault not in FAULT_TYPES:
            raise ConfigurationError(
                f"fault must be one of {', '.join(FAULT_TYPES)}, got {self.fault!r}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ConfigurationError(f"rate must be in (0, 1], got {self.rate}")


@dataclass(frozen=True)
class FaultSchedule:
    """The concrete fault plan drawn for one run — pinned by the chaos suite.

    ``sites`` are ``(epoch, where)`` pairs in epoch order.  ``where`` is the
    batch's canonical slot for ``drop_batch`` / ``duplicate_batch``, the
    first of two adjacent send positions to swap for ``reorder_batch``, a
    uniform draw selecting the worker for ``kill_worker`` and ``None`` for
    ``stall_epoch``.
    """

    fault: Optional[str] = None
    sites: Tuple[Tuple[int, Any], ...] = ()

    def at(self, epoch: int) -> List[Any]:
        """The ``where`` of every site in ``epoch``."""
        return [where for site_epoch, where in self.sites if site_epoch == epoch]


def build_fault_schedule(
    injection: InjectionConfig, plan: Sequence[Sequence[PlannedBatch]]
) -> FaultSchedule:
    """Draw the run's fault schedule — a pure function of (config, plan shape).

    Decisions are drawn from one ``random.Random(seed)`` walking the plan in
    canonical order.  When the probability draws produce no fault at all,
    one is forced at a deterministic position, so an injection is never
    vacuous (and the chaos suite never passes by accident).
    """
    fault = injection.fault
    if fault is None:
        return FaultSchedule()
    rng = random.Random(injection.seed)
    sites: List[Tuple[int, Any]] = []
    for epoch, batches in enumerate(plan):
        if fault in ("drop_batch", "duplicate_batch"):
            sites += [
                (epoch, slot) for slot in range(len(batches)) if rng.random() < injection.rate
            ]
        elif fault == "reorder_batch":
            if len(batches) >= 2 and rng.random() < injection.rate:
                sites.append((epoch, rng.randrange(len(batches) - 1)))
        elif rng.random() < injection.rate:
            if fault == "stall_epoch":
                sites.append((epoch, None))
            elif epoch > 0:
                # Workers spawn on the first committed epoch, so never
                # schedule a kill before anything has run.
                sites.append((epoch, rng.random()))
    if not sites:
        if fault in ("drop_batch", "duplicate_batch"):
            sites.append((next((e for e, batches in enumerate(plan) if batches), 0), 0))
        elif fault == "reorder_batch":
            two = next((e for e, batches in enumerate(plan) if len(batches) >= 2), None)
            if two is not None:
                sites.append((two, 0))
        elif fault == "kill_worker":
            sites.append((1 if len(plan) > 1 else 0, rng.random()))
        else:
            sites.append((min(1, len(plan) - 1), None))
    return FaultSchedule(fault, tuple(sites))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _fault_count(fault: str) -> property:
    return property(lambda result: sum(event[0] == fault for event in result.fault_events))


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, measured and pinned.

    ``fault_events`` is the one record of what fired: one tuple per fault,
    its class first; the per-class counters below count it.
    """

    scenario_id: str
    fleet: FleetConfig
    injection: InjectionConfig
    # Traffic accounting.
    submitted_updates: int = 0
    accepted_updates: int = 0
    dropped_updates: int = 0
    duplicate_acks: int = 0
    backpressure_rejections: int = 0
    retried_batches: int = 0
    reconnects: int = 0
    epochs_run: int = 0
    fault_events: List[Tuple] = field(default_factory=list)
    # Determinism artifacts.
    accepted_log: List[Tuple[int, List[List[Any]]]] = field(default_factory=list)
    report: Dict[str, Any] = field(default_factory=dict)
    server_stats: Dict[str, Any] = field(default_factory=dict)
    # Performance (excluded from determinism pins).
    elapsed_seconds: float = 0.0
    updates_per_sec: float = 0.0
    ack_latency_p50_ms: float = 0.0
    ack_latency_p99_ms: float = 0.0
    validation_errors: List[str] = field(default_factory=list)

    dropped_batches = _fault_count("drop_batch")
    duplicated_batches = _fault_count("duplicate_batch")
    reordered_swaps = _fault_count("reorder_batch")
    worker_kills = _fault_count("kill_worker")
    stalled_epochs = _fault_count("stall_epoch")

    @property
    def passed(self) -> bool:
        return not self.validation_errors


class _WireClient:
    """One client connection speaking the line protocol."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "_WireClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._writer.write(encode_message(payload))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return decode_message(line)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class ScenarioRunner:
    """Runs scenarios against a real served coordinator and validates them.

    The default mode is *deterministic*: batches are sent in canonical order
    and each ack is awaited before the next send, so runs — backpressure
    rejections and retries included — are a pure function of (scenario seed,
    injection seed, fleet shape), which is what the chaos suite pins.
    ``concurrent=True`` instead races every client's sends within an epoch
    (the load-measurement mode); the batcher's canonical ordering makes even
    those runs bit-for-bit replayable from the accepted log.
    """

    def __init__(
        self,
        fleet: FleetConfig = FleetConfig(num_shards=4),
        window: int = 60,
        cells_per_axis: int = 32,
        epoch_length: int = 10,
        max_pending_updates: int = 100_000,
        bounds: Rectangle = BOUNDS,
    ) -> None:
        self.fleet = fleet
        self.window = window
        self.cells_per_axis = cells_per_axis
        self.epoch_length = epoch_length
        self.max_pending_updates = max_pending_updates
        self.bounds = bounds

    def coordinator_config(self) -> CoordinatorConfig:
        return CoordinatorConfig(
            bounds=self.bounds,
            window=self.window,
            cells_per_axis=self.cells_per_axis,
            **asdict(self.fleet),
        )

    def run(
        self,
        scenario,
        seed: int = 0,
        injection: InjectionConfig = InjectionConfig(),
        concurrent: bool = False,
    ) -> ScenarioResult:
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        return asyncio.run(self._run(scenario, seed, injection, concurrent))

    # -- the run ---------------------------------------------------------------

    async def _run(
        self,
        scenario: BaseScenario,
        seed: int,
        injection: InjectionConfig,
        concurrent: bool,
    ) -> ScenarioResult:
        plan = scenario.plan(seed, self.epoch_length)
        schedule = build_fault_schedule(injection, plan)
        result = ScenarioResult(scenario.scenario_id, self.fleet, injection)
        result.submitted_updates = sum(len(batch[2]) for batches in plan for batch in batches)
        coordinator = Coordinator(self.coordinator_config())
        server = IngestionServer(
            coordinator,
            ServingConfig(port=0, max_pending_updates=self.max_pending_updates),
            log=result.accepted_log,
        )
        server.start()
        # The server loop is the only thread touching the coordinator while
        # requests are in flight; this thread reads the batcher only after
        # its requests are acked, and kills a worker with none in flight.
        serving = threading.Thread(target=server.serve_forever, name="repro-serve")
        serving.start()
        host, port = server.config.host, server.port
        control: Optional[_WireClient] = None
        clients: Dict[int, _WireClient] = {}
        ack_latencies: List[float] = []
        retry_queue: List[Tuple[int, int, List[List[Any]]]] = []
        now = 0
        try:
            control = await _WireClient.connect(host, port)
            for client_id in range(scenario.num_clients):
                clients[client_id] = await _WireClient.connect(host, port)
            started = time.perf_counter()

            async def send_batch(client_id: int, seq: int, rows: List[List[Any]]) -> bool:
                """Send one batch, account the ack; returns acceptance."""
                sent = time.perf_counter()
                ack = await clients[client_id].request(
                    {"op": "batch", "client": client_id, "seq": seq, "updates": rows}
                )
                ack_latencies.append(time.perf_counter() - sent)
                if ack.get("ok"):
                    if ack.get("duplicate"):
                        result.duplicate_acks += 1
                    return True
                if ack.get("error") == "backpressure":
                    result.backpressure_rejections += 1
                    retry_queue.append((client_id, seq, rows))
                    return False
                raise ConfigurationError(f"unexpected batch rejection: {ack}")

            async def flush_retries() -> None:
                """Resend the backpressure-rejected batches, oldest first."""
                pending = retry_queue[:]
                retry_queue.clear()
                for client_id, seq, rows in pending:
                    if await send_batch(client_id, seq, rows):
                        result.retried_batches += 1

            async def send_client(epoch: int, client_id: int, entries) -> None:
                """One client's batches in order; a duplicated one is redelivered."""
                for batch_seq, rows, duplicated in entries:
                    if await send_batch(client_id, batch_seq, rows) and duplicated:
                        result.fault_events.append(
                            ("duplicate_batch", epoch, client_id, batch_seq)
                        )
                        await send_batch(client_id, batch_seq, rows)

            for epoch_index, batches in enumerate(plan):
                if scenario.reconnect_before_epoch == epoch_index:
                    # The herd: every client drops its connection and
                    # reconnects at once before bursting.
                    await asyncio.gather(*(c.close() for c in clients.values()))
                    connects = [_WireClient.connect(host, port) for _ in clients]
                    clients = dict(enumerate(await asyncio.gather(*connects)))
                    result.reconnects += scenario.num_clients

                # Retries of backpressure-rejected batches go first — the
                # client has been waiting since the last commit.
                await flush_retries()

                # Materialize this epoch's send list and apply the network
                # faults: drops and duplicates are marked on canonical slot
                # positions, then reorder swaps scramble the send order.
                here = schedule.at(epoch_index)
                send_list: List[Tuple[int, Tuple[int, List[List[Any]], bool]]] = []
                for slot, (client_id, batch_seq, states) in enumerate(batches):
                    rows = [encode_update(state) for state in states]
                    if schedule.fault == "drop_batch" and slot in here:
                        result.dropped_updates += len(rows)
                        result.fault_events.append(
                            ("drop_batch", epoch_index, client_id, batch_seq)
                        )
                        continue
                    duplicated = schedule.fault == "duplicate_batch" and slot in here
                    send_list.append((client_id, (batch_seq, rows, duplicated)))
                if schedule.fault == "reorder_batch":
                    for position in here:
                        pair = send_list[position : position + 2]
                        send_list[position : position + 2] = pair[::-1]
                        result.fault_events.append(("reorder_batch", epoch_index, position))

                if concurrent:
                    per_client: Dict[int, list] = {}
                    for client_id, entry in send_list:
                        per_client.setdefault(client_id, []).append(entry)
                    sends = [send_client(epoch_index, *group) for group in per_client.items()]
                    await asyncio.gather(*sends)
                else:
                    for client_id, entry in send_list:
                        await send_client(epoch_index, client_id, [entry])

                # Infrastructure faults fire at the epoch boundary, before
                # the tick — mid-stream from the clients' point of view.
                if schedule.fault == "kill_worker":
                    for draw in here:
                        worker = self._inject_kill(coordinator, draw)
                        if worker is not None:
                            result.fault_events.append(("kill_worker", epoch_index, worker))
                now = (epoch_index + 1) * self.epoch_length
                if schedule.fault == "stall_epoch" and here:
                    # Withhold the tick: this epoch's updates stay queued
                    # (pressing against the bounded queue) and commit at the
                    # next boundary that does tick.
                    result.fault_events.append(("stall_epoch", epoch_index))
                    continue
                await control.request({"op": "tick", "now": now})
                result.epochs_run += 1

            # Drain: flush retries and anything a stalled final epoch left
            # queued, ticking forward until the server is empty — or the
            # bound runs out, which the validation gate then reports.
            for _ in range(_DRAIN_ROUNDS):
                if not (retry_queue or server.batcher.pending_updates):
                    break
                await flush_retries()
                now += self.epoch_length
                await control.request({"op": "tick", "now": now})
                result.epochs_run += 1

            result.elapsed_seconds = time.perf_counter() - started
            stats_ack = await control.request({"op": "stats"})
            snapshot_ack = await control.request({"op": "snapshot"})
            result.server_stats = stats_ack["stats"]
            result.report = snapshot_ack["snapshot"]
            result.accepted_updates = server.batcher.accepted_updates
        finally:
            await asyncio.gather(
                *(c.close() for c in clients.values()), return_exceptions=True
            )
            if control is not None:
                await control.close()
            server.stop()
            serving.join()
            coordinator.close()

        if result.elapsed_seconds > 0:
            result.updates_per_sec = result.accepted_updates / result.elapsed_seconds
        if ack_latencies:
            samples = sorted(ack_latencies)
            result.ack_latency_p50_ms = samples[len(samples) // 2] * 1000.0
            result.ack_latency_p99_ms = (
                samples[min(len(samples) - 1, int(0.99 * len(samples)))] * 1000.0
            )
        result.validation_errors = scenario.validate_result(result)
        return result

    def _inject_kill(self, coordinator, draw: float) -> Optional[int]:
        """Kill the drawn worker, then restart it; returns its index.

        ``None`` (not fired) unless the processes backend has spawned workers.
        """
        backend = coordinator.strategy.backend
        if backend.name != "processes" or backend.worker_count == 0:
            return None
        worker = min(backend.worker_count - 1, int(draw * backend.worker_count))
        backend.kill_worker(worker)
        backend.restart_worker(worker)
        return worker


# ---------------------------------------------------------------------------
# Seed replay (the equivalence contract's other half)
# ---------------------------------------------------------------------------


def replay_accepted_log(
    accepted_log: Sequence[Tuple[int, Sequence[Sequence[Any]]]],
    *,
    bounds: Rectangle = BOUNDS,
    window: int = 60,
    cells_per_axis: int = 32,
    fleet: FleetConfig = FleetConfig(),
) -> Dict[str, Any]:
    """Replay an accepted-update log into a fresh coordinator; return its snapshot.

    The defaults build the *seed* shape — single shard, serial, the paper's
    architecture — so ``replay_accepted_log(result.accepted_log)`` is the
    reference every served run is compared against bit for bit.  Another
    ``fleet`` replays the same log through that fleet (answers must not
    change).
    """
    from repro.serving.protocol import coordinator_snapshot

    config = CoordinatorConfig(
        bounds=bounds, window=window, cells_per_axis=cells_per_axis, **asdict(fleet)
    )
    coordinator = Coordinator(config)
    try:
        for boundary, rows in accepted_log:
            for row in rows:
                coordinator.submit_state(decode_update(row))
            coordinator.run_epoch(boundary)
        return coordinator_snapshot(coordinator)
    finally:
        coordinator.close()
