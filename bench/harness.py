"""Closed-loop drivers for the five workloads, their timers and the oracle.

Every workload is driven through one interface — ``build`` a system, call
``epoch()`` a fixed number of times, ``snapshot`` it, ``close`` it — with
three implementations:

* :class:`FleetSystem` submits a generated state stream to an in-process
  ``Coordinator`` (``fleet_dense``, ``fleet_steady``, ``fleet_procs``);
* :class:`SimSystem` is the paper's Section 6 loop, owned here: workload
  step, RayTrace filters, coordinator, responses fed back (``sim_paper``);
* :class:`ServedSystem` talks the line protocol to a real
  ``python -m repro serve`` subprocess over two TCP connections
  (``serve_closed``).

All loops are closed: a reporter has one report outstanding until its epoch's
response, so the caller waits and a slower system receives less load.  Input
generation is never inside a timer.  Layers are measured from outside — the
timers here wrap calls into public functions; in a traced run
:mod:`bench.trace` additionally wraps the layers' own public callables.

The reference box is a shared VM whose neighbours slow everything on it by
20-60 % for seconds to minutes at a time (README, "Noise"), so raw timings
there measure the neighbours.  Two corrections, both outside every timer:

* an untraced run makes :data:`PASSES` passes — fresh system, warm-up, the same
  timed epochs — over the identical stream, and every epoch's cost is the
  mean of its two cheapest passes: the work of epoch *i* is the same in every
  pass, so the cheap end discards interference and nothing else, and the
  percentiles over epochs still describe the workload;
* a :class:`SpeedProbe` reading is taken between every two epochs and each
  epoch's timings are scaled to the speed the box has when left alone.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy

from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.core.geometry import Rectangle
from repro.serving.protocol import (
    coordinator_snapshot,
    decode_message,
    decode_update,
    encode_message,
)
from repro.serving.scenarios import replay_accepted_log

from bench import trace
from bench.spec import REPO_ROOT
from bench.workloads import (
    BOUNDS,
    EPOCH_LENGTH,
    fleet_stream,
    served_stream,
    sim_network,
    sim_workload,
    sizes_of,
)

__all__ = [
    "EpochSample",
    "FleetSystem",
    "SimSystem",
    "ServedSystem",
    "SpeedProbe",
    "speed_factor",
    "build",
    "run_workload",
    "timed_epochs",
    "oracle_matches",
    "percentile",
]

clock = time.perf_counter

TOP_K = 10
#: Passes of an untraced run over the same stream; ``setup_s`` is the median
#: of their set-ups and every epoch's cost the mean of the two cheapest.
PASSES = 5
#: The ``--seconds`` the size table's ``epochs`` are calibrated for.
NOMINAL_SECONDS = 10.0
#: Timed epochs of a reference or ablation slice (after the warm-up epochs),
#: and the passes each slice makes.
SLICE_EPOCHS = 25
SLICE_PASSES = 3

#: Ablations of the traced run: metric -> (overrides with the layer,
#: overrides without it); the ratio is the first slice's epoch p50 over the
#: second's, so a value below 1 means the layer pays for itself.
ABLATIONS: Dict[str, Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]]] = {
    "fleet_dense": {
        "sharding.vs_1shard_ratio": ({}, {"shards": 1}),
        "delta.vs_full_ratio": ({}, {"epoch_mode": "full"}),
        "columnar.vs_object_ratio": ({"shards": 1}, {"shards": 1, "kernel": "object"}),
    },
    "fleet_steady": {
        "delta.vs_full_ratio": ({}, {"epoch_mode": "full"}),
    },
    "fleet_procs": {
        "execution.procs_vs_serial_ratio": ({}, {"backend": "serial"}),
    },
}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(numpy.quantile(values, fraction))


@dataclass
class EpochSample:
    """What one closed-loop epoch cost, as its caller saw it."""

    #: ``perf_counter`` bounds of the whole iteration (generation included);
    #: traced spans are assigned to the epoch whose bounds contain their start.
    start: float
    end: float
    #: Timed work: hand-over, epoch, responses, queries — generation excluded.
    wall_s: float
    epoch_ms: float
    query_ms: float
    updates: int
    attempted: int
    failed: int
    #: ``batch`` sent -> ack received, per batch (served workloads only).
    acks_ms: List[float] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


def _submit(coordinator: Coordinator, states: Sequence[ObjectState]) -> None:
    submit = coordinator.submit_state
    for state in states:
        submit(state)


def _queries(coordinator: Coordinator) -> None:
    coordinator.top_k(TOP_K)
    coordinator.top_k_corridors(TOP_K)


def _coordinator_config(sizes: Dict[str, Any], bounds: Rectangle) -> CoordinatorConfig:
    # epoch_mode and kernel stay at the coordinator's defaults (delta,
    # columnar) unless an ablation slice overrides them.
    return CoordinatorConfig(
        bounds=bounds,
        window=sizes["window"],
        cells_per_axis=sizes["cells"],
        num_shards=sizes["shards"],
        backend=sizes["backend"],
        epoch_mode=sizes.get("epoch_mode", "delta"),
        kernel=sizes.get("kernel", "columnar"),
    )


class _InProcessSystem:
    """What the systems that host their ``Coordinator`` in this process share."""

    def __init__(self, sizes: Dict[str, Any], bounds: Rectangle,
                 recorder: Optional[trace.SpanRecorder]) -> None:
        self.bounds = bounds
        self.coordinator = Coordinator(_coordinator_config(sizes, bounds))
        self.rss_pid = os.getpid()
        #: Per epoch ``(boundary, 9-field rows in submission order)`` — the oracle's input.
        self.log: List[Tuple[int, List[List[Any]]]] = []
        self._recorder = recorder

    def snapshot(self) -> Dict[str, Any]:
        return coordinator_snapshot(self.coordinator)

    def close(self) -> None:
        self.coordinator.close()

    def collect_trace(self) -> Tuple[List[trace.Span], Dict[str, float]]:
        """Spans and end-of-run counts; call before :meth:`close`."""
        return self._recorder.export(), trace.final_counts(self.coordinator)


class FleetSystem(_InProcessSystem):
    """A generated state stream submitted to an in-process coordinator."""

    def __init__(self, sizes: Dict[str, Any], seed: int, recorder: Optional[trace.SpanRecorder]) -> None:
        super().__init__(sizes, BOUNDS, recorder)
        self._stream = fleet_stream(seed, sizes)

    def epoch(self) -> EpochSample:
        begin = clock()
        now, states = next(self._stream)
        self.log.append((now, [list(state.as_tuple()) for state in states]))
        t0 = clock()
        _submit(self.coordinator, states)
        t1 = clock()
        outcome = self.coordinator.run_epoch(now)
        t2 = clock()
        _queries(self.coordinator)
        t3 = clock()
        if self._recorder is not None:
            self._recorder.add("Coordinator.submit_state", t0, t1)
        extra = {}
        if outcome.delta is not None:
            extra = {"pools_total": outcome.delta.pools_total, "pools_reused": outcome.delta.pools_reused}
        return EpochSample(
            start=begin, end=t3, wall_s=t3 - t0,
            epoch_ms=(t2 - t0) * 1000.0, query_ms=(t3 - t2) * 1000.0,
            updates=len(states), attempted=len(states) + 3,
            failed=abs(len(states) - len(outcome.responses)), extra=extra,
        )


class SimSystem(_InProcessSystem):
    """The paper's Section 6 loop: workload, RayTrace filters, coordinator, feedback."""

    def __init__(self, sizes: Dict[str, Any], seed: int, recorder: Optional[trace.SpanRecorder]) -> None:
        network = sim_network(sizes["network_nodes"])
        # The same monitored area HotPathSimulation derives for its coordinator.
        super().__init__(sizes, network.bounding_box(padding=sizes["tolerance"] * 2), recorder)
        self._workload = sim_workload(seed, network, sizes["objects"])
        config = RayTraceConfig(sizes["tolerance"])
        self._filters = {
            object_id: RayTraceFilter(object_id, measurement, config)
            for object_id, measurement in self._workload.initial_measurements(0)
        }
        self._timestamp = 0
        # Follow-up states the previous epoch's responses triggered: handed
        # over right away, committed (and accounted) with the next epoch.
        self._carried_rows: List[List[Any]] = []
        self._carried_submit_s = 0.0

    def epoch(self) -> EpochSample:
        begin = clock()
        coordinator, filters, recorder = self.coordinator, self._filters, self._recorder
        rows, submit_s = self._carried_rows, self._carried_submit_s
        step_s = observe_s = 0.0
        measurements = 0
        for _ in range(EPOCH_LENGTH):
            self._timestamp += 1
            t0 = clock()
            batch = self._workload.step(self._timestamp)
            t1 = clock()
            states = []
            for object_id, measurement in batch:
                state = filters[object_id].observe(measurement)
                if state is not None:
                    states.append(state)
            t2 = clock()
            _submit(coordinator, states)
            t3 = clock()
            step_s += t1 - t0
            observe_s += t2 - t1
            submit_s += t3 - t2
            measurements += len(batch)
            rows.extend(list(state.as_tuple()) for state in states)
            if recorder is not None:
                recorder.add("MovingObjectWorkload.step", t0, t1)
                recorder.add("RayTraceFilter.observe", t1, t2)
                recorder.add("Coordinator.submit_state", t2, t3)
        now = self._timestamp
        self.log.append((now, rows))
        t4 = clock()
        outcome = coordinator.run_epoch(now)
        t5 = clock()
        follow_ups = []
        for response in outcome.responses:
            follow_up = filters[response.object_id].receive_response(response)
            if follow_up is not None:
                follow_ups.append(follow_up)
        t6 = clock()
        _submit(coordinator, follow_ups)
        t7 = clock()
        self._carried_rows = [list(state.as_tuple()) for state in follow_ups]
        self._carried_submit_s = t7 - t6
        t8 = clock()
        _queries(coordinator)
        t9 = clock()
        if recorder is not None:
            recorder.add("RayTraceFilter.receive_response", t5, t6)
            recorder.add("Coordinator.submit_state", t6, t7)
        return EpochSample(
            start=begin, end=t9,
            wall_s=observe_s + submit_s + (t5 - t4) + (t6 - t5) + (t9 - t8),
            epoch_ms=(submit_s + t5 - t4) * 1000.0, query_ms=(t9 - t8) * 1000.0,
            updates=len(rows), attempted=len(rows) + 3,
            failed=abs(len(rows) - len(outcome.responses)),
            extra={"measurements": measurements, "reports": len(rows)},
        )

    def snapshot(self) -> Dict[str, Any]:
        return coordinator_snapshot(self.coordinator)

    def close(self) -> None:
        self.coordinator.close()

    def collect_trace(self) -> Tuple[List[trace.Span], Dict[str, float]]:
        """Spans and end-of-run counts; call before :meth:`close`."""
        return self._recorder.export(), trace.final_counts(self.coordinator)


class ServedSystem:
    """Two closed-loop TCP connections against a ``repro serve`` subprocess.

    The load generator is this single-threaded process (a selector over the
    two sockets, one batch outstanding per connection), the server is the
    other process, so each gets a core of the 2-core reference box.  A traced
    run starts ``python -m bench.traced_server`` instead — the same
    ``repro.cli.main(["serve", ...])`` under the layer wrappers — so process
    topology is identical.
    """

    def __init__(self, sizes: Dict[str, Any], seed: int, spans_path: Optional[Path]) -> None:
        self.bounds = BOUNDS
        self.log: List[Tuple[int, List[List[Any]]]] = []
        self.spans_path = spans_path
        #: Wire lines of the most recent epoch: requests sent, replies received.
        self.last_wire: Tuple[List[bytes], List[bytes]] = ([], [])
        self._stream = served_stream(
            seed, sizes["connections"], sizes["batches_per_connection"],
            sizes["batch_size"], sizes["id_pool"],
        )
        self._seq = [0] * sizes["connections"]
        serve = ["--port", "0", "--window", str(sizes["window"]), "--cells", str(sizes["cells"])]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            command = [sys.executable, "-m", "bench.traced_server", "--spans", str(spans_path), *serve]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), *filter(None, [environment.get("PYTHONPATH")])]
        )
        self._process = subprocess.Popen(
            command, cwd=REPO_ROOT, env=environment, stdout=subprocess.PIPE
        )
        self.rss_pid = self._process.pid
        # The server gets the last CPU this process may use and the load
        # generator the first, so each has a core.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(self._process.pid, {max(self._affinity)})
        os.sched_setaffinity(0, {min(self._affinity)})
        self._sockets: List[socket.socket] = []
        self._readers = []
        self._selector = selectors.DefaultSelector()
        try:
            port = self._read_port()
            for index in range(sizes["connections"]):
                connection = socket.create_connection(("127.0.0.1", port), timeout=60)
                connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._sockets.append(connection)
                self._readers.append(connection.makefile("rb"))
                self._selector.register(connection, selectors.EVENT_READ, index)
        except BaseException:
            self.close()
            raise

    def _read_port(self) -> int:
        """Parse the bound port out of the server's ``serving on host:port`` banner."""
        ready, _, _ = select.select([self._process.stdout], [], [], 60)
        banner = self._process.stdout.readline().decode() if ready else ""
        if not banner.startswith("serving on "):
            raise RuntimeError(f"server did not come up (banner: {banner!r})")
        return int(banner.split()[2].rsplit(":", 1)[1])

    def _call(
        self, payload: Dict[str, Any], wire: Optional[Tuple[List[bytes], List[bytes]]] = None
    ) -> Dict[str, Any]:
        """One request/response round trip on connection 0; ``wire`` collects both lines."""
        request = encode_message(payload)
        self._sockets[0].sendall(request)
        line = self._readers[0].readline()
        if wire is not None:
            wire[0].append(request)
            wire[1].append(line)
        return json.loads(line) if line else {"ok": False, "error": "connection closed"}

    def epoch(self) -> EpochSample:
        begin = clock()
        now, per_connection = next(self._stream)
        queues = []
        for index, batches in enumerate(per_connection):
            queue = deque()
            for rows in batches:
                self._seq[index] += 1
                line = encode_message(
                    {"op": "batch", "client": index, "seq": self._seq[index], "updates": rows}
                )
                queue.append((line, rows))
            queues.append(queue)
        sent: List[bytes] = []
        replies: List[bytes] = []
        acks: List[float] = []
        accepted: List[List[List[Any]]] = [[] for _ in queues]
        in_flight: Dict[int, Tuple[float, List[List[Any]]]] = {}
        attempted = failed = 0

        def send_next(index: int) -> None:
            line, rows = queues[index].popleft()
            sent.append(line)
            in_flight[index] = (clock(), rows)
            self._sockets[index].sendall(line)

        t0 = clock()
        for index, queue in enumerate(queues):
            if queue:
                send_next(index)
        while in_flight:
            for key, _events in self._selector.select(timeout=60):
                index = key.data
                line = self._readers[index].readline()
                sent_at, rows = in_flight.pop(index)
                acks.append((clock() - sent_at) * 1000.0)
                replies.append(line)
                reply = json.loads(line) if line else {"ok": False}
                attempted += len(rows)
                if reply.get("ok") and reply.get("accepted") == len(rows):
                    accepted[index].extend(rows)
                else:
                    failed += len(rows)
                if queues[index]:
                    send_next(index)
        # Canonical (client, seq) order: connection 0's batches, then connection 1's.
        rows_in_order = [row for rows in accepted for row in rows]
        self.log.append((now, rows_in_order))
        t1 = clock()
        self.last_wire = (sent, replies)
        tick = self._call({"op": "tick", "now": now}, self.last_wire)
        t2 = clock()
        topk = self._call({"op": "topk", "k": TOP_K}, self.last_wire)
        corridors = self._call({"op": "corridors", "k": TOP_K}, self.last_wire)
        t3 = clock()
        responses = len(tick["epoch"]["responses"]) if tick.get("ok") else 0
        failed += abs(len(rows_in_order) - responses)
        failed += sum(1 for reply in (tick, topk, corridors) if not reply.get("ok"))
        return EpochSample(
            start=begin, end=t3, wall_s=t3 - t0,
            epoch_ms=(t2 - t1) * 1000.0, query_ms=(t3 - t2) * 1000.0,
            updates=len(rows_in_order), attempted=attempted + 3, failed=failed, acks_ms=acks,
            extra={
                "bytes_in": sum(len(line) for line in sent),
                "bytes_out": sum(len(line) for line in replies),
            },
        )

    def snapshot(self) -> Dict[str, Any]:
        return self._call({"op": "snapshot"}).get("snapshot", {})

    def stats(self) -> Dict[str, Any]:
        return self._call({"op": "stats"}).get("stats", {})

    def close(self) -> None:
        """Stop the server (it traps SIGINT and exits cleanly) and wait for it."""
        os.sched_setaffinity(0, self._affinity)
        self._selector.close()
        for reader in self._readers:
            reader.close()
        for connection in self._sockets:
            connection.close()
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGINT)
            try:
                self._process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._process.stdout.close()

    def collect_trace(self) -> Tuple[List[trace.Span], Dict[str, float]]:
        """The traced child's spans and end-of-run counts (call after :meth:`close`)."""
        spans, finals = trace.read_spans(self.spans_path)
        self.spans_path.unlink()
        return spans, finals


def build(name: str, sizes: Dict[str, Any], seed: int,
          recorder: Optional[trace.SpanRecorder] = None, out: Optional[Path] = None):
    """Construct the workload's system; ``recorder`` marks a traced run."""
    if sizes["kind"] == "sim":
        return SimSystem(sizes, seed, recorder)
    if sizes["kind"] == "served":
        spans_path = None if recorder is None else out / f"spans-{name}.child.jsonl"
        return ServedSystem(sizes, seed, spans_path)
    return FleetSystem(sizes, seed, recorder)


# -- the oracle ----------------------------------------------------------------


def oracle_matches(snapshot: Dict[str, Any], log, sizes: Dict[str, Any], bounds: Rectangle) -> bool:
    """Replay ``log`` through a seed-shape coordinator and compare snapshots.

    The seed shape is one shard, serial — the paper's central coordinator
    (``replay_accepted_log``'s defaults).  Not a pinned digest: a change that
    legitimately alters answers alters both sides.
    """
    expected = replay_accepted_log(
        log, bounds=bounds, window=sizes["window"], cells_per_axis=sizes["cells"]
    )
    return snapshot == expected


# -- running one workload ----------------------------------------------------------


def timed_epochs(sizes: Dict[str, Any], seconds: float) -> int:
    """Timed epochs of one pass: the calibrated count scaled to ``seconds``.

    A count, not a deadline: the work of a run is a function of its arguments
    alone, so two commits are timed on the same epochs (a deadline would let
    the faster one run on into later, costlier epochs) and ``peak_rss_mb``
    does not depend on how fast the box happened to be.
    """
    return max(sizes["min_epochs"], round(sizes["epochs"] * seconds / NOMINAL_SECONDS))


def _peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB — the peak resident set of the coordinator's host."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class SpeedProbe:
    """How fast the box is right now: timings of a fixed pure-Python loop.

    The reference box is a shared VM: for seconds to tens of minutes at a time
    its neighbours slow everything on it by 20-100 % (README, "Noise").  One
    reading (about 0.2 ms) is taken between every two epochs, outside every
    timer; an epoch's timings are scaled by ``(fastest reading of the run /
    readings around the epoch) ** EXPONENT``, i.e. to the speed the box has
    when left alone, which on a quiet box is a factor of 1.
    """

    #: Epochs on either side whose readings count towards an epoch's speed.
    WINDOW = 2
    #: The loop below lives in the L1 cache; an epoch also waits for the cache
    #: and memory it shares with the neighbours, so it slows down more than the
    #: loop does.  Over 50 pairs of same-seed runs an hour apart, one hour
    #: 1.4-1.6x slower than the other, epoch time went as the loop's slow-down
    #: to the power 1.5-2.5; 1.5 also keeps the spread inside one hour at its
    #: lowest, 2 widens it (README, "Noise").
    EXPONENT = 1.5

    def __init__(self) -> None:
        self.readings: List[float] = []

    def read(self) -> float:
        started = clock()
        total = 0
        for value in range(3000):
            total += value * value % 7
        reading = clock() - started
        self.readings.append(reading)
        return reading

    def burst(self, readings: int = 10) -> float:
        return median(self.read() for _ in range(readings))

    @property
    def fastest(self) -> float:
        return min(self.readings)

    @property
    def interference(self) -> float:
        """Median over fastest reading: 1.0 on a quiet box."""
        return median(self.readings) / self.fastest


def speed_factor(fastest: float, reading: float) -> float:
    """What a timing taken while the probe read ``reading`` is multiplied by."""
    return (fastest / reading) ** SpeedProbe.EXPONENT


@dataclass
class Pass:
    """One set-up plus its timed epochs, and what was read off the system before it closed.

    Holds no reference to the system: a finished pass must not leave a heap
    behind for the next pass's garbage collector to walk.
    """

    setup_s: float
    samples: List[EpochSample]
    #: Probe readings around the set-up, and one before each epoch plus one after the last.
    setup_speed: float
    speeds: List[float]
    #: The submitted stream (the oracle's input) and the monitored area.
    log: List[Tuple[int, List[List[Any]]]]
    bounds: Rectangle
    snapshot: Dict[str, Any]
    peak_rss_mb: float
    errors: List[str]
    #: Served workloads: the ``stats`` op's reply and the last epoch's wire lines.
    server_stats: Dict[str, Any] = field(default_factory=dict)
    wire: Tuple[List[bytes], List[bytes]] = ((), ())
    #: Traced runs: the spans and the end-of-run counts.
    spans: List[trace.Span] = field(default_factory=list)
    finals: Dict[str, float] = field(default_factory=dict)

    def corrected(self, attribute: str, fastest: float) -> List[float]:
        """Per timed epoch, ``attribute`` at the box's undisturbed speed."""
        window, corrected = SpeedProbe.WINDOW, []
        for index, sample in enumerate(self.samples):
            # speeds[index] was read before epoch ``index``, speeds[index + 1] after it.
            around = self.speeds[max(0, index - window):index + window + 2]
            corrected.append(getattr(sample, attribute) * speed_factor(fastest, sum(around) / len(around)))
        return corrected


def _run_pass(name: str, sizes: Dict[str, Any], seed: int, epochs: int, probe: SpeedProbe,
              recorder: Optional[trace.SpanRecorder] = None, out: Optional[Path] = None) -> Pass:
    """Set up (timed: construction, spawn, warm-up epochs), run ``epochs``, read, close."""
    served = sizes["kind"] == "served"
    # A served run is traced in its server child, not in this process.
    tracing = trace.installed(recorder) if recorder is not None and not served else nullcontext()
    system = None
    try:
        with tracing:
            before = probe.burst()
            started = clock()
            system = build(name, sizes, seed, recorder, out)
            for _ in range(sizes["warmup_epochs"]):
                system.epoch()
            setup_s = clock() - started
            speeds = [probe.burst()]
            samples = []
            for _ in range(epochs):
                samples.append(system.epoch())
                speeds.append(probe.read())
        done = Pass(
            setup_s=setup_s, samples=samples, setup_speed=(before + speeds[0]) / 2, speeds=speeds,
            log=system.log, bounds=system.bounds,
            snapshot=system.snapshot(), peak_rss_mb=_peak_rss_mb(system.rss_pid),
            errors=_validity_errors(name, sizes, samples, system),
        )
        if served:
            done.server_stats, done.wire = system.stats(), system.last_wire
        if recorder is not None and not served:
            done.spans, done.finals = system.collect_trace()
    finally:
        if system is not None:
            system.close()
    if recorder is not None and served:
        # The traced server child writes its spans as it exits.
        done.spans, done.finals = system.collect_trace()
    return done


def _quietest(passes: Sequence[Pass], attribute: str, fastest: float) -> List[float]:
    """Per timed epoch, the mean of the two cheapest corrected readings of ``attribute`` over the passes."""
    return [
        sum(sorted(epoch)[:2]) / min(2, len(epoch))
        for epoch in zip(*(done.corrected(attribute, fastest) for done in passes))
    ]


def _validity_errors(name: str, sizes: Dict[str, Any], samples: List[EpochSample], system) -> List[str]:
    """Reasons this pass is not the workload it claims to be (empty when valid)."""
    errors = []
    pools = sum(sample.extra.get("pools_total", 0) for sample in samples)
    if pools:
        hit_ratio = sum(sample.extra["pools_reused"] for sample in samples) / pools
        if name == "fleet_steady" and hit_ratio < 0.6:
            errors.append(f"pool hit ratio {hit_ratio:.2f} below 0.6 on the steady workload")
        if name == "fleet_dense" and hit_ratio > 0.05:
            errors.append(f"pool hit ratio {hit_ratio:.2f} above 0.05 on the dense workload")
    if sizes["backend"] == "processes":
        backend = system.coordinator.router.pipeline.backend
        if backend.shm_fallbacks:
            errors.append(f"{backend.shm_fallbacks} shared-memory shipments fell back to the pipe")
        if sum(backend.workers_alive()) < 2:
            errors.append(f"{sum(backend.workers_alive())} live workers, fewer than 2")
    return errors


def _protocol_costs(sent: List[bytes], replies: List[bytes], repeats: int = 20) -> Dict[str, float]:
    """Wire encode/decode cost of one epoch's own lines, per update, in microseconds."""
    payloads = [json.loads(line) for line in replies]
    updates = sum(len(decode_message(line).get("updates", ())) for line in sent)
    decode_s, encode_s = [], []
    for _ in range(repeats):
        started = clock()
        for line in sent:
            for row in decode_message(line).get("updates", ()):
                decode_update(row)
        decode_s.append(clock() - started)
        started = clock()
        for payload in payloads:
            encode_message(payload)
        encode_s.append(clock() - started)
    return {
        "protocol.decode_us_per_update": median(decode_s) / updates * 1e6,
        "protocol.encode_us_per_update": median(encode_s) / updates * 1e6,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool, out: Path) -> Dict[str, Any]:
    """One run of one workload: the contract's result object plus ``notes`` and ``info``.

    An untraced run reports the end-to-end metrics from :data:`PASSES` passes
    over the same stream; a traced run makes one pass under
    :mod:`bench.trace` and reports the per-layer metrics (span times as
    measured, uncorrected), the ablation ratios and the tracing overhead
    against an untraced slice of the same stream.  Either way the last pass is
    verified against the seed-shape replay.
    """
    sizes = sizes_of(name, smoke)
    epochs = timed_epochs(sizes, seconds)
    out.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    passes: List[Pass] = []
    diverged = False
    for _ in range(1 if traced else 2 if smoke else PASSES):
        done = _run_pass(name, sizes, seed, epochs, probe, trace.SpanRecorder() if traced else None, out)
        if passes:
            # Only the last pass is replayed by the oracle; the others need only agree with it.
            diverged |= passes[-1].snapshot != done.snapshot
            passes[-1].log, passes[-1].snapshot = [], {}
        passes.append(done)
    last = passes[-1]
    errors = sorted({error for done in passes for error in done.errors})
    if epochs < 100 and not smoke:
        errors.append(f"{epochs} timed epochs, fewer than 100")
    if diverged:
        errors.append("passes over the same stream ended in different snapshots")
    correct = oracle_matches(last.snapshot, last.log, sizes, last.bounds)
    if not correct:
        errors.append("oracle mismatch: snapshot differs from the seed-shape replay")

    acks_ms = [ack for sample in last.samples for ack in sample.acks_ms]
    info = {
        "passes": len(passes), "timed_epochs": epochs, "ack_samples": len(acks_ms), "sizes": sizes,
        # As measured, before the speed correction and the minimum over passes.
        "raw_epoch_ms_p50": median(sample.epoch_ms for done in passes for sample in done.samples),
    }
    if not traced:
        fastest = probe.fastest
        epoch_ms = _quietest(passes, "epoch_ms", fastest)
        metrics = {
            "setup_s": median(done.setup_s * speed_factor(fastest, done.setup_speed) for done in passes),
            "updates_per_s": sum(sample.updates for sample in last.samples)
            / sum(_quietest(passes, "wall_s", fastest)),
            "epoch_ms_p50": median(epoch_ms),
            "epoch_ms_p90": percentile(epoch_ms, 0.90),
            "query_ms_p50": median(_quietest(passes, "query_ms", fastest)),
            "peak_rss_mb": max(done.peak_rss_mb for done in passes),
        }
    else:
        bounds = [(sample.start, sample.end, sample.wall_s) for sample in last.samples]
        trace.write_spans(out / f"spans-{name}.jsonl", last.spans, bounds)
        metrics = trace.layer_metrics(last.spans, bounds)
        metrics.update(last.finals)
        metrics.update(_harness_layer_metrics(last))
        slice_epochs = 3 if smoke else SLICE_EPOCHS
        ablations = ABLATIONS.get(name, {})
        # Untraced slices of the same stream: the workload as it is (the
        # tracing-overhead reference) and each side of each ablation, once.
        slices: Dict[str, List[Pass]] = {}
        for overrides in [{}] + [side for pair in ablations.values() for side in pair]:
            key = json.dumps(overrides, sort_keys=True)
            if key not in slices:
                slices[key] = [
                    _run_pass(name, {**sizes, **overrides}, seed, slice_epochs, probe)
                    for _ in range(SLICE_PASSES)
                ]
        # Every slice has run, so the fastest reading is final and both sides
        # of a ratio are corrected to the same speed, over the same epochs.
        fastest = probe.fastest

        def slice_p50(overrides: Dict[str, Any]) -> float:
            return median(_quietest(slices[json.dumps(overrides, sort_keys=True)], "epoch_ms", fastest))

        metrics["trace.overhead_ratio"] = (
            median(last.corrected("epoch_ms", fastest)[:slice_epochs]) / slice_p50({})
        )
        for metric, (with_layer, without_layer) in ablations.items():
            metrics[metric] = slice_p50(with_layer) / slice_p50(without_layer)
    info["interference"] = probe.interference
    return {
        "correct": correct and not errors,
        "attempted": sum(sample.attempted for done in passes for sample in done.samples),
        "failed": sum(sample.failed for done in passes for sample in done.samples),
        "metrics": metrics,
        "notes": errors,
        "info": info,
    }


def _harness_layer_metrics(done: Pass) -> Dict[str, float]:
    """Per-layer numbers the harness holds itself: client counts, acks, wire bytes, server stats."""
    samples, server_stats = done.samples, done.server_stats
    metrics: Dict[str, float] = {}
    measurements = sum(sample.extra.get("measurements", 0) for sample in samples)
    if measurements:
        reports = sum(sample.extra["reports"] for sample in samples)
        metrics["client.measurements"] = median(sample.extra["measurements"] for sample in samples)
        metrics["client.reports"] = median(sample.extra["reports"] for sample in samples)
        metrics["client.report_ratio"] = reports / measurements
    if server_stats:
        updates = sum(sample.updates for sample in samples)
        acks_ms = [ack for sample in samples for ack in sample.acks_ms]
        metrics["server.ack_ms_p50"] = median(acks_ms)
        metrics["server.ack_ms_p99"] = percentile(acks_ms, 0.99)
        metrics.update(_protocol_costs(*done.wire))
        metrics["protocol.bytes_in_per_update"] = sum(s.extra["bytes_in"] for s in samples) / updates
        metrics["protocol.bytes_out_per_epoch"] = median(s.extra["bytes_out"] for s in samples)
        metrics["batcher.ingest_ms_p50"] = server_stats["p50_ms"]
        metrics["batcher.ingest_ms_p99"] = server_stats["p99_ms"]
        metrics["batcher.rejected_batches"] = server_stats["rejected_batches"]
        metrics["batcher.duplicate_batches"] = server_stats["duplicate_batches"]
        metrics["server.protocol_errors"] = server_stats["protocol_errors"]
    return metrics
