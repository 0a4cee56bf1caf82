"""Sharding benchmark — the shard label and the backends on one coordinator.

Runs the same scaled workload with 1, 4 and 16 shards and on every execution
backend (``serial``, ``processes``).  Every shard count runs the one index
and one sequential pass of the paper's coordinator — shards only label
records for the diagnostics — so the benchmark asserts the discovered top-k
is bit-for-bit equal across every combination and records the per-epoch
coordinator time, the label spread and the per-backend speedup over serial.

Interpreting the backend table: candidate passes and decisions run inline in
the parent, in submission order, on every backend; what ``processes`` moves
off the parent is the builds of the epoch's cache-missed overlap components
(stateless worker processes), at any shard count, so available parallelism
is bounded by the component structure of each epoch and the machine's cores
(the table records the cores).  ``processes`` can win only where off-parent
builds outweigh their shipment, and on a small container it shows its
overhead rather than a speedup.

The stitching table times the corridor report over one chained hot set: the
``global`` row stitches the flat hot-path list (``stitch_paths``, the seed
report), and the ``full`` / ``delta`` rows are a 4x4-labelled coordinator's
first ``hot_corridors()`` in each epoch mode, with the report's
``stitch_stats`` (``boundary welds``: welds whose two fragments carry
different shard labels).  Every row must produce the identical corridors.

The epoch-mode table measures the incremental epoch pipeline
(``--epoch-mode delta``): the same stream driven in ``full`` and ``delta``
mode at 10% and 90% report turnover, with the cross-epoch reuse counters
(overlap components reused vs rebuilt, corridor chains reused vs re-welded)
that account for the savings.  Both modes must produce bit-for-bit identical
traces; the speedup is printed, not asserted (``python3 -m bench`` is the
ruler for timings — this table runs cold epochs on a shared machine).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.client.state import ObjectState
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.stitching import stitch_paths
from repro.experiments.config import scaled_simulation_config
from repro.simulation.engine import HotPathSimulation

SHARD_COUNTS = (1, 4, 16)
BACKENDS = ("serial", "processes")
BACKEND_SHARD_COUNTS = (1, 4, 16)

OVERLAP_BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


def _run(num_shards, experiment_scale, backend="serial"):
    config = scaled_simulation_config(
        scale=experiment_scale,
        fleet=FleetConfig(num_shards=num_shards, backend=backend),
        run_dp_baseline=False,
        run_naive_baseline=False,
    )
    return HotPathSimulation(config).run()


def _chained_hot_coordinator(epoch_mode: str) -> Coordinator:
    """A 4x4-labelled coordinator whose hot set is ~600 chained fragments
    (random walks crossing shard borders), the workload of the stitching
    table."""
    coordinator = Coordinator(
        CoordinatorConfig(
            bounds=OVERLAP_BOUNDS, window=10**6, cells_per_axis=32, num_shards=16,
            epoch_mode=epoch_mode,
        )
    )
    rng = random.Random(11)
    timestamp = 0
    for _walk in range(80):
        point = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        for _step in range(8):
            target = Point(
                min(max(point.x + rng.uniform(-180.0, 180.0), 0.0), 1000.0),
                min(max(point.y + rng.uniform(-180.0, 180.0), 0.0), 1000.0),
            )
            if target == point:
                continue
            record = coordinator.index.insert(MotionPath(point, target), created_at=timestamp)
            coordinator.hotness.record_crossing(record.path_id, timestamp)
            point = target
        timestamp += 1
    return coordinator


def _stitch_rows(repeats: int = 5):
    """Time the corridor report: the global reference stitch vs each epoch
    mode's first ``hot_corridors()`` over the identical chained hot set (and
    assert every row produces the identical corridors)."""
    rows = []
    hot = sorted(
        _chained_hot_coordinator("full").hot_paths(), key=lambda pair: pair[0].path_id
    )
    started = time.perf_counter()
    for _ in range(repeats):
        reference = stitch_paths(hot)
    elapsed_ms = (time.perf_counter() - started) / repeats * 1000.0
    reference_ids = [corridor.path_ids for corridor in reference]
    multi = sum(1 for corridor in reference if corridor.num_segments > 1)
    rows.append(("global", elapsed_ms, len(hot), len(reference), multi, None))

    for epoch_mode in ("full", "delta"):
        coordinator = _chained_hot_coordinator(epoch_mode)
        started = time.perf_counter()
        corridors = coordinator.hot_corridors()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        stats = coordinator.router.stitch_stats
        assert [c.path_ids for c in corridors] == reference_ids
        rows.append(
            (
                epoch_mode,
                elapsed_ms,
                stats["fragments"],
                stats["corridors"],
                stats["multi_segment_corridors"],
                stats["boundary_welds"],
            )
        )
    return rows


def _churned_epoch_stream(turnover, seed=5, epochs=5, core=64):
    """An epoch stream with a tunable report-turnover fraction.

    A stable *core* of downtown reporters re-submits the identical
    ``(object, start, FSA)`` report every epoch — the repetition the delta
    pipeline's cross-epoch pool cache exists for.  Low turnover adds a
    rotating cast of transient visitors confined to a far-corner district,
    so only the overlap components they form are new each epoch and the
    core's one large component repeats; high turnover replaces most of the
    core itself with fresh reporters, dirtying that component and leaving
    the cache nothing to reuse.
    """
    rng = random.Random(seed)

    def core_reporter(object_id):
        start = Point(rng.uniform(0.0, 700.0), rng.uniform(0.0, 700.0))
        centre = Point(
            min(max(start.x + rng.uniform(-80.0, 80.0), 0.0), 700.0),
            min(max(start.y + rng.uniform(-80.0, 80.0), 0.0), 700.0),
        )
        fsa = Rectangle.from_center(centre, rng.uniform(60.0, 120.0))
        return (object_id, start, fsa)

    def visitor(object_id):
        start = Point(rng.uniform(815.0, 985.0), rng.uniform(815.0, 985.0))
        return (object_id, start, Rectangle.from_center(start, rng.uniform(15.0, 35.0)))

    roster = [core_reporter(i) for i in range(core)]
    next_id = core
    if turnover <= 0.5:
        n_visitors = int(round(core * turnover / (1.0 - turnover)))
        replaced_per_epoch = 0
    else:
        n_visitors = 0
        replaced_per_epoch = int(core * turnover)
    stream = []
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        if replaced_per_epoch:
            roster = roster[:-replaced_per_epoch]
            while len(roster) < core:
                roster.append(core_reporter(next_id))
                next_id += 1
        visitors = []
        for _ in range(n_visitors):
            visitors.append(visitor(next_id))
            next_id += 1
        states = [
            ObjectState(
                object_id, start, boundary - 6, fsa.low, fsa.high, boundary - 1
            )
            for object_id, start, fsa in roster + visitors
        ]
        stream.append((boundary, states))
    return stream


def _dense_kernel_stream(seed=9, epochs=6, per_epoch=200):
    """A candidate-scan-heavy stream for the kernel comparison.

    Large overlapping FSAs over a coarse grid: cell blocks fill up with
    hundreds of endpoint entries and the epoch's overlap structure holds
    thousands of regions, so the per-entry python loops the columnar kernel
    replaces dominate the object-kernel epoch cost.
    """
    rng = random.Random(seed)
    stream = []
    for epoch in range(1, epochs + 1):
        states = []
        for _ in range(per_epoch):
            start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            centre = Point(
                min(max(start.x + rng.uniform(-120.0, 120.0), 0.0), 1000.0),
                min(max(start.y + rng.uniform(-120.0, 120.0), 0.0), 1000.0),
            )
            fsa = Rectangle.from_center(centre, rng.uniform(60.0, 150.0))
            states.append(
                ObjectState(
                    rng.randrange(per_epoch * 3),
                    start,
                    epoch * 10 - 5,
                    fsa.low,
                    fsa.high,
                    epoch * 10,
                )
            )
        stream.append((epoch * 10, states))
    return stream


def _kernel_rows():
    """Object vs columnar kernel cost on the dense stream, per topology.

    Every topology must produce bit-for-bit identical traces under both
    kernels (the columnar exactness contract); the single-shard serial
    measurement — pure kernel work, no worker shipments — gives the printed
    columnar speedup.
    """
    stream = _dense_kernel_stream()
    rows = []
    serial_times = {}
    for label, num_shards, backend in (
        ("1-shard serial", 1, "serial"),
        ("16-shard serial", 16, "serial"),
        ("4-shard processes", 4, "processes"),
    ):
        reference = None
        for kernel in ("object", "columnar"):
            coordinator = Coordinator(
                CoordinatorConfig(
                    bounds=OVERLAP_BOUNDS,
                    window=1_000_000,
                    cells_per_axis=16,
                    num_shards=num_shards,
                    backend=backend,
                    kernel=kernel,
                )
            )
            trace = []
            started = time.perf_counter()
            for boundary, states in stream:
                for state in states:
                    coordinator.submit_state(state)
                trace.append(coordinator.run_epoch(boundary).responses)
            elapsed_ms = (time.perf_counter() - started) / len(stream) * 1000.0
            trace.append(sorted(coordinator.hotness.items()))
            if reference is None:
                reference = trace
            else:
                assert trace == reference, f"kernels diverged on {label}"
            if label == "1-shard serial":
                serial_times[kernel] = elapsed_ms
            shipments = 0
            if backend == "processes":
                shipments = coordinator.strategy.backend.shm_shipments
            rows.append((label, kernel, elapsed_ms, shipments))
            coordinator.close()
    return rows, serial_times["object"] / serial_times["columnar"]


def _epoch_mode_rows():
    """Full vs delta epoch cost on low-churn and high-churn workloads.

    Each row drives a 16-shard coordinator over the same stream in one ``epoch_mode``,
    timing the epoch pipeline plus one corridor query per epoch (the serving
    cadence).  Traces must be bit-for-bit identical between modes — the
    differential contract at benchmark scale — and the delta rows carry the
    counters that account for the savings: overlap components reused verbatim
    vs rebuilt, corridor chains reused vs re-welded.
    """
    rows = []
    low_churn_times = {}
    for workload, turnover in (("low churn 10%", 0.1), ("high churn 90%", 0.9)):
        stream = _churned_epoch_stream(turnover)
        reference = None
        for mode in ("full", "delta"):
            coordinator = Coordinator(
                CoordinatorConfig(
                    bounds=OVERLAP_BOUNDS,
                    window=1_000_000,
                    cells_per_axis=32,
                    num_shards=16,
                    epoch_mode=mode,
                )
            )
            trace = []
            started = time.perf_counter()
            for boundary, states in stream:
                for state in states:
                    coordinator.submit_state(state)
                outcome = coordinator.run_epoch(boundary)
                trace.append((outcome.responses, coordinator.hot_corridors()))
            elapsed_ms = (time.perf_counter() - started) / len(stream) * 1000.0
            trace.append(sorted(coordinator.hotness.items()))
            if reference is None:
                reference = trace
            else:
                # The per-epoch differential contract, at benchmark scale.
                assert trace == reference, f"delta diverged from full on {workload}"
            if turnover <= 0.5:
                low_churn_times[mode] = elapsed_ms
            stats = coordinator.shard_statistics()
            rows.append(
                (
                    workload,
                    mode,
                    elapsed_ms,
                    stats["pools_reused"],
                    stats["pools_rebuilt"],
                    stats["chains_reused"],
                    stats["chains_rewelded"],
                )
            )
            coordinator.close()
    return rows, low_churn_times["full"] / low_churn_times["delta"]


@pytest.mark.benchmark(group="sharding")
def test_sharding_scaling(benchmark, experiment_scale, record_result):
    shard_results = {}
    backend_results = {}

    def run_all():
        for num_shards in SHARD_COUNTS:
            shard_results[num_shards] = _run(num_shards, experiment_scale)
        for num_shards in BACKEND_SHARD_COUNTS:
            for backend in BACKENDS[1:]:
                backend_results[(num_shards, backend)] = _run(
                    num_shards, experiment_scale, backend
                )
        return shard_results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    header = (
        f"{'shards':>7} {'time/epoch s':>14} {'index size':>12} "
        f"{'top-k score':>12} {'max/mean shard load':>20}"
    )
    lines = [header, "-" * len(header)]
    for num_shards, result in shard_results.items():
        summary = result.summary()
        stats = result.coordinator.shard_statistics()
        balance = (
            stats["max_shard_records"] / stats["mean_shard_records"]
            if stats["mean_shard_records"]
            else 0.0
        )
        lines.append(
            f"{num_shards:>7d} {summary['mean_processing_seconds']:>14.4f} "
            f"{summary['final_index_size']:>12.0f} {summary['mean_top_k_score']:>12.1f} "
            f"{balance:>20.2f}"
        )

    # Backend comparison: serial vs off-parent overlap builds, per shard count.
    lines.append("")
    lines.append(f"backend comparison (cpu cores: {os.cpu_count()})")
    backend_header = (
        f"{'shards':>7} {'backend':>10} {'time/epoch s':>14} {'speedup vs serial':>18}"
    )
    lines.append(backend_header)
    lines.append("-" * len(backend_header))
    for num_shards in BACKEND_SHARD_COUNTS:
        serial_time = shard_results[num_shards].summary()["mean_processing_seconds"]
        lines.append(f"{num_shards:>7d} {'serial':>10} {serial_time:>14.4f} {1.0:>18.2f}")
        for backend in BACKENDS[1:]:
            summary = backend_results[(num_shards, backend)].summary()
            backend_time = summary["mean_processing_seconds"]
            speedup = serial_time / backend_time if backend_time else 0.0
            lines.append(
                f"{num_shards:>7d} {backend:>10} {backend_time:>14.4f} {speedup:>18.2f}"
            )

    # Corridor stitching: the global reference stitch vs each epoch mode's
    # first report (identical hot set, identical corridors).
    lines.append("")
    lines.append("corridor stitching (~600 chained hot fragments, 4x4 shard labels)")
    stitch_header = (
        f"{'mode':>12} {'stitch ms':>10} {'fragments':>10} "
        f"{'corridors':>10} {'multi-seg':>10} {'boundary welds':>15}"
    )
    lines.append(stitch_header)
    lines.append("-" * len(stitch_header))
    for mode, elapsed_ms, fragments, corridors, multi, welds in _stitch_rows():
        lines.append(
            f"{mode:>12} {elapsed_ms:>10.3f} {fragments:>10d} "
            f"{corridors:>10d} {multi:>10d} {'-' if welds is None else welds:>15}"
        )

    # Incremental epoch pipeline: full vs --epoch-mode delta on a stable-core
    # workload with 10% vs 90% report turnover (identical answers asserted
    # inside _epoch_mode_rows).
    lines.append("")
    lines.append(
        "incremental epoch pipeline (full vs --epoch-mode delta, 16 shards, "
        "identical answers)"
    )
    epoch_mode_header = (
        f"{'workload':>15} {'mode':>6} {'time/epoch ms':>14} "
        f"{'pools reused':>13} {'rebuilt':>8} {'chains reused':>14} {'rewelded':>9}"
    )
    lines.append(epoch_mode_header)
    lines.append("-" * len(epoch_mode_header))
    epoch_mode_rows, low_churn_speedup = _epoch_mode_rows()
    for workload, mode, elapsed_ms, reused, rebuilt, chains, rewelded in epoch_mode_rows:
        lines.append(
            f"{workload:>15} {mode:>6} {elapsed_ms:>14.3f} "
            f"{reused:>13d} {rebuilt:>8d} {chains:>14d} {rewelded:>9d}"
        )
    lines.append(
        f"(low-churn delta speedup: {low_churn_speedup:.2f}x — epoch cost tracks "
        "the delta, not the hot set; high churn leaves little to reuse; one "
        "cold run each, so compare within a run only)"
    )

    # Columnar kernel comparison: the object reference vs the vectorized
    # SoA kernels (and the shared-memory shipment transport on the process
    # rows), identical answers asserted inside _kernel_rows.
    lines.append("")
    lines.append(
        "geometry kernels (--kernel object vs columnar, dense 200-state "
        "epochs, identical answers)"
    )
    kernel_header = (
        f"{'topology':>18} {'kernel':>9} {'time/epoch ms':>14} {'shm shipments':>14}"
    )
    lines.append(kernel_header)
    lines.append("-" * len(kernel_header))
    kernel_rows, kernel_speedup = _kernel_rows()
    for label, kernel, elapsed_ms, shipments in kernel_rows:
        lines.append(
            f"{label:>18} {kernel:>9} {elapsed_ms:>14.3f} {shipments:>14d}"
        )
    lines.append(
        f"(single-shard columnar speedup: {kernel_speedup:.2f}x — the candidate "
        "scans, overlap queries and cell upkeep run as numpy column kernels, "
        "while the overlap build is the same scalar code under both kernels; "
        "process rows additionally ship their overlap pools through shared "
        "memory instead of pickling)"
    )
    record_result("sharding_scaling", "\n".join(lines))

    # Scale-out must never change the answer: identical top-k everywhere,
    # for every shard count and every backend.
    baseline = shard_results[1]
    for num_shards in SHARD_COUNTS[1:]:
        assert shard_results[num_shards].top_k_paths() == baseline.top_k_paths()
        assert shard_results[num_shards].top_k_score() == baseline.top_k_score()
    for result in backend_results.values():
        assert result.top_k_paths() == baseline.top_k_paths()
        assert result.top_k_score() == baseline.top_k_score()
    # The labels actually spread the records over several shards.
    stats = shard_results[16].coordinator.shard_statistics()
    assert stats["num_shards"] == 16
    if stats["total_records"]:
        assert stats["max_shard_records"] < stats["total_records"]


@pytest.mark.slow
@pytest.mark.benchmark(group="sharding")
def test_sharding_scaling_large_population(benchmark, experiment_scale, record_result):
    """Heavier differential run (4x the scaled population); opt in via -m slow.

    Covers every backend at 16 shards as well — the larger epochs amortise
    worker coordination, so this is the configuration where multi-core
    machines show off-parent overlap builds most clearly.
    """
    results = {}
    backend_results = {}

    def run_all():
        for num_shards in SHARD_COUNTS:
            sharded = scaled_simulation_config(
                scale=experiment_scale,
                num_objects=80000,
                fleet=FleetConfig(num_shards=num_shards),
                run_dp_baseline=False,
                run_naive_baseline=False,
            )
            results[num_shards] = HotPathSimulation(sharded).run()
        for backend in BACKENDS[1:]:
            sharded = scaled_simulation_config(
                scale=experiment_scale,
                num_objects=80000,
                fleet=FleetConfig(num_shards=16, backend=backend),
                run_dp_baseline=False,
                run_naive_baseline=False,
            )
            backend_results[backend] = HotPathSimulation(sharded).run()
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        f"shards={n} time/epoch={r.summary()['mean_processing_seconds']:.4f}s "
        f"index={r.summary()['final_index_size']:.0f}"
        for n, r in results.items()
    ]
    serial_time = results[16].summary()["mean_processing_seconds"]
    for backend, result in backend_results.items():
        backend_time = result.summary()["mean_processing_seconds"]
        speedup = serial_time / backend_time if backend_time else 0.0
        lines.append(
            f"shards=16 backend={backend} time/epoch={backend_time:.4f}s "
            f"speedup={speedup:.2f} (cores={os.cpu_count()})"
        )
    record_result("sharding_scaling_large", "\n".join(lines))
    for num_shards in SHARD_COUNTS[1:]:
        assert results[num_shards].top_k_paths() == results[1].top_k_paths()
    for result in backend_results.values():
        assert result.top_k_paths() == results[1].top_k_paths()
