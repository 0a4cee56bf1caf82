"""Sharding benchmark — coordinator scale-out across shard counts and backends.

Runs the same scaled workload against a single-shard coordinator, against 2x2
and 4x4 shard fleets, and against the fleet on every execution backend
(``serial``, ``threads``, ``processes``).  Sharding and the backends are
behaviour-identical by construction (see ``tests/test_sharding_equivalence.py``),
so the benchmark asserts the discovered top-k is bit-for-bit equal across every
combination and records the per-epoch coordinator time, the fleet's load
balance and the per-backend speedup over the serial pipeline.

Interpreting the backend table: candidate passes run inline in the parent on
every backend; what the parallel backends spread is the builds of the epoch's
cache-missed overlap components (thread pool / stateless worker processes)
and the decision commits (per conflict group), so available parallelism is
bounded by the component and group structure of each epoch and the machine's
cores (the table records the cores).  On standard CPython the GIL caps the
``threads`` backend at serial throughput regardless of cores — it is measured
as the coordination-overhead baseline and for free-threaded builds;
``processes`` can win only where off-parent builds outweigh their shipment,
and on a small container both show their overhead rather than a speedup.

The stitching table isolates the corridor-stitching merge pass: the
``global`` row stitches one flat hot-path list (the seed coordinator's
long-path report, ``stitch_paths``), and the ``shard-merge`` rows run
``ShardRouter.stitch_epoch`` — per-shard weld passes on each execution
backend plus the cross-boundary merge — over the identical hot set, so the
delta is the cost of distributing the stitch.  Every row must produce the
identical corridors (the stitching exactness contract).

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
from repro.coordinator.sharding import ShardRouter
from repro.coordinator.stitching import stitch_paths
from repro.experiments.config import scaled_simulation_config
from repro.simulation.engine import HotPathSimulation

SHARD_COUNTS = (1, 4, 16)
BACKENDS = ("serial", "threads", "processes")
BACKEND_SHARD_COUNTS = (4, 16)

OVERLAP_BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


def _overlap_router(window: int, num_shards: int = 16, **knobs) -> ShardRouter:
    """A bare fleet over ``OVERLAP_BOUNDS`` (4x4 unless told otherwise)."""
    return ShardRouter(
        CoordinatorConfig(
            bounds=OVERLAP_BOUNDS, window=window, cells_per_axis=32,
            num_shards=num_shards, **knobs
        )
    )


def _run(num_shards, experiment_scale, backend="serial"):
    config = scaled_simulation_config(
        scale=experiment_scale,
        fleet=FleetConfig(num_shards=num_shards, backend=backend),
        run_dp_baseline=False,
        run_naive_baseline=False,
    )
    return HotPathSimulation(config).run()


def _chained_hot_router(backend: str = "serial") -> ShardRouter:
    """A 4x4 fleet whose hot set is ~600 chained fragments (random walks
    crossing shard borders), the workload of the stitching table."""
    router = _overlap_router(window=10**6, backend=backend)
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
            record = router.insert(MotionPath(point, target), created_at=timestamp)
            router.hotness.record_crossing(record.path_id, timestamp)
            point = target
        timestamp += 1
    return router


def _stitch_rows(repeats: int = 5):
    """Time the corridor-stitching merge: global reference vs per-backend
    ``stitch_epoch`` over the identical chained hot set (and assert every
    row produces the identical corridors)."""
    rows = []
    reference_router = _chained_hot_router()
    hot = [
        (reference_router.index.get(path_id), hotness)
        for path_id, hotness in sorted(reference_router.hotness.items())
    ]
    started = time.perf_counter()
    for _ in range(repeats):
        reference = stitch_paths(hot)
    elapsed_ms = (time.perf_counter() - started) / repeats * 1000.0
    reference_ids = [corridor.path_ids for corridor in reference]
    multi = sum(1 for corridor in reference if corridor.num_segments > 1)
    rows.append(("global", "serial", elapsed_ms, len(hot), len(reference), multi, 0))

    for backend_name in BACKENDS:
        router = _chained_hot_router(backend_name)
        try:
            router.stitch_epoch()  # warm the worker pools
            started = time.perf_counter()
            for _ in range(repeats):
                corridors = router.stitch_epoch()
            elapsed_ms = (time.perf_counter() - started) / repeats * 1000.0
            stats = router.stitch_stats
            assert [c.path_ids for c in corridors] == reference_ids
            rows.append(
                (
                    "shard-merge",
                    backend_name,
                    elapsed_ms,
                    stats["fragments"],
                    stats["corridors"],
                    stats["multi_segment_corridors"],
                    stats["boundary_welds"],
                )
            )
        finally:
            router.pipeline.close()
    return rows


def _skewed_downtown_stream(seed: int = 42, epochs: int = 10, per_epoch: int = 60):
    """A density-skewed epoch stream: ~80% of reports start in the downtown
    corner (the workload the load-adaptive kd partition exists for)."""
    rng = random.Random(seed)
    stream = []
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        states = []
        for _ in range(per_epoch):
            if rng.random() < 0.8:
                start = Point(rng.uniform(0.0, 250.0), rng.uniform(0.0, 250.0))
            else:
                start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            centre = Point(
                start.x + rng.uniform(-150.0, 150.0), start.y + rng.uniform(-150.0, 150.0)
            )
            fsa = Rectangle.from_center(centre, rng.uniform(5.0, 100.0))
            t_end = boundary - rng.randrange(10)
            states.append(
                ObjectState(
                    rng.randrange(per_epoch * 2), start, max(0, t_end - 5),
                    fsa.low, fsa.high, t_end,
                )
            )
        stream.append((boundary, states))
    return stream


def _rebalance_rows():
    """Shard-load imbalance on the skewed workload: uniform grid vs the
    load-adaptive kd partition (rebalancing enabled), identical answers.

    Rows report the final fleet statistics plus per-epoch coordinator time;
    the uniform row *is* the "before" of the rebalancing story — the fixed
    grid piles the downtown records onto a few shards — and the kd rows are
    the "after": the epoch-boundary rebalance protocol refits the splits to
    the endpoint density whenever max/mean load exceeds the threshold.
    """
    rows = []
    reference = None
    stream = _skewed_downtown_stream()
    for label, partition, threshold in (
        ("uniform", "uniform", 2.0),
        ("kd", "kd", 2.0),
        ("kd tight", "kd", 1.2),
    ):
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=OVERLAP_BOUNDS,
                window=60,
                cells_per_axis=32,
                num_shards=16,
                partition=partition,
                rebalance_threshold=threshold,
            )
        )
        trace = []
        started = time.perf_counter()
        for boundary, states in stream:
            for state in states:
                coordinator.submit_state(state)
            outcome = coordinator.run_epoch(boundary)
            trace.append((outcome.responses, outcome.paths_inserted, outcome.paths_expired))
        elapsed_ms = (time.perf_counter() - started) / len(trace) * 1000.0
        trace.append(sorted(coordinator.hotness.items()))
        if reference is None:
            reference = trace
        else:
            # The partition layer moves state, never answers.
            assert trace == reference, f"{label} diverged from the uniform fleet"
        stats = coordinator.shard_statistics()
        rows.append(
            (
                label,
                stats["imbalance"],
                stats["max_shard_records"],
                stats["mean_shard_records"],
                stats["rebalances"],
                elapsed_ms,
            )
        )
        coordinator.close()
    # The headline claim of the partition layer, asserted where it is measured.
    assert rows[1][1] < rows[0][1], "kd did not improve on uniform imbalance"
    return rows


MIGRATION_RECORDS = 1200  # fleet size when the grow migration is requested
MIGRATION_CHURN = 60  # records inserted per boundary while the migration runs
MIGRATION_BOUNDARIES = 12  # boundaries driven after the request, every row


def _migration_fleet(budget: int, seed: int = 13) -> ShardRouter:
    """A 2x2 elastic fleet holding the downtown-skewed migration workload."""
    router = _overlap_router(
        window=10**6,
        num_shards=4,
        elastic="auto",
        migration_budget=budget,
        min_shards=4,
        max_shards=5,
        rebalance_threshold=6.0,  # quiet: only the requested grow migrates
    )
    rng = random.Random(seed)
    for _ in range(MIGRATION_RECORDS):
        if rng.random() < 0.8:
            start = Point(rng.uniform(0.0, 250.0), rng.uniform(0.0, 250.0))
        else:
            start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        end = Point(
            min(max(start.x + rng.uniform(-180.0, 180.0), 0.0), 1000.0),
            min(max(start.y + rng.uniform(-180.0, 180.0), 0.0), 1000.0),
        )
        record = router.insert(MotionPath(start, end))
        router.hotness.record_crossing(record.path_id, 0)
    return router


def _migration_churn_batches():
    """The identical per-boundary insert churn every migration row replays."""
    rng = random.Random(29)
    batches = []
    for _ in range(MIGRATION_BOUNDARIES):
        batch = []
        for _ in range(MIGRATION_CHURN):
            start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            end = Point(
                min(max(start.x + rng.uniform(-180.0, 180.0), 0.0), 1000.0),
                min(max(start.y + rng.uniform(-180.0, 180.0), 0.0), 1000.0),
            )
            batch.append(MotionPath(start, end))
        batches.append(batch)
    return batches


def _fleet_fingerprint(router: ShardRouter):
    return (
        router.grid.describe(),
        {path_id: shard.shard_id for path_id, shard in router.owners.items()},
        sorted(router.hotness.items()),
    )


def _elastic_migration_rows(repeats: int = 2):
    """Worst-boundary migration cost: stop-the-world vs ``--migration-budget``.

    Every row asks the same downtown-skewed 1200-record fleet for the same
    grow migration (split the hottest shard, 4 -> 5) and then drives the
    same churned boundaries.  The stop-the-world row pays the entire
    migration inside the boundary that requested it — the epoch-time spike;
    the budgeted rows warm the shadow fleet with ``budget + churn`` records
    per boundary and hand off atomically, so the worst single boundary pays
    a bounded slice of it.  Timed at the router so the table isolates the
    migration's own cost from the rest of the epoch; each row runs on a
    fresh fleet ``repeats`` times and keeps the fastest timings.  Every row
    must converge before the boundaries run out and end in the identical
    fleet state (the handoff-equals-stop-the-world contract, measured where
    the pacing is claimed).
    """
    churn = _migration_churn_batches()
    rows = []
    reference = None
    for label, budget in (("stop-the-world", 0), ("budget 120", 120), ("budget 240", 240)):
        best = None
        for _ in range(repeats):
            router = _migration_fleet(budget)
            try:
                target = router._forced_elastic_partition()  # same split each row
                started = time.perf_counter()
                router.rebalance(target)
                request_ms = (time.perf_counter() - started) * 1000.0
                boundary_ms = []
                warmed = 0
                for batch in churn:
                    for path in batch:
                        record = router.insert(path)
                        router.hotness.record_crossing(record.path_id, 0)
                    if router._migration is None:
                        continue
                    started = time.perf_counter()
                    router.maybe_rebalance()
                    boundary_ms.append((time.perf_counter() - started) * 1000.0)
                    warmed += router.last_migration_moved
                assert router._migration is None, f"{label}: migration did not converge"
                assert len(router.shards) == 5, f"{label}: fleet did not grow"
                if budget:
                    assert len(boundary_ms) >= 2 and warmed > MIGRATION_RECORDS // 2, (
                        f"{label}: budgeted migration was not actually paced"
                    )
                    moved, paying = warmed, len(boundary_ms)
                    worst = max(boundary_ms)
                    total = request_ms + sum(boundary_ms)
                else:
                    moved, paying = MIGRATION_RECORDS, 1
                    worst = total = request_ms
                fingerprint = _fleet_fingerprint(router)
                if reference is None:
                    reference = fingerprint
                else:
                    # Pacing moves state across more boundaries, never elsewhere.
                    assert fingerprint == reference, f"{label} fleet state diverged"
                measured = (moved, paying, worst, total)
                if best is None or measured[2] < best[2]:
                    best = measured
            finally:
                router.pipeline.close()
        rows.append((label, *best))
    # The pacing claim: no budgeted boundary pays the stop-the-world spike.
    stop_worst = rows[0][3]
    for label, _moved, _paying, worst, _total in rows[1:]:
        assert worst < stop_worst, (
            f"{label} worst boundary ({worst:.1f} ms) should undercut the "
            f"stop-the-world spike ({stop_worst:.1f} ms)"
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
    measurement — pure kernel work, no fleet overhead — gives the printed
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
            if backend == "processes" and coordinator.router is not None:
                shipments = coordinator.router.pipeline.backend.shm_shipments
            rows.append((label, kernel, elapsed_ms, shipments))
            coordinator.close()
    return rows, serial_times["object"] / serial_times["columnar"]


def _epoch_mode_rows():
    """Full vs delta epoch cost on low-churn and high-churn workloads.

    Each row drives a 4x4 fleet over the same stream in one ``epoch_mode``,
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

    # Backend comparison: serial vs worker-pool pipelines on the same fleet.
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

    # Corridor stitching: the global reference stitch vs the distributed
    # per-shard weld passes + merge on every backend (identical hot set,
    # identical corridors — the table records the cost of distribution).
    lines.append("")
    lines.append("corridor stitching (~600 chained hot fragments, 4x4 fleet)")
    stitch_header = (
        f"{'mode':>12} {'backend':>10} {'stitch ms':>10} {'fragments':>10} "
        f"{'corridors':>10} {'multi-seg':>10} {'boundary welds':>15}"
    )
    lines.append(stitch_header)
    lines.append("-" * len(stitch_header))
    for mode, backend, elapsed_ms, fragments, corridors, multi, welds in _stitch_rows():
        lines.append(
            f"{mode:>12} {backend:>10} {elapsed_ms:>10.3f} {fragments:>10d} "
            f"{corridors:>10d} {multi:>10d} {welds:>15d}"
        )

    # Load-adaptive rebalancing: shard-load imbalance before/after swapping
    # the uniform grid for the kd partition on a skewed downtown workload
    # (identical answers asserted inside _rebalance_rows).
    lines.append("")
    lines.append(
        "shard-load rebalancing (skewed downtown workload, 4x4 fleet, "
        "uniform vs --partition kd)"
    )
    rebalance_header = (
        f"{'partition':>10} {'imbalance max/mean':>19} {'max records':>12} "
        f"{'mean records':>13} {'rebalances':>11} {'time/epoch ms':>14}"
    )
    lines.append(rebalance_header)
    lines.append("-" * len(rebalance_header))
    for label, imbalance, max_records, mean_records, rebalances, elapsed_ms in _rebalance_rows():
        lines.append(
            f"{label:>10} {imbalance:>19.2f} {max_records:>12.0f} "
            f"{mean_records:>13.1f} {rebalances:>11.0f} {elapsed_ms:>14.3f}"
        )
    lines.append(
        "(answers identical across rows; imbalance is what serialises a parallel "
        "fleet — the single-core container shows kd's denser downtown cells as "
        "extra cross-shard reads instead of the multi-core win)"
    )

    # Elastic migration pacing: the worst-boundary cost of a stop-the-world
    # grow migration vs the same migration spread over several boundaries by
    # --migration-budget (identical final fleet state, convergence and the
    # pacing claim itself asserted inside _elastic_migration_rows).
    lines.append("")
    lines.append(
        f"elastic migration pacing (grow 4->5, {MIGRATION_RECORDS}-record "
        f"downtown-skewed fleet, {MIGRATION_CHURN} churn inserts/boundary, "
        "identical final state)"
    )
    elastic_header = (
        f"{'migration':>15} {'records moved':>14} {'paying boundaries':>18} "
        f"{'worst boundary ms':>18} {'total ms':>9}"
    )
    lines.append(elastic_header)
    lines.append("-" * len(elastic_header))
    elastic_rows = _elastic_migration_rows()
    for label, moved, paying, worst_ms, total_ms in elastic_rows:
        lines.append(
            f"{label:>15} {moved:>14d} {paying:>18d} "
            f"{worst_ms:>18.3f} {total_ms:>9.3f}"
        )
    spike_cut = elastic_rows[0][3] / min(row[3] for row in elastic_rows[1:])
    lines.append(
        f"(worst-boundary spike cut {spike_cut:.1f}x by pacing: stop-the-world "
        "pays the whole migration inside the boundary that requested it, while "
        "a budgeted migration warms budget + churn records per boundary behind "
        "double-read writes and hands off atomically — the total cost is "
        "similar, the spike is bounded)"
    )

    # Incremental epoch pipeline: full vs --epoch-mode delta on a stable-core
    # workload with 10% vs 90% report turnover (identical answers asserted
    # inside _epoch_mode_rows).
    lines.append("")
    lines.append(
        "incremental epoch pipeline (full vs --epoch-mode delta, 4x4 fleet, "
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
        "the delta, not the hot set; high churn leaves nothing to reuse and "
        "shows the cache bookkeeping as overhead, which is why full mode "
        "stays available)"
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
        "scans, overlap queries and cell upkeep run as numpy column kernels; "
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
    # The fleet actually spreads the load over several shards.
    stats = shard_results[16].coordinator.shard_statistics()
    assert stats["num_shards"] == 16
    if stats["total_records"]:
        assert stats["max_shard_records"] < stats["total_records"]


@pytest.mark.slow
@pytest.mark.benchmark(group="sharding")
def test_sharding_scaling_large_population(benchmark, experiment_scale, record_result):
    """Heavier differential run (4x the scaled population); opt in via -m slow.

    Covers every backend on the 4x4 fleet as well — the larger epochs amortise
    pool coordination, so this is the configuration where multi-core machines
    show the candidate-pass and conflict-group parallelism most clearly.
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
