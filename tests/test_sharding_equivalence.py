"""Differential harness: sharded coordinators must match the seed coordinator.

Two layers of scenarios drive a single-shard coordinator (the seed
architecture) and sharded fleets (2x2 and 4x4) with the *same* inputs:

* synthetic state-message streams crafted to stress shard boundaries
  (shared start vertices, FSAs straddling shard borders, endpoints exactly on
  borders, points outside the monitored area, out-of-order timestamps);
* full end-to-end simulations over several seeds and workload shapes.

Every scenario runs for each execution backend (``serial``, ``threads``,
``processes`` — see :mod:`repro.coordinator.execution`): the parallel
backends run the candidate passes on worker pools and commit decisions per
conflict group, and must still be bit-for-bit identical to the seed.

Equality is asserted bit-for-bit at every epoch: the responses sent back to
objects, the bookkeeping counters, the full index contents (ids, geometry,
creation times), the hotness table and the top-k under both rankings.  Any
divergence — an approximate merge, a non-deterministic tie-break, a missed
cross-shard path — fails the suite.

The overlap stage (one structure per epoch, merged from cached components)
runs inside every one of these scenarios; :class:`TestSaturatedRegionCap`
adds the one epoch shape the streams above never produce — enough mutually
overlapping FSAs to fill the region cap, where the kept regions depend on
insertion order and the stage must fall back to the seed's own build.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.grid_index import GridIndex
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.sharding import ShardRouter, ShardedSinglePath
from repro.coordinator.single_path import SinglePathStrategy
from repro.network.generator import NetworkConfig
from repro.simulation.engine import HotPathSimulation, SimulationConfig

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
SHARD_COUNTS = (4, 16)  # 2x2 and 4x4
PARALLEL_BACKENDS = ("threads", "processes")


def make_coordinator(
    num_shards: int,
    window: int = 60,
    backend: str = "serial",
    partition: str = "uniform",
    rebalance_threshold: float = 2.0,
    epoch_mode: str = "delta",
    kernel: str = "columnar",
) -> Coordinator:
    return Coordinator(
        CoordinatorConfig(
            bounds=BOUNDS,
            window=window,
            cells_per_axis=32,
            num_shards=num_shards,
            backend=backend,
            partition=partition,
            rebalance_threshold=rebalance_threshold,
            epoch_mode=epoch_mode,
            kernel=kernel,
        )
    )


def index_snapshot(coordinator: Coordinator) -> Dict:
    """Canonical, order-independent snapshot of all coordinator state."""
    records = sorted(
        (record.path_id, record.path.start.as_tuple(), record.path.end.as_tuple(), record.created_at)
        for record in coordinator.index.records
    )
    return {
        "size": coordinator.index_size(),
        "records": records,
        "hotness": sorted(coordinator.hotness.items()),
        "pending_events": coordinator.hotness.pending_events,
        "top_k_hotness": coordinator.top_k(10),
        "top_k_score": coordinator.top_k(10, by_score=True),
        "top_k_score_value": coordinator.top_k_score(10),
    }


def synthetic_stream(seed: int, epochs: int = 8, per_epoch: int = 30) -> List[Tuple[int, List[ObjectState]]]:
    """A seeded state-message stream engineered to stress shard boundaries.

    Start vertices are drawn from a small pool that includes points exactly on
    the 2x2 and 4x4 shard borders (x or y in {250, 500, 750}) and points
    outside the monitored area; FSAs are large enough to straddle borders and
    end timestamps are emitted out of submission order.
    """
    rng = random.Random(seed)
    start_pool = [
        Point(rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0)) for _ in range(12)
    ]
    start_pool += [
        Point(500.0, 300.0),  # on the 2x2 vertical border
        Point(250.0, 750.0),  # on 4x4 borders
        Point(500.0, 500.0),  # the exact centre, corner of all four 2x2 shards
        Point(-20.0, 500.0),  # clamped into a border shard
    ]
    stream = []
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        states = []
        for i in range(per_epoch):
            object_id = rng.randrange(per_epoch * 2)
            start = rng.choice(start_pool)
            half = rng.uniform(5.0, 120.0)
            centre = Point(
                start.x + rng.uniform(-200.0, 200.0),
                start.y + rng.uniform(-200.0, 200.0),
            )
            fsa = Rectangle.from_center(centre, half)
            t_end = boundary - rng.randrange(10)  # deliberately out of order
            states.append(
                ObjectState(object_id, start, max(0, t_end - 5), fsa.low, fsa.high, t_end)
            )
        stream.append((boundary, states))
    return stream


def skewed_stream(seed: int, epochs: int = 8, per_epoch: int = 30) -> List[Tuple[int, List[ObjectState]]]:
    """A density-skewed stream: most activity in a downtown hotspot corner.

    The workload the load-adaptive kd partition exists for — a uniform 4x4
    grid concentrates ~80% of the records on the downtown shards, driving the
    imbalance statistic well past any rebalance threshold.
    """
    rng = random.Random(seed)
    stream = []
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        states = []
        for _ in range(per_epoch):
            if rng.random() < 0.8:
                start = Point(rng.uniform(0.0, 250.0), rng.uniform(0.0, 250.0))
            else:
                start = Point(rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0))
            centre = Point(
                start.x + rng.uniform(-150.0, 150.0),
                start.y + rng.uniform(-150.0, 150.0),
            )
            fsa = Rectangle.from_center(centre, rng.uniform(5.0, 120.0))
            t_end = boundary - rng.randrange(10)
            states.append(
                ObjectState(
                    rng.randrange(per_epoch * 2), start, max(0, t_end - 5), fsa.low, fsa.high, t_end
                )
            )
        stream.append((boundary, states))
    return stream


def drive(coordinator: Coordinator, stream, rebalance_before: Tuple[int, ...] = ()) -> List[Dict]:
    """Feed the stream epoch by epoch, snapshotting after every epoch.

    ``rebalance_before`` forces a partition refit-and-migrate at those epoch
    indices (before the epoch runs) — on top of whatever automatic
    rebalancing the coordinator's own threshold triggers.
    """
    trace = []
    try:
        for index, (boundary, states) in enumerate(stream):
            if index in rebalance_before and coordinator.router is not None:
                coordinator.router.rebalance()
            for state in states:
                coordinator.submit_state(state)
            outcome = coordinator.run_epoch(boundary)
            trace.append(
                {
                    "responses": outcome.responses,
                    "states_processed": outcome.states_processed,
                    "paths_inserted": outcome.paths_inserted,
                    "paths_reused": outcome.paths_reused,
                    "paths_expired": outcome.paths_expired,
                    "snapshot": index_snapshot(coordinator),
                }
            )
    finally:
        coordinator.close()
    return trace


class TestSeedEquivalence:
    """``num_shards=1`` must be the seed architecture, bit for bit."""

    def test_single_shard_uses_seed_structures(self):
        coordinator = make_coordinator(1)
        assert coordinator.router is None
        assert isinstance(coordinator.index, GridIndex)
        assert isinstance(coordinator.hotness, HotnessTracker)
        assert isinstance(coordinator.strategy, SinglePathStrategy)

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_single_shard_is_deterministic(self, seed):
        stream = synthetic_stream(seed)
        assert drive(make_coordinator(1), stream) == drive(make_coordinator(1), stream)


class TestStreamDifferential:
    """Sharded fleets replayed against the seed coordinator, epoch by epoch."""

    @pytest.mark.parametrize("seed", [3, 11, 42, 1234])
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_sharded_trace_matches_seed(self, num_shards, seed):
        stream = synthetic_stream(seed)
        seed_trace = drive(make_coordinator(1), stream)
        sharded_trace = drive(make_coordinator(num_shards), stream)
        for epoch, (expected, actual) in enumerate(zip(seed_trace, sharded_trace)):
            assert actual == expected, f"divergence at epoch {epoch}"

    @pytest.mark.parametrize("seed", [11, 42])
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_parallel_backend_trace_matches_seed(self, num_shards, backend, seed):
        """2x2 and 4x4 fleets on the worker-pool backends, bit for bit."""
        stream = synthetic_stream(seed)
        seed_trace = drive(make_coordinator(1), stream)
        parallel_trace = drive(make_coordinator(num_shards, backend=backend), stream)
        for epoch, (expected, actual) in enumerate(zip(seed_trace, parallel_trace)):
            assert actual == expected, (
                f"backend={backend} diverged from the seed at epoch {epoch}"
            )

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_sharded_coordinator_really_shards(self, num_shards):
        coordinator = make_coordinator(num_shards)
        assert isinstance(coordinator.router, ShardRouter)
        assert isinstance(coordinator.strategy, ShardedSinglePath)
        drive(coordinator, synthetic_stream(7))
        stats = coordinator.shard_statistics()
        assert stats["num_shards"] == num_shards
        assert stats["total_records"] == coordinator.index_size()
        # The stream spreads over the whole area, so several shards own paths.
        assert stats["max_shard_records"] < stats["total_records"]


class TestRebalanceDifferential:
    """Load-adaptive kd partitions and mid-replay migrations, bit for bit.

    The partition layer decides *where* per-shard state lives, never what
    the algorithm answers — so a kd fleet with rebalancing enabled (and a
    fleet forced to migrate mid-replay) must reproduce the seed coordinator
    exactly, on every backend.  Every scenario asserts rebalances actually
    happened, so the equivalence claim is never vacuous.
    """

    @pytest.mark.parametrize("backend", ("serial",) + PARALLEL_BACKENDS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_kd_fleet_with_auto_rebalance_matches_seed(self, num_shards, backend):
        """The skewed downtown stream, a tight threshold (rebalances fire
        nearly every epoch), 2x2 and 4x4 fleets, all three backends."""
        stream = skewed_stream(42)
        seed_trace = drive(make_coordinator(1), stream)
        kd = make_coordinator(
            num_shards, backend=backend, partition="kd", rebalance_threshold=1.2
        )
        kd_trace = drive(kd, stream)
        for epoch, (expected, actual) in enumerate(zip(seed_trace, kd_trace)):
            assert actual == expected, (
                f"kd/{backend} diverged from the seed at epoch {epoch}"
            )
        stats = kd.shard_statistics()
        assert stats["rebalances"] > 0, "no rebalance fired — vacuous scenario"

    @pytest.mark.parametrize("seed", [11, 42])
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_forced_midreplay_migration_matches_seed(self, num_shards, seed):
        """Explicit migrations between epochs — including one refitting a
        uniform fleet onto kd splits mid-stream — change nothing."""
        stream = synthetic_stream(seed)
        seed_trace = drive(make_coordinator(1), stream)
        migrated = make_coordinator(num_shards)  # starts uniform
        migrated_trace = drive(migrated, stream, rebalance_before=(2, 5))
        for epoch, (expected, actual) in enumerate(zip(seed_trace, migrated_trace)):
            assert actual == expected, f"migration diverged at epoch {epoch}"
        assert migrated.router.rebalances >= 1

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_forced_migration_on_parallel_backends_matches_seed(self, backend):
        """A migration mid-stream is invisible on the parallel backends too
        (the pools and conflict groups they are handed follow the new layout;
        nothing of the old one is held anywhere)."""
        stream = skewed_stream(11)
        seed_trace = drive(make_coordinator(1), stream)
        migrated = make_coordinator(16, backend=backend, partition="kd")
        migrated_trace = drive(migrated, stream, rebalance_before=(1, 3, 6))
        for epoch, (expected, actual) in enumerate(zip(seed_trace, migrated_trace)):
            assert actual == expected, (
                f"{backend} migration diverged at epoch {epoch}"
            )
        assert migrated.router.rebalances >= 3

    def test_kd_rebalancing_actually_balances_the_skew(self):
        """The point of the whole layer: on the downtown workload the kd
        fleet ends far better balanced than the uniform grid, at identical
        answers."""
        stream = skewed_stream(42)
        uniform = make_coordinator(16)
        kd = make_coordinator(16, partition="kd", rebalance_threshold=1.2)
        uniform_trace = drive(uniform, stream)
        kd_trace = drive(kd, stream)
        assert kd_trace == uniform_trace
        uniform_stats = uniform.shard_statistics()
        kd_stats = kd.shard_statistics()
        assert uniform_stats["total_records"] == kd_stats["total_records"]
        assert kd_stats["imbalance"] < uniform_stats["imbalance"] / 2

    def test_corridor_report_survives_migrations(self):
        """The boundary ledger is *recomputed* at migration, and the corridor
        stitch welds against it — so the corridor report after every epoch
        (with migrations forced between epochs) must equal the seed's global
        stitch, not just the path-level snapshot."""
        stream = skewed_stream(21)
        seed = make_coordinator(1)
        kd = make_coordinator(16, partition="kd", rebalance_threshold=1.2)
        try:
            for index, (boundary, states) in enumerate(stream):
                if index in (2, 5):
                    kd.router.rebalance()
                for state in states:
                    seed.submit_state(state)
                    kd.submit_state(state)
                seed.run_epoch(boundary)
                kd.run_epoch(boundary)
                assert [corridor.path_ids for corridor in kd.hot_corridors()] == [
                    corridor.path_ids for corridor in seed.hot_corridors()
                ], f"corridor report diverged at epoch {index}"
            assert kd.router.rebalances >= 2
        finally:
            seed.close()
            kd.close()

    def test_kd_is_deterministic_across_runs_and_backends(self):
        """Adaptive rebalancing must stay reproducible: identical traces and
        identical final partitions on every run and backend."""
        stream = skewed_stream(7)

        def run(backend):
            coordinator = make_coordinator(
                16, backend=backend, partition="kd", rebalance_threshold=1.2
            )
            trace = drive(coordinator, stream)
            return trace, coordinator.router.grid.describe()

        reference_trace, reference_partition = run("serial")
        again_trace, again_partition = run("serial")
        assert again_trace == reference_trace
        assert again_partition == reference_partition
        for backend in PARALLEL_BACKENDS:
            parallel_trace, parallel_partition = run(backend)
            assert parallel_trace == reference_trace, f"kd diverged on {backend}"
            assert parallel_partition == reference_partition, (
                f"partition fit diverged on {backend}"
            )


def drive_with_corridors(
    coordinator: Coordinator, stream, rebalance_before: Tuple[int, ...] = ()
) -> List[Dict]:
    """Like :func:`drive`, but also snapshots the corridor report and the
    per-epoch :class:`~repro.coordinator.delta.EpochDelta` after every epoch,
    so the incremental pipeline's whole answer surface is compared."""
    trace = []
    try:
        for index, (boundary, states) in enumerate(stream):
            if index in rebalance_before and coordinator.router is not None:
                coordinator.router.rebalance()
            for state in states:
                coordinator.submit_state(state)
            outcome = coordinator.run_epoch(boundary)
            trace.append(
                {
                    "responses": outcome.responses,
                    "states_processed": outcome.states_processed,
                    "paths_inserted": outcome.paths_inserted,
                    "paths_reused": outcome.paths_reused,
                    "paths_expired": outcome.paths_expired,
                    "snapshot": index_snapshot(coordinator),
                    "corridors": coordinator.hot_corridors(),
                    "delta": outcome.delta,
                }
            )
    finally:
        coordinator.close()
    return trace


def assert_mode_equal(full_trace, delta_trace, context: str) -> None:
    """Per-epoch bit-for-bit equality of everything except the delta itself."""
    assert len(delta_trace) == len(full_trace)
    for epoch, (expected, actual) in enumerate(zip(full_trace, delta_trace)):
        for key in (
            "responses",
            "states_processed",
            "paths_inserted",
            "paths_reused",
            "paths_expired",
            "snapshot",
            "corridors",
        ):
            assert actual[key] == expected[key], (
                f"{context}: {key} diverged from full mode at epoch {epoch}"
            )


class TestEpochModeDifferential:
    """``epoch_mode="delta"`` vs ``epoch_mode="full"``, bit for bit per epoch.

    The incremental pipeline (cross-epoch overlap-pool reuse, corridor-chain
    patching, delta-shipped worker state) is pure plumbing: every epoch's
    responses, index contents, hotness table, top-k and corridor report must
    equal a full per-epoch rebuild exactly — under churn, expiry, forced
    migrations and every backend.  Each scenario also pins that the delta
    machinery actually engaged (reuse counters non-zero, deltas emitted), so
    the equivalence claim is never vacuous.
    """

    @pytest.mark.parametrize("seed", [3, 11, 42])
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_delta_trace_matches_full(self, num_shards, seed):
        stream = synthetic_stream(seed)
        full_trace = drive_with_corridors(
            make_coordinator(num_shards, epoch_mode="full"), stream
        )
        delta_coordinator = make_coordinator(num_shards, epoch_mode="delta")
        delta_trace = drive_with_corridors(delta_coordinator, stream)
        assert_mode_equal(full_trace, delta_trace, f"shards={num_shards}")
        # Full mode emits no deltas; delta mode emits one per epoch.
        assert all(entry["delta"] is None for entry in full_trace)
        assert all(entry["delta"] is not None for entry in delta_trace)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_delta_on_parallel_backends_matches_full(self, num_shards, backend):
        stream = synthetic_stream(11)
        full_trace = drive_with_corridors(
            make_coordinator(num_shards, epoch_mode="full"), stream
        )
        delta_trace = drive_with_corridors(
            make_coordinator(num_shards, backend=backend, epoch_mode="delta"), stream
        )
        assert_mode_equal(full_trace, delta_trace, f"{backend}/shards={num_shards}")

    def test_single_shard_delta_matches_full(self):
        """The seed architecture runs the incremental stitcher too."""
        stream = synthetic_stream(42)
        full_trace = drive_with_corridors(make_coordinator(1, epoch_mode="full"), stream)
        delta_trace = drive_with_corridors(make_coordinator(1, epoch_mode="delta"), stream)
        assert_mode_equal(full_trace, delta_trace, "single-shard")

    @pytest.mark.parametrize("backend", ("serial",) + PARALLEL_BACKENDS)
    def test_delta_with_kd_rebalance_matches_full(self, backend):
        """Forced migrations + tight-threshold auto-rebalances mid-replay:
        the pool cache (content-addressed) and the incremental stitcher
        (geometry-based) must survive the record re-placement unchanged."""
        stream = skewed_stream(42)
        full_trace = drive_with_corridors(
            make_coordinator(16, epoch_mode="full"), stream
        )
        delta = make_coordinator(
            16, backend=backend, partition="kd", rebalance_threshold=1.2,
            epoch_mode="delta",
        )
        delta_trace = drive_with_corridors(delta, stream, rebalance_before=(2, 5))
        assert_mode_equal(full_trace, delta_trace, f"kd/{backend}")
        assert delta.router.rebalances >= 2, "no rebalance fired — vacuous scenario"
        assert any(entry["delta"].rebalanced for entry in delta_trace)

    @pytest.mark.parametrize("num_shards", (1,) + SHARD_COUNTS)
    def test_delta_under_forced_expiry_churn_matches_full(self, num_shards):
        """A short window forces paths to expire mid-replay (corridor-aware
        expiry must drop them from chains) and quiet epochs interleave with
        bursts, so chains are built, patched and torn down repeatedly."""
        stream = synthetic_stream(21, epochs=10, per_epoch=20)
        # Quiet epochs: drop all states from epochs 4 and 7 so expiry runs
        # against an unchanged submission side.
        stream = [
            (boundary, [] if index in (4, 7) else states)
            for index, (boundary, states) in enumerate(stream)
        ]
        full_trace = drive_with_corridors(
            make_coordinator(num_shards, window=25, epoch_mode="full"), stream
        )
        delta_trace = drive_with_corridors(
            make_coordinator(num_shards, window=25, epoch_mode="delta"), stream
        )
        assert_mode_equal(full_trace, delta_trace, f"expiry/shards={num_shards}")
        assert any(entry["paths_expired"] > 0 for entry in delta_trace), (
            "window never expired a path — vacuous scenario"
        )
        assert any(entry["delta"].deleted for entry in delta_trace)

    def test_epoch_delta_tracks_hot_membership(self):
        """The emitted delta is a faithful journal: applying each epoch's
        membership delta to the previous hot set yields the next hot set,
        and inserted/deleted ids match the index mutations."""
        from repro.coordinator.delta import apply_membership

        stream = synthetic_stream(11)
        coordinator = make_coordinator(4, window=25, epoch_mode="delta")
        hot: frozenset = frozenset()
        known_ids: set = set()
        try:
            for boundary, states in stream:
                for state in states:
                    coordinator.submit_state(state)
                outcome = coordinator.run_epoch(boundary)
                delta = outcome.delta
                assert delta is not None and delta.timestamp == boundary
                added, removed = delta.membership
                assert not (added & removed), "newly_hot and vanished overlap"
                hot = apply_membership(hot, delta.membership)
                assert hot == frozenset(
                    path_id for path_id, _h in coordinator.hotness.items()
                )
                # Inserted ids are new, live in the index, and never recycled.
                for path_id in delta.inserted:
                    assert path_id not in known_ids
                    known_ids.add(path_id)
                assert len(delta.inserted) == outcome.paths_inserted
                assert len(delta.deleted) == outcome.paths_expired
                for path_id in delta.deleted:
                    assert path_id not in coordinator.index
        finally:
            coordinator.close()

    def test_delta_counters_account_for_reuse(self):
        """A repeating stream must actually *hit* the caches: unchanged halo
        pools are reused across epochs and corridor chains are patched, and
        the statistics surface says so."""
        rng_stream = synthetic_stream(3, epochs=2, per_epoch=25)
        # Re-report the exact same states each epoch (fresh end timestamps
        # keep the window alive) — pool membership is then stable.
        base_states = rng_stream[0][1]
        stream = []
        for epoch in range(1, 7):
            boundary = epoch * 10
            states = [
                ObjectState(
                    s.object_id, s.start, boundary - 5, s.fsa_low, s.fsa_high, boundary - 1
                )
                for s in base_states
            ]
            stream.append((boundary, states))
        coordinator = make_coordinator(4, window=60, epoch_mode="delta")
        try:
            for boundary, states in stream:
                for state in states:
                    coordinator.submit_state(state)
                coordinator.run_epoch(boundary)
                coordinator.hot_corridors()
            stats = coordinator.shard_statistics()
        finally:
            coordinator.close()
        assert stats["pools_reused"] > 0, "pool cache never hit on a repeating stream"
        assert stats["pools_total"] == (
            stats["pools_reused"] + stats["pools_prefix_reused"] + stats["pools_rebuilt"]
        )
        assert stats["chains_reused"] + stats["corridors_reused"] > 0
        # Full mode reports the same schema, all-zero.
        full = make_coordinator(4, epoch_mode="full")
        try:
            full_stats = full.shard_statistics()
        finally:
            full.close()
        for key in (
            "pools_total", "pools_reused", "pools_prefix_reused", "pools_rebuilt",
            "chains_rewelded", "chains_reused", "corridors_patched",
            "corridors_reused", "expiry_coalesced",
        ):
            assert full_stats[key] == 0


def saturating_stream() -> List[Tuple[int, List[ObjectState]]]:
    """Three epochs; the middle one fills the overlap-region cap.

    Fourteen FSAs around the centre of the area all contain the square
    [430, 570]^2, so every one of their 2^14 - 1 subsets is a region — past
    the cap of 10000 — and which ones the capped build keeps depends on how
    many other FSAs were inserted before each of them.  They are interleaved
    with sparse reporters spread over every shard of a 4x4 fleet, and several
    reporters without a stored path probe the clique, so a build that kept
    a different subset answers differently.
    """
    rng = random.Random(7)

    def state(object_id, start, fsa, t_end):
        return ObjectState(object_id, start, t_end - 5, fsa.low, fsa.high, t_end)

    def sparse(object_id, t_end):
        start = Point(rng.uniform(20.0, 980.0), rng.uniform(20.0, 980.0))
        return state(object_id, start, Rectangle.from_center(start, rng.uniform(5.0, 15.0)), t_end)

    stream = [(10, [sparse(object_id, 9) for object_id in range(100, 124)])]
    saturated = []
    for member in range(14):
        low = Point(430.0 - rng.uniform(1.0, 200.0), 430.0 - rng.uniform(1.0, 200.0))
        high = Point(570.0 + rng.uniform(1.0, 200.0), 570.0 + rng.uniform(1.0, 200.0))
        start = Point(rng.uniform(low.x, high.x), rng.uniform(low.y, high.y))
        saturated.append(state(member, start, Rectangle(low, high), 19))
        saturated.extend(sparse(200 + 3 * member + extra, 19) for extra in range(3))
    for prober in range(6):
        centre = Point(rng.uniform(300.0, 700.0), rng.uniform(300.0, 700.0))
        saturated.append(
            state(300 + prober, centre, Rectangle.from_center(centre, rng.uniform(40.0, 120.0)), 19)
        )
    stream.append((20, saturated))
    stream.append((30, [sparse(object_id, 29) for object_id in range(100, 124)]))
    return stream


class TestSaturatedRegionCap:
    """A saturated overlap-region cap is not an exception to the contract."""

    def test_the_stream_saturates_the_real_cap(self):
        from repro.coordinator.overlaps import FsaOverlapStructure

        _boundary, states = saturating_stream()[1]
        fsas = {state.object_id: state.fsa for state in states}
        assert len(FsaOverlapStructure.build(fsas)) == 10000

    @pytest.mark.parametrize("backend", ("serial",) + PARALLEL_BACKENDS)
    def test_sixteen_shards_match_the_seed_through_a_saturated_epoch(self, backend):
        stream = saturating_stream()
        seed_trace = drive(make_coordinator(1, kernel="object", epoch_mode="full"), stream)
        fleet_trace = drive(make_coordinator(16, backend=backend), stream)
        for epoch, (expected, actual) in enumerate(zip(seed_trace, fleet_trace)):
            assert actual == expected, f"backend={backend} diverged at epoch {epoch}"


class TestSimulationDifferential:
    """End-to-end simulations: same workload, different shard counts."""

    WORKLOADS = {
        "default": dict(num_objects=70, duration=80, agility=0.1),
        "agile": dict(num_objects=50, duration=70, agility=0.4),
        "dense": dict(num_objects=110, duration=60, agility=0.1),
    }

    @staticmethod
    def _run(num_shards: int, seed: int, workload: str, backend: str = "serial"):
        params = TestSimulationDifferential.WORKLOADS[workload]
        config = SimulationConfig(
            tolerance=10.0,
            window=50,
            epoch_length=10,
            fleet=FleetConfig(num_shards=num_shards, backend=backend),
            seed=seed,
            network_config=NetworkConfig(area_size=2000.0, grid_nodes_per_axis=6, seed=seed),
            run_dp_baseline=False,
            run_naive_baseline=False,
            **params,
        )
        return HotPathSimulation(config).run()

    @pytest.mark.parametrize("seed,workload", [(3, "default"), (9, "agile"), (21, "dense")])
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_simulation_matches_seed(self, num_shards, seed, workload):
        baseline = self._run(1, seed, workload)
        sharded = self._run(num_shards, seed, workload)

        assert index_snapshot(sharded.coordinator) == index_snapshot(baseline.coordinator)
        assert sharded.top_k_paths() == baseline.top_k_paths()
        assert sharded.top_k_score() == baseline.top_k_score()

        # The per-epoch series must agree too, not just the final state
        # (processing time is the one field allowed to differ).
        for expected, actual in zip(baseline.metrics.epochs, sharded.metrics.epochs):
            assert actual.timestamp == expected.timestamp
            assert actual.index_size == expected.index_size
            assert actual.top_k_score == expected.top_k_score
            assert actual.states_processed == expected.states_processed
            assert actual.paths_inserted == expected.paths_inserted
            assert actual.paths_reused == expected.paths_reused
            assert actual.paths_expired == expected.paths_expired

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_simulation_with_parallel_backend_matches_seed(self, backend):
        baseline = self._run(1, 9, "agile")
        parallel = self._run(16, 9, "agile", backend=backend)
        assert index_snapshot(parallel.coordinator) == index_snapshot(baseline.coordinator)
        assert parallel.top_k_paths() == baseline.top_k_paths()
        assert parallel.top_k_score() == baseline.top_k_score()
