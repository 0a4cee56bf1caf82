"""Stitching differential harness: composite corridors must match the seed.

Extends the differential contract of ``tests/test_sharding_equivalence.py``
to the corridor report: a sharded fleet must produce, after every epoch,
exactly the corridors a *global* stitch of the seed coordinator's hot paths
produces — path ids, segment order, geometry, per-segment hotness, merged
hotness and score, bit for bit — for 2x2 and 4x4 grids on every execution
backend.

The streams here are *feedback-driven*: each object's next SSA start is the
endpoint the coordinator returned for it, exactly as RayTrace consumes
responses.  That is what makes hot paths chain end-to-start (and therefore
makes the stitch non-trivial); the seed and the sharded coordinators receive
identical streams because their responses are identical (the existing
bit-for-bit contract).  A guard test asserts the streams really do produce
multi-segment, multi-shard corridors — without it the differential would be
vacuous.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.sharding import ShardRouter
from repro.coordinator.stitching import CompositeCorridor, stitch_paths
from repro.network.generator import NetworkConfig
from repro.simulation.engine import HotPathSimulation, SimulationConfig

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
SHARD_COUNTS = (4, 16)  # 2x2 and 4x4
PARALLEL_BACKENDS = ("threads", "processes")
ALL_BACKENDS = ("serial",) + PARALLEL_BACKENDS


def make_coordinator(
    num_shards: int,
    window: int = 120,
    backend: str = "serial",
    epoch_mode: str = "delta",
    partition: str = "uniform",
    rebalance_threshold: float = 2.0,
) -> Coordinator:
    return Coordinator(
        CoordinatorConfig(
            bounds=BOUNDS,
            window=window,
            cells_per_axis=32,
            num_shards=num_shards,
            backend=backend,
            epoch_mode=epoch_mode,
            partition=partition,
            rebalance_threshold=rebalance_threshold,
        )
    )


def corridor_snapshot(corridors: List[CompositeCorridor]) -> List[tuple]:
    """Canonical bit-for-bit snapshot of a corridor report."""
    return [
        (
            corridor.path_ids,
            tuple(
                (
                    segment.path.start.as_tuple(),
                    segment.path.end.as_tuple(),
                    segment.hotness,
                )
                for segment in corridor.segments
            ),
            corridor.hotness,
            corridor.score,
            corridor.length,
        )
        for corridor in corridors
    ]


def _clamp(value: float, low: float = 0.0, high: float = 1000.0) -> float:
    return min(max(value, low), high)


def feedback_epochs(coordinator: Coordinator, seed: int, epochs: int = 8, objects: int = 14):
    """Drive one feedback epoch at a time, yielding each ``EpochOutcome``.

    Objects random-walk across the whole area (steps up to 240 units cross
    the 4x4 shard borders routinely); each epoch an object reports from the
    endpoint of its previous response, so consecutive paths weld end-to-start.
    Per-step randomness is derived from ``(seed, epoch, object)`` alone, so
    every coordinator sees the identical stream as long as its responses
    match the seed's — which the sharding contract guarantees.
    """
    rng = random.Random(seed)
    position = {
        object_id: Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        for object_id in range(objects)
    }
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        for object_id in range(objects):
            step = random.Random(seed * 1_000_003 + epoch * 1009 + object_id)
            start = position[object_id]
            target = Point(
                _clamp(start.x + step.uniform(-240.0, 240.0)),
                _clamp(start.y + step.uniform(-240.0, 240.0)),
            )
            fsa = Rectangle.from_center(target, step.uniform(8.0, 60.0))
            t_end = boundary - step.randrange(5)
            coordinator.submit_state(
                ObjectState(object_id, start, max(0, t_end - 5), fsa.low, fsa.high, t_end)
            )
        outcome = coordinator.run_epoch(boundary)
        for response in outcome.responses:
            position[response.object_id] = response.endpoint
        yield outcome


def drive_feedback(
    coordinator: Coordinator, seed: int, epochs: int = 8, objects: int = 14
) -> List[Dict]:
    """Run the feedback stream, snapshotting the corridor report every epoch."""
    trace = []
    try:
        for outcome in feedback_epochs(coordinator, seed, epochs, objects):
            trace.append(
                {
                    "responses": outcome.responses,
                    "corridors": corridor_snapshot(coordinator.hot_corridors()),
                    "top_k_by_hotness": corridor_snapshot(
                        coordinator.top_k_corridors(10)
                    ),
                    "top_k_by_score": corridor_snapshot(
                        coordinator.top_k_corridors(10, by_score=True)
                    ),
                }
            )
    finally:
        coordinator.close()
    return trace


def drive_feedback_no_close(coordinator: Coordinator, seed: int, epochs: int = 8):
    """Feedback-stream variant leaving the coordinator open for inspection.

    Returns the last ``EpochOutcome``.
    """
    outcome = None
    for outcome in feedback_epochs(coordinator, seed, epochs):
        pass
    return outcome


class TestStitchingDifferential:
    """Sharded stitching vs the seed coordinator's global stitch."""

    @pytest.mark.parametrize("seed", [3, 11, 42])
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_stitched_trace_matches_seed(self, num_shards, seed):
        seed_trace = drive_feedback(make_coordinator(1), seed)
        sharded_trace = drive_feedback(make_coordinator(num_shards), seed)
        for epoch, (expected, actual) in enumerate(zip(seed_trace, sharded_trace)):
            assert actual == expected, f"stitching diverged at epoch {epoch}"

    @pytest.mark.parametrize("seed", [11, 42])
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_parallel_backend_stitched_trace_matches_seed(self, num_shards, backend, seed):
        """2x2 and 4x4 fleets stitching on the worker-pool backends."""
        seed_trace = drive_feedback(make_coordinator(1), seed)
        parallel_trace = drive_feedback(
            make_coordinator(num_shards, backend=backend), seed
        )
        for epoch, (expected, actual) in enumerate(zip(seed_trace, parallel_trace)):
            assert actual == expected, (
                f"backend={backend} stitching diverged from the seed at epoch {epoch}"
            )

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_streams_really_exercise_cross_shard_stitching(self, seed):
        """Guard against a vacuous differential: the feedback streams must
        produce corridors stitched from several paths owned by several
        shards, with real cross-boundary welds."""
        coordinator = make_coordinator(16)
        try:
            drive_feedback_no_close(coordinator, seed)
            corridors = coordinator.hot_corridors()
            # The first query stitched and cached this exact report.
            assert coordinator.hot_corridors() is corridors
            stats = coordinator.router.stitch_stats
            grid = coordinator.router.grid
            multi = [c for c in corridors if c.num_segments > 1]
            cross_shard = [
                corridor
                for corridor in multi
                if len(
                    {
                        grid.shard_id_of(segment.path.start)
                        for segment in corridor.segments
                    }
                )
                > 1
            ]
            assert multi, "no multi-segment corridors — the stream never chained"
            assert cross_shard, "no corridor spans several shards"
            assert stats["boundary_welds"] > 0
            assert stats["corridors"] == len(corridors)
        finally:
            coordinator.close()

    def test_hot_corridors_partition_the_hot_set(self):
        """Every hot path appears in exactly one corridor, on every layout."""
        for num_shards in (1,) + SHARD_COUNTS:
            coordinator = make_coordinator(num_shards)
            try:
                drive_feedback_no_close(coordinator, seed=11)
                hot_ids = sorted(
                    path_id for path_id, _ in coordinator.hotness.items()
                    if path_id in coordinator.index
                )
                corridor_ids = sorted(
                    path_id
                    for corridor in coordinator.hot_corridors()
                    for path_id in corridor.path_ids
                )
                assert corridor_ids == hot_ids
            finally:
                coordinator.close()


class TestIncrementalStitching:
    """``epoch_mode='delta'`` corridor maintenance vs the full rebuild.

    The feedback streams weld consecutive paths end-to-start, so the
    incremental stitcher's chain patching (insert welds, corridor-aware
    expiry, re-welds at touched vertices) is exercised for real — and must
    stay bit-for-bit equal to full mode's per-epoch global rebuild.
    """

    @pytest.mark.parametrize("seed", [3, 11, 42])
    @pytest.mark.parametrize("num_shards", (1,) + SHARD_COUNTS)
    def test_delta_stitched_trace_matches_full(self, num_shards, seed):
        full_trace = drive_feedback(make_coordinator(num_shards, epoch_mode="full"), seed)
        delta_trace = drive_feedback(make_coordinator(num_shards, epoch_mode="delta"), seed)
        for epoch, (expected, actual) in enumerate(zip(full_trace, delta_trace)):
            assert actual == expected, (
                f"delta stitching diverged at epoch {epoch} (shards={num_shards})"
            )

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_delta_stitching_on_parallel_backends_matches_full(self, backend):
        full_trace = drive_feedback(make_coordinator(16, epoch_mode="full"), 11)
        delta_trace = drive_feedback(
            make_coordinator(16, backend=backend, epoch_mode="delta"), 11
        )
        for epoch, (expected, actual) in enumerate(zip(full_trace, delta_trace)):
            assert actual == expected, f"{backend} delta stitching diverged at {epoch}"

    @pytest.mark.parametrize("num_shards", (1,) + SHARD_COUNTS)
    def test_delta_stitching_under_expiry_matches_full(self, num_shards):
        """A short window tears welded chains down mid-replay: corridor-aware
        expiry must remove exactly the expired fragments from their chains."""
        full_trace = drive_feedback(
            make_coordinator(num_shards, window=25, epoch_mode="full"), 42, epochs=10
        )
        delta = make_coordinator(num_shards, window=25, epoch_mode="delta")
        delta_trace = []
        try:
            for outcome in feedback_epochs(delta, 42, epochs=10):
                delta_trace.append(
                    {
                        "responses": outcome.responses,
                        "corridors": corridor_snapshot(delta.hot_corridors()),
                        "top_k_by_hotness": corridor_snapshot(delta.top_k_corridors(10)),
                        "top_k_by_score": corridor_snapshot(
                            delta.top_k_corridors(10, by_score=True)
                        ),
                    }
                )
        finally:
            stats = delta.shard_statistics()
            delta.close()
        for epoch, (expected, actual) in enumerate(zip(full_trace, delta_trace)):
            assert actual == expected, f"expiry delta stitching diverged at {epoch}"
        assert stats["fragments_removed"] > 0, (
            "window never removed a welded fragment — vacuous scenario"
        )

    def test_delta_stitching_with_kd_rebalance_matches_full(self):
        """Chains survive partition migrations: the stitcher is keyed by path
        geometry, and per-query ownership resolution follows the new owners."""
        full_trace = drive_feedback(make_coordinator(16, epoch_mode="full"), 11)
        delta = make_coordinator(
            16, partition="kd", rebalance_threshold=1.2, epoch_mode="delta"
        )
        delta_trace = []
        try:
            for outcome in feedback_epochs(delta, 11):
                delta_trace.append(
                    {
                        "responses": outcome.responses,
                        "corridors": corridor_snapshot(delta.hot_corridors()),
                        "top_k_by_hotness": corridor_snapshot(delta.top_k_corridors(10)),
                        "top_k_by_score": corridor_snapshot(
                            delta.top_k_corridors(10, by_score=True)
                        ),
                    }
                )
            rebalances = delta.router.rebalances
        finally:
            delta.close()
        for epoch, (expected, actual) in enumerate(zip(full_trace, delta_trace)):
            assert actual == expected, f"kd delta stitching diverged at {epoch}"
        assert rebalances > 0, "no rebalance fired — vacuous scenario"

    def test_incremental_counters_engage_on_feedback_streams(self):
        """The welding workload must drive the patch path, not full rebuilds:
        fragments enter chains, touched chains are re-welded, untouched
        corridors are served from cache."""
        coordinator = make_coordinator(16, epoch_mode="delta")
        try:
            for outcome in feedback_epochs(coordinator, 3):
                coordinator.hot_corridors()
            stats = coordinator.shard_statistics()
        finally:
            coordinator.close()
        assert stats["fragments_added"] > 0
        assert stats["chains_rewelded"] > 0
        assert stats["corridors_reused"] > 0, (
            "every corridor was rebuilt every epoch — no incrementality"
        )


class TestLazyStitching:
    def test_stitching_is_lazy_until_queried(self):
        """Epochs that nobody asks corridors of never pay for stitching:
        run_epoch only invalidates the cached report, and the first query
        afterwards stitches once."""
        coordinator = make_coordinator(4)
        try:
            drive_feedback_no_close(coordinator, seed=3, epochs=2)
            assert coordinator.router.stitch_stats == {}  # no query yet
            corridors = coordinator.hot_corridors()
            assert corridors
            assert coordinator.router.stitch_stats["corridors"] == len(corridors)
            assert coordinator.hot_corridors() is corridors  # cached
        finally:
            coordinator.close()


class TestWeldCycles:
    """Weld cycles (closed hot-path loops) are broken once, at the minimum
    member id, whichever shards' weld passes decided the cycle's welds."""

    def _cycle_router(self) -> ShardRouter:
        # 2x2 grid over 1000^2: V0, V1 in shard 0 (x < 500), V2 in shard 1.
        # Paths 0: V0->V2, 1: V1->V0, 2: V2->V1 close the weld cycle
        # 0 -> 2 -> 1 -> 0 with welds {1->0 same-owner, 2->1 and 0->2 cross}.
        router = ShardRouter(
            CoordinatorConfig(bounds=BOUNDS, window=10**6, cells_per_axis=32, num_shards=4)
        )
        v0, v1, v2 = Point(100.0, 100.0), Point(200.0, 100.0), Point(600.0, 100.0)
        for path in (MotionPath(v0, v2), MotionPath(v1, v0), MotionPath(v2, v1)):
            record = router.insert(path, created_at=0)
            router.hotness.record_crossing(record.path_id, 0)
        return router

    def test_cross_shard_cycle_weld_accounting(self):
        router = self._cycle_router()
        corridors = router.stitch_epoch()
        assert [c.path_ids for c in corridors] == [(0, 2, 1)]  # broken at min id 0
        # Stats count *consumed* welds — the cycle-closing 1->0 weld drops
        # out before counting, so fragments - welds == corridors and the
        # numbers match whatever shard layout decided the welds.
        assert router.stitch_stats["welds"] == 2
        assert router.stitch_stats["boundary_welds"] == 2

    def test_cycle_matches_the_global_stitch(self):
        router = self._cycle_router()
        hot = [
            (router.index.get(path_id), hotness)
            for path_id, hotness in sorted(router.hotness.items())
        ]
        assert corridor_snapshot(router.stitch_epoch()) == corridor_snapshot(
            stitch_paths(hot)
        )


class TestSimulationStitching:
    """End-to-end simulations: the corridor report survives the full stack."""

    @staticmethod
    def _run(num_shards: int, backend: str = "serial"):
        config = SimulationConfig(
            num_objects=60,
            duration=80,
            agility=0.1,
            tolerance=10.0,
            window=50,
            epoch_length=10,
            fleet=FleetConfig(num_shards=num_shards, backend=backend),
            seed=9,
            network_config=NetworkConfig(area_size=2000.0, grid_nodes_per_axis=6, seed=9),
            run_dp_baseline=False,
            run_naive_baseline=False,
        )
        return HotPathSimulation(config).run()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_simulation_corridors_match_seed(self, backend):
        baseline = self._run(1)
        sharded = self._run(16, backend=backend)
        assert corridor_snapshot(sharded.hot_corridors()) == corridor_snapshot(
            baseline.hot_corridors()
        )
        assert corridor_snapshot(sharded.top_k_corridors()) == corridor_snapshot(
            baseline.top_k_corridors()
        )

    def test_simulation_reference_is_the_global_stitch(self):
        """The seed report is literally ``stitch_paths`` over its hot paths,
        and real simulations chain paths into multi-segment corridors."""
        baseline = self._run(1)
        assert corridor_snapshot(baseline.hot_corridors()) == corridor_snapshot(
            stitch_paths(baseline.hot_paths())
        )
        assert any(c.num_segments > 1 for c in baseline.hot_corridors())
