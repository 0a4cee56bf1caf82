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
from repro.core.scoring import ScoredPath, select_top_k, top_k_score
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.sharding import ShardRouter
from repro.coordinator.stitching import (
    CompositeCorridor,
    IncrementalStitcher,
    select_top_k_corridors,
    stitch_paths,
)
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


# ---------------------------------------------------------------------------
# The maintained query view vs. the oracle scans
# ---------------------------------------------------------------------------

VIEW_EPOCHS = 10
#: Epochs whose answers are checked; 4-6 go unqueried, so the view's dirty
#: set accumulates over three commits before it is applied.
QUERIED_EPOCHS = frozenset({1, 2, 3, 7, 8, 9, 10})
#: Two scripted commuters shuttle A <-> B in counter-phase (different shards on
#: both the 2x2 and the 4x4 grid); two one-off visitors travel C -> B five
#: epochs apart.
COMMUTE_A, COMMUTE_B, COMMUTE_C = Point(900.0, 100.0), Point(900.0, 600.0), Point(900.0, 850.0)
LAYOUTS = ("uniform", "kd", "elastic")


def make_view_coordinator(num_shards, backend="serial", epoch_mode="delta", layout="uniform"):
    elastic = layout == "elastic" and num_shards > 1
    return Coordinator(
        CoordinatorConfig(
            bounds=BOUNDS,
            window=25,
            cells_per_axis=32,
            num_shards=num_shards,
            backend=backend,
            epoch_mode=epoch_mode,
            partition="kd" if layout == "kd" else "uniform",
            elastic="auto" if elastic else "off",
            migration_budget=3 if elastic else 0,
            max_shards=num_shards + 3 if elastic else None,
        )
    )


def scored_snapshot(paths) -> List[tuple]:
    return [(s.path_id, s.hotness, s.score, s.path) for s in paths]


def assert_view_equals_oracle(coordinator: Coordinator, context: str) -> None:
    """Every ranked answer vs ``select_top_k`` / ``stitch_paths`` +
    ``select_top_k_corridors`` over the same coordinator's ``hot_paths()``."""
    hot = coordinator.hot_paths()
    report = stitch_paths(hot)
    for k in (1, 10, len(hot) + 5):
        for by_score in (False, True):
            assert scored_snapshot(coordinator.top_k(k, by_score)) == scored_snapshot(
                select_top_k(hot, k, by_score)
            ), f"top_k({k}, by_score={by_score}) {context}"
            assert corridor_snapshot(
                coordinator.top_k_corridors(k, by_score)
            ) == corridor_snapshot(select_top_k_corridors(report, k, by_score)), (
                f"top_k_corridors({k}, by_score={by_score}) {context}"
            )
        assert coordinator.top_k_score(k) == top_k_score(select_top_k(hot, k))
    assert corridor_snapshot(coordinator.hot_corridors()) == corridor_snapshot(report)


def _hot_now(coordinator: Coordinator, path: MotionPath, crossings: int, now: int) -> int:
    """Insert ``path`` behind the coordinator's back and cross it ``crossings`` times."""
    record = coordinator.index.insert(path, created_at=now)
    for _ in range(crossings):
        coordinator.hotness.record_crossing(record.path_id, now)
    return record.path_id


def view_epochs(coordinator: Coordinator, seed: int = 11):
    """The feedback stream plus everything the query view must survive.

    * two commuters shuttling ``COMMUTE_A <-> COMMUTE_B`` in counter-phase:
      both legs are crossed every epoch, so from epoch 4 on an old crossing
      decays in the very epoch a new one touches the path; a visitor crosses
      ``C -> B`` once in epoch 1, the path vanishes, and a second visitor
      re-creates its geometry under a new id in epoch 6;
    * after epoch 2, mutations made directly on the index and the trackers:
      a three-path weld cycle with unequal hotness, and two disjoint paths of
      equal length and hotness (equal scores, hotness ties) — one of which is
      deleted from the index after epoch 8, while it is still hot and no
      transition of that epoch names it;
    * a forced layout change after epochs 2 and 6 (kd refit, or an elastic
      split that stays in flight over several boundaries).

    Yields ``(epoch, outcome)`` after the epoch's direct mutations.
    """
    walkers = feedback_epochs(coordinator, seed, epochs=VIEW_EPOCHS, objects=12)
    commuter_at = {100: COMMUTE_A, 110: COMMUTE_B}
    doomed = None
    for epoch in range(1, VIEW_EPOCHS + 1):
        boundary = epoch * 10
        trips = [
            (object_id, start, COMMUTE_B if start == COMMUTE_A else COMMUTE_A)
            for object_id, start in commuter_at.items()
        ]
        if epoch in (1, 6):
            trips.append((100 + epoch, COMMUTE_C, COMMUTE_B))
        for object_id, start, target in trips:
            fsa = Rectangle.from_center(target, 4.0)
            coordinator.submit_state(
                ObjectState(object_id, start, boundary - 6, fsa.low, fsa.high, boundary - 1)
            )
        outcome = next(walkers)  # submits the walkers' states and runs the epoch
        for response in outcome.responses:
            if response.object_id in commuter_at:
                commuter_at[response.object_id] = response.endpoint
        if epoch == 2:
            v0, v1, v2 = Point(100.0, 900.0), Point(400.0, 900.0), Point(250.0, 700.0)
            for crossings, path in enumerate(
                (MotionPath(v0, v1), MotionPath(v1, v2), MotionPath(v2, v0)), start=1
            ):
                _hot_now(coordinator, path, crossings, boundary)
            twin = MotionPath(Point(50.0, 50.0), Point(350.0, 50.0))
            _hot_now(coordinator, twin, 2, boundary)
            doomed = _hot_now(
                coordinator, MotionPath(Point(50.0, 60.0), Point(350.0, 60.0)), 2, boundary + 40
            )
        if epoch == 8:
            coordinator.index.delete(doomed)  # hot entry without a live record
        if epoch in (2, 6) and coordinator.router is not None:
            if coordinator.config.partition == "kd" or coordinator.config.elastic == "auto":
                coordinator.router.rebalance()
        yield epoch, outcome


class TestQueryViewEqualsOracle:
    """After every queried epoch of a replay, on every configuration, the
    maintained view's answers equal the oracle scans bit for bit."""

    @staticmethod
    def _replay(coordinator: Coordinator) -> None:
        try:
            for epoch, _outcome in view_epochs(coordinator):
                if epoch in QUERIED_EPOCHS:
                    assert_view_equals_oracle(coordinator, f"after epoch {epoch}")
        finally:
            coordinator.close()

    @pytest.mark.parametrize("epoch_mode", ["delta", "full"])
    def test_single_shard(self, epoch_mode):
        self._replay(make_view_coordinator(1, epoch_mode=epoch_mode))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("epoch_mode", ["delta", "full"])
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_fleet(self, num_shards, backend, epoch_mode, layout):
        self._replay(make_view_coordinator(num_shards, backend, epoch_mode, layout))

    def test_stream_exercises_every_scenario(self):
        """Guard against a vacuous differential: the stream really produces
        ties, equal scores, same-epoch touch+decay, a vanished-and-re-created
        path, a weld cycle, and an elastic migration in flight at a query."""
        coordinator = make_view_coordinator(4, layout="elastic")
        touch_and_decay = recreated = False
        geometry_of: Dict[int, MotionPath] = {}
        vanished_geometry = set()
        in_flight_at_a_query = False
        dirty_before_query = {}
        try:
            for epoch, outcome in view_epochs(coordinator):
                delta = outcome.delta
                if epoch in QUERIED_EPOCHS:
                    dirty_before_query[epoch] = coordinator._view._dirty
                    coordinator.top_k(1)
                touch_and_decay |= bool(set(delta.touched) & set(delta.decayed))
                vanished_geometry.update(geometry_of[path_id] for path_id in delta.vanished)
                for path_id in delta.inserted:
                    geometry_of[path_id] = coordinator.index.get(path_id).path
                    recreated |= geometry_of[path_id] in vanished_geometry
                for record, _hotness in coordinator.hot_paths():
                    geometry_of.setdefault(record.path_id, record.path)
                if epoch == 2:
                    in_flight_at_a_query = coordinator.router._migration is not None
                    hot = coordinator.hot_paths()
                    keys = [(h, h * record.path.length) for record, h in hot]
                    assert len(set(keys)) < len(keys), "no equal (hotness, score) pair"
                    cycles = [
                        c for c in stitch_paths(hot) if c.num_segments == 3 and c.start == c.end
                    ]
                    assert cycles and cycles[0].hotness == 1, "no weld cycle"
                    tenth = select_top_k(hot, 10)[-1].hotness
                    assert sum(h == tenth for _r, h in hot) > 1, "no tie at the cut"
        finally:
            coordinator.close()
        assert touch_and_decay, "no path was touched and decayed in one epoch"
        assert recreated, "no vanished geometry came back under a new id"
        assert in_flight_at_a_query, "the elastic migration was not in flight"
        # Both ways of catching up ran: a patch from a small dirty set, and the
        # rescan once the dirty set had outgrown the hot set.
        assert dirty_before_query[9], "epoch 9 was not patched from dirty ids"
        assert None in dirty_before_query.values(), "the dirty set never outgrew the hot set"


class TestQueryWork:
    """ROADMAP 7's "from all hot to O(k + touched)" as exact counts, no clock."""

    def test_a_post_commit_query_builds_k_objects(self, monkeypatch):
        k = 10
        coordinator = make_coordinator(1)
        built = {"scored": 0, "corridors": 0, "rewelds": 0}

        def counting(owner, name, counter):
            original = getattr(owner, name)

            def wrapper(self, *args, **kwargs):
                built[counter] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        try:
            epochs = feedback_epochs(coordinator, 11, epochs=12, objects=14)
            for _ in range(11):
                next(epochs)
                coordinator.top_k(k)
                coordinator.top_k_corridors(k)
            counting(ScoredPath, "__init__", "scored")
            counting(CompositeCorridor, "__post_init__", "corridors")
            counting(IncrementalStitcher, "_reweld", "rewelds")
            outcome = next(epochs)
            hot = len(coordinator.hot_paths())
            built.update(scored=0, corridors=0, rewelds=0)  # hot_paths() is the oracle's
            coordinator.top_k(k)
            coordinator.top_k_corridors(k)
        finally:
            coordinator.close()
        delta = outcome.delta
        dirty = set(delta.newly_hot) | set(delta.touched) | set(delta.decayed) | set(delta.vanished)
        assert hot > 4 * k and 0 < len(dirty) < hot, "not a steady stream"
        assert built["scored"] == k
        assert 0 < built["corridors"] <= k
        # Two vertices per id that entered or left the hot set.
        assert 0 < built["rewelds"] <= 2 * len(dirty)
