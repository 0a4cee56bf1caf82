"""Tests for the shard-local FSA overlap stage (:func:`plan_shard_overlaps`).

The equivalence argument in :mod:`repro.coordinator.sharding` rests on three
facts, each pinned here independently of the end-to-end differential harness:

* **halo closure** — the adaptive pool of a shard contains every epoch FSA
  that intersects any FSA in the shard's bucket, so all regions relevant to
  the shard's queries exist locally;
* **order restriction** — a pool preserves the global submission order, so
  the local structure's region iteration order (which first-encountered
  tie-breaks depend on) is the global order restricted to the pool;
* **query equality** — consequently every overlap query a shard's strategy
  can issue returns the identical region from the local and global builds.

Plus the mechanics: pool dedup and structure sharing, shared-prefix builds,
the fixed-ring halo shapes, and worker-side builds agreeing across all three
execution backends (the process backend round-trips structures through its
serialized wire format).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.overlaps import FsaOverlapStructure, build_structures
from repro.coordinator.coordinator import CoordinatorConfig
from repro.coordinator.sharding import ShardGrid, ShardRouter, plan_shard_overlaps

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
GRID = ShardGrid(BOUNDS, 4, 4)

# Coordinates collide with the 4x4 shard borders (multiples of 250) and fall
# outside the bounds, so FSAs routinely straddle shards and clamp in.
coordinate_pool = st.sampled_from(
    [-40.0, 0.0, 100.0, 249.9, 250.0, 500.0, 625.0, 750.0, 999.0, 1000.0, 1100.0]
)
half_extents = st.sampled_from([1.0, 30.0, 130.0, 300.0])


@st.composite
def object_states(draw) -> ObjectState:
    object_id = draw(st.integers(min_value=0, max_value=8))
    start = Point(draw(coordinate_pool), draw(coordinate_pool))
    centre = Point(draw(coordinate_pool), draw(coordinate_pool))
    fsa = Rectangle.from_center(centre, draw(half_extents))
    t_end = draw(st.integers(min_value=1, max_value=50))
    return ObjectState(object_id, start, 0, fsa.low, fsa.high, t_end)


state_lists = st.lists(object_states(), min_size=1, max_size=20)


def stage1(states) -> Tuple[Dict[int, List[Tuple[int, ObjectState]]], Dict[int, Rectangle]]:
    """Replicate the pipeline's stage-1 grouping (later FSA wins per object)."""
    buckets: Dict[int, List[Tuple[int, ObjectState]]] = {}
    fsas: Dict[int, Rectangle] = {}
    for position, state in enumerate(states):
        buckets.setdefault(GRID.shard_id_of(state.start), []).append((position, state))
        fsas[state.object_id] = state.fsa
    return buckets, fsas


class TestAdaptiveHaloClosure:
    @settings(max_examples=150, deadline=None)
    @given(state_lists)
    def test_pool_contains_every_intersecting_fsa(self, states):
        buckets, fsas = stage1(states)
        plan = plan_shard_overlaps(GRID, buckets, fsas, halo=None)
        for shard_id, bucket in buckets.items():
            pool = plan.pools[plan.pool_of_shard[shard_id]]
            for _position, state in bucket:
                for object_id, fsa in fsas.items():
                    if fsa.intersects(state.fsa):
                        assert object_id in pool, (
                            f"shard {shard_id}: FSA of object {object_id} intersects "
                            f"a bucket state's FSA but is missing from the halo pool"
                        )

    @settings(max_examples=100, deadline=None)
    @given(state_lists)
    def test_pool_preserves_submission_order(self, states):
        buckets, fsas = stage1(states)
        plan = plan_shard_overlaps(GRID, buckets, fsas, halo=None)
        submission = {object_id: rank for rank, object_id in enumerate(fsas)}
        for pool in plan.pools:
            ranks = [submission[object_id] for object_id in pool]
            assert ranks == sorted(ranks)
            for object_id in pool:
                assert pool[object_id] == fsas[object_id]

    @settings(max_examples=100, deadline=None)
    @given(state_lists)
    def test_local_queries_equal_global_queries(self, states):
        """The tentpole property, asserted directly on the query surface."""
        buckets, fsas = stage1(states)
        plan = plan_shard_overlaps(GRID, buckets, fsas, halo=None)
        global_structure = FsaOverlapStructure.build(fsas)
        structures = build_structures(plan.pools)
        for shard_id, bucket in buckets.items():
            local = structures[plan.pool_of_shard[shard_id]]
            for _position, state in bucket:
                assert local.candidate_vertex_for(state.fsa) == (
                    global_structure.candidate_vertex_for(state.fsa)
                )
                local_hot = local.hottest_region_intersecting(state.fsa)
                global_hot = global_structure.hottest_region_intersecting(state.fsa)
                assert (local_hot is None) == (global_hot is None)
                if local_hot is not None:
                    assert local_hot.members == global_hot.members
                    assert local_hot.rectangle == global_hot.rectangle
                # Points a decision can probe: anywhere inside the state's FSA.
                for point in (*state.fsa.corners(), state.fsa.center):
                    local_small = local.smallest_region_containing(point)
                    global_small = global_structure.smallest_region_containing(point)
                    assert (local_small is None) == (global_small is None)
                    if local_small is not None:
                        assert local_small.members == global_small.members
                        assert local_small.rectangle == global_small.rectangle


class TestFixedRingHalo:
    def state_at(self, x, y, object_id=0, half=10.0):
        fsa = Rectangle.from_center(Point(x, y), half)
        return ObjectState(object_id, Point(x, y), 0, fsa.low, fsa.high, 5)

    def test_halo_zero_pools_only_own_shard_fsas(self):
        states = [
            self.state_at(100.0, 100.0, object_id=1),   # shard 0
            self.state_at(900.0, 900.0, object_id=2),   # shard 15
        ]
        buckets, fsas = stage1(states)
        plan = plan_shard_overlaps(GRID, buckets, fsas, halo=0)
        shard_of = {1: GRID.shard_id_of(Point(100.0, 100.0)), 2: GRID.shard_id_of(Point(900.0, 900.0))}
        for object_id, shard_id in shard_of.items():
            pool = plan.pools[plan.pool_of_shard[shard_id]]
            assert list(pool) == [object_id]

    def test_full_cover_ring_equals_adaptive_pool_of_everything(self):
        states = [
            self.state_at(100.0, 100.0, object_id=1),
            self.state_at(900.0, 900.0, object_id=2),
            self.state_at(500.0, 500.0, object_id=3, half=400.0),  # straddles all
        ]
        buckets, fsas = stage1(states)
        plan = plan_shard_overlaps(GRID, buckets, fsas, halo=3)  # 3 rings cover 4x4
        for shard_id in buckets:
            pool = plan.pools[plan.pool_of_shard[shard_id]]
            assert list(pool) == list(fsas)

    @settings(max_examples=60, deadline=None)
    @given(state_lists, st.integers(min_value=0, max_value=3))
    def test_fixed_ring_pool_is_the_ring_membership(self, states, halo):
        buckets, fsas = stage1(states)
        plan = plan_shard_overlaps(GRID, buckets, fsas, halo=halo)
        spans = {
            object_id: set(GRID.shard_ids_overlapping(fsa))
            for object_id, fsa in fsas.items()
        }
        for shard_id in buckets:
            row, col = divmod(shard_id, GRID.cols)
            ring = {
                r * GRID.cols + c
                for r in range(max(0, row - halo), min(GRID.rows, row + halo + 1))
                for c in range(max(0, col - halo), min(GRID.cols, col + halo + 1))
            }
            pool = plan.pools[plan.pool_of_shard[shard_id]]
            expected = [object_id for object_id in fsas if spans[object_id] & ring]
            assert list(pool) == expected


class TestPoolSharing:
    def test_identical_pools_deduplicate_to_one_entry(self):
        fsa = Rectangle.from_center(Point(500.0, 500.0), 450.0)  # overlaps all shards
        states = [
            ObjectState(1, Point(100.0, 100.0), 0, fsa.low, fsa.high, 5),
            ObjectState(2, Point(900.0, 900.0), 0, fsa.low, fsa.high, 5),
        ]
        buckets, fsas = stage1(states)
        plan = plan_shard_overlaps(GRID, buckets, fsas, halo=None)
        assert len(plan.pools) == 1
        assert len(set(plan.pool_of_shard.values())) == 1

    def test_build_structures_shares_identical_pools(self):
        pool = {1: Rectangle.from_center(Point(10.0, 10.0), 5.0)}
        structures = build_structures([dict(pool), dict(pool)])
        assert structures[0] is structures[1]

    def test_shared_prefix_build_matches_independent_build(self):
        rects = {
            1: Rectangle.from_center(Point(10.0, 10.0), 8.0),
            2: Rectangle.from_center(Point(14.0, 10.0), 8.0),
            3: Rectangle.from_center(Point(12.0, 14.0), 8.0),
            4: Rectangle.from_center(Point(30.0, 30.0), 8.0),
        }
        prefix = {1: rects[1], 2: rects[2]}
        extended = {1: rects[1], 2: rects[2], 3: rects[3], 4: rects[4]}
        shared = build_structures([prefix, extended])
        independent = [FsaOverlapStructure.build(prefix), FsaOverlapStructure.build(extended)]
        for built, expected in zip(shared, independent):
            assert [(r.members, r.rectangle) for r in built.regions()] == [
                (r.members, r.rectangle) for r in expected.regions()
            ]

    def test_sibling_pools_share_a_common_prefix_snapshot(self):
        """Pools (1,2,3) and (1,2,4) must both resume from the (1,2) build —
        the prefix chain is a stack, not just the immediately preceding pool —
        and still match fully independent builds."""
        rects = {
            1: Rectangle.from_center(Point(10.0, 10.0), 8.0),
            2: Rectangle.from_center(Point(14.0, 10.0), 8.0),
            3: Rectangle.from_center(Point(12.0, 14.0), 8.0),
            4: Rectangle.from_center(Point(11.0, 6.0), 8.0),
        }
        pools = [
            {1: rects[1], 2: rects[2]},
            {1: rects[1], 2: rects[2], 3: rects[3]},
            {1: rects[1], 2: rects[2], 4: rects[4]},
        ]
        built = build_structures(pools)
        for structure, pool in zip(built, pools):
            expected = FsaOverlapStructure.build(pool)
            assert [(r.members, r.rectangle) for r in structure.regions()] == [
                (r.members, r.rectangle) for r in expected.regions()
            ]

    @settings(max_examples=100, deadline=None)
    @given(state_lists, st.integers(min_value=1, max_value=12))
    def test_build_structures_matches_independent_builds(self, states, max_regions):
        """Whatever sharing path a pool takes (dedup, prefix resume, fresh
        build), the result is bit-identical to an independent build — capped
        builds included."""
        buckets, fsas = stage1(states)
        plan = plan_shard_overlaps(GRID, buckets, fsas, halo=None)
        built = build_structures(plan.pools, max_regions=max_regions)
        for structure, pool in zip(built, plan.pools):
            expected = FsaOverlapStructure.build(pool, max_regions=max_regions)
            assert [(r.members, r.rectangle) for r in structure.regions()] == [
                (r.members, r.rectangle) for r in expected.regions()
            ]

    def test_shared_prefix_does_not_mutate_the_prefix_structure(self):
        prefix = {1: Rectangle.from_center(Point(10.0, 10.0), 8.0)}
        extended = {1: prefix[1], 2: Rectangle.from_center(Point(12.0, 10.0), 8.0)}
        structures = build_structures([prefix, extended])
        short = structures[0] if len(structures[0]) < len(structures[1]) else structures[1]
        assert len(short) == 1


class TestBackendWorkerBuilds:
    """All three backends must build identical structures from the same pools
    (the process backend round-trips them through the serialized format)."""

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_worker_side_builds_match_inline_build(self, backend):
        router = ShardRouter(
            CoordinatorConfig(
                bounds=BOUNDS, window=40, cells_per_axis=32, num_shards=16, backend=backend
            )
        )
        try:
            pools = [
                {
                    1: Rectangle.from_center(Point(200.0, 200.0), 80.0),
                    2: Rectangle.from_center(Point(260.0, 200.0), 80.0),
                },
                {
                    2: Rectangle.from_center(Point(260.0, 200.0), 80.0),
                    3: Rectangle.from_center(Point(800.0, 800.0), 50.0),
                },
                {4: Rectangle.from_center(Point(500.0, 500.0), 5.0)},
            ]
            per_state, structures = router.pipeline.backend.map_candidate_buckets(
                router, {}, [], pools
            )
            assert per_state == []
            expected = [FsaOverlapStructure.build(pool) for pool in pools]
            assert len(structures) == len(expected)
            for built, reference in zip(structures, expected):
                assert [(r.members, r.rectangle) for r in built.regions()] == [
                    (r.members, r.rectangle) for r in reference.regions()
                ]
        finally:
            router.pipeline.close()
