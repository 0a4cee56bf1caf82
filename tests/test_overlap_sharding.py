"""Tests for the overlap stage's planning half (:func:`plan_shard_overlaps`).

The stage builds one overlap structure per epoch out of independently built
(and cached) *components*; :mod:`repro.coordinator.overlaps` argues why that
equals the sequential build.  The facts the argument rests on are pinned here
independently of the end-to-end differential harness:

* **partition** — every epoch FSA sits in exactly one pool, with its FSA;
* **separation and connectivity** — FSAs of different pools share no positive
  area (so no region spans two pools), and a pool cannot be split further;
* **order** — a pool preserves the submission order of its members, and the
  pools come ordered by their first member;
* **layout independence** — the pools of an epoch are the same for every shard
  count, partition and kernel, because the stage never sees the layout.

Plus the mechanics: what the plan asks to be built with and without a cache,
and worker-side builds agreeing across all three execution backends (the
process backend round-trips structures through its serialized wire format).
``tests/test_overlap_properties.py`` holds the merged-structure equality.
"""

from __future__ import annotations

from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator import sharding, single_path
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.overlaps import (
    FsaOverlapStructure,
    OverlapPoolCache,
    build_structures,
    plan_shard_overlaps,
)
from repro.coordinator.sharding import ShardRouter

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
KERNELS = ("object", "columnar")

# Coordinates collide with the 4x4 shard borders (multiples of 250) and with
# each other, so FSAs routinely touch along an edge or at a corner — linked
# only when the shared area is positive.
coordinate_pool = st.sampled_from(
    [-40.0, 0.0, 100.0, 249.9, 250.0, 500.0, 625.0, 750.0, 999.0, 1000.0, 1100.0]
)
half_extents = st.sampled_from([0.0, 1.0, 30.0, 125.0, 130.0, 300.0])


@st.composite
def object_states(draw) -> ObjectState:
    object_id = draw(st.integers(min_value=0, max_value=8))
    start = Point(draw(coordinate_pool), draw(coordinate_pool))
    centre = Point(draw(coordinate_pool), draw(coordinate_pool))
    fsa = Rectangle.from_center(centre, draw(half_extents))
    t_end = draw(st.integers(min_value=1, max_value=50))
    return ObjectState(object_id, start, 0, fsa.low, fsa.high, t_end)


state_lists = st.lists(object_states(), min_size=1, max_size=20)


def epoch_fsas(states) -> Dict[int, Rectangle]:
    """The pipeline's stage-1 FSA map (first position, later FSA per object)."""
    fsas: Dict[int, Rectangle] = {}
    for state in states:
        fsas[state.object_id] = state.fsa
    return fsas


def share_area(a: Rectangle, b: Rectangle) -> bool:
    intersection = a.intersection(b)
    return intersection is not None and not intersection.is_degenerate()


def regions_of(structure: FsaOverlapStructure):
    return [(region.members, region.rectangle) for region in structure.regions()]


class TestComponents:
    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=120, deadline=None)
    @given(states=state_lists)
    def test_every_fsa_sits_in_exactly_one_pool(self, kernel, states):
        fsas = epoch_fsas(states)
        plan = plan_shard_overlaps(kernel, None, fsas)
        pooled = [object_id for pool in plan.pools for object_id in pool]
        assert sorted(pooled) == sorted(fsas)
        for pool in plan.pools:
            for object_id, fsa in pool.items():
                assert fsa == fsas[object_id]

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=120, deadline=None)
    @given(states=state_lists)
    def test_pools_are_the_connected_components(self, kernel, states):
        fsas = epoch_fsas(states)
        plan = plan_shard_overlaps(kernel, None, fsas)
        for index, pool in enumerate(plan.pools):
            for other in plan.pools[index + 1:]:
                for fsa in pool.values():
                    for far in other.values():
                        assert not share_area(fsa, far)
            # Flood from the first member over positive-area links: a pool
            # that could be split further would leave members unreached.
            members = list(pool)
            reached, frontier = {members[0]}, [members[0]]
            while frontier:
                current = frontier.pop()
                for object_id in members:
                    if object_id not in reached and share_area(pool[current], pool[object_id]):
                        reached.add(object_id)
                        frontier.append(object_id)
            assert reached == set(members)

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=100, deadline=None)
    @given(states=state_lists)
    def test_pools_keep_submission_order(self, kernel, states):
        fsas = epoch_fsas(states)
        plan = plan_shard_overlaps(kernel, None, fsas)
        submission = {object_id: rank for rank, object_id in enumerate(fsas)}
        firsts = []
        for pool in plan.pools:
            ranks = [submission[object_id] for object_id in pool]
            assert ranks == sorted(ranks)
            firsts.append(ranks[0])
        assert firsts == sorted(firsts)

    @settings(max_examples=100, deadline=None)
    @given(states=state_lists)
    def test_both_kernels_plan_the_same_pools(self, states):
        fsas = epoch_fsas(states)
        scalar = plan_shard_overlaps("object", None, fsas)
        batched = plan_shard_overlaps("columnar", None, fsas)
        assert [list(pool.items()) for pool in batched.pools] == [
            list(pool.items()) for pool in scalar.pools
        ]

    def test_touching_fsas_are_not_linked_and_a_bridge_links_them(self):
        left = Rectangle(Point(0.0, 0.0), Point(10.0, 10.0))
        right = Rectangle(Point(10.0, 0.0), Point(20.0, 10.0))   # shares an edge
        corner = Rectangle(Point(20.0, 10.0), Point(30.0, 20.0))  # shares a corner
        sliver = Rectangle(Point(5.0, 5.0), Point(5.0, 9.0))      # zero width, inside left
        for kernel in KERNELS:
            plan = plan_shard_overlaps(kernel, None, {1: left, 2: right, 3: corner, 4: sliver})
            assert [list(pool) for pool in plan.pools] == [[1], [2], [3], [4]]
            bridge = Rectangle(Point(9.0, 1.0), Point(11.0, 2.0))
            plan = plan_shard_overlaps(
                kernel, None, {1: left, 2: right, 3: corner, 4: sliver, 5: bridge}
            )
            assert [list(pool) for pool in plan.pools] == [[1, 2, 5], [3], [4]]


class TestLayoutIndependence:
    """The pool set of an epoch does not depend on the fleet it runs on."""

    LAYOUTS = (
        dict(num_shards=1),
        dict(num_shards=4),
        dict(num_shards=16),
        dict(num_shards=16, partition="kd"),
        dict(num_shards=4, kernel="object"),
    )

    @settings(max_examples=25, deadline=None)
    @given(epochs=st.lists(state_lists, min_size=1, max_size=3))
    def test_pools_are_the_same_on_every_layout(self, epochs):
        planned: List[list] = []
        original = sharding.plan_shard_overlaps

        def recording(*args, **kwargs):
            plan = original(*args, **kwargs)
            seen.append([list(pool.items()) for pool in plan.pools])
            return plan

        sharding.plan_shard_overlaps = single_path.plan_shard_overlaps = recording
        try:
            for layout in self.LAYOUTS:
                seen: List[list] = []
                coordinator = Coordinator(
                    CoordinatorConfig(bounds=BOUNDS, window=40, cells_per_axis=32, **layout)
                )
                try:
                    for tick, states in enumerate(epochs):
                        for state in states:
                            coordinator.submit_state(state)
                        coordinator.run_epoch(100 * (tick + 1))
                finally:
                    coordinator.close()
                planned.append(seen)
        finally:
            sharding.plan_shard_overlaps = single_path.plan_shard_overlaps = original
        assert all(seen == planned[0] for seen in planned[1:])


class TestPlanAgainstTheCache:
    FAR = Rectangle.from_center(Point(800.0, 800.0), 20.0)
    PAIR = {
        1: Rectangle.from_center(Point(100.0, 100.0), 30.0),
        2: Rectangle.from_center(Point(120.0, 100.0), 30.0),
    }

    def run(self, cache, fsas):
        plan = plan_shard_overlaps("object", cache, fsas)
        return plan, plan.merge(build_structures(plan.missed_pools))

    def test_without_a_cache_every_pool_is_built_and_nothing_is_tallied(self):
        fsas = {**self.PAIR, 3: self.FAR}
        plan, merged = self.run(None, fsas)
        assert plan.missed_pools == plan.pools
        assert set(plan.stats.values()) == {0}
        assert regions_of(merged) == regions_of(FsaOverlapStructure.build(fsas))

    def test_a_fresh_fsa_dirties_only_the_component_it_overlaps(self):
        cache = OverlapPoolCache()
        self.run(cache, {**self.PAIR, 3: self.FAR})
        # Object 3 moves; objects 1 and 2 resubmit verbatim: their component
        # hits whatever happens elsewhere in the epoch, on any layout.
        moved = Rectangle.from_center(Point(500.0, 500.0), 20.0)
        plan, merged = self.run(cache, {**self.PAIR, 3: moved})
        assert plan.missed_pools == [{3: moved}]
        assert plan.stats == {
            "pools_total": 2, "pools_reused": 1, "pools_prefix_reused": 0, "pools_rebuilt": 1,
        }
        assert regions_of(merged) == regions_of(FsaOverlapStructure.build({**self.PAIR, 3: moved}))

    def test_a_late_arrival_resumes_its_component_from_the_cached_prefix(self):
        cache = OverlapPoolCache()
        self.run(cache, self.PAIR)
        late = Rectangle.from_center(Point(110.0, 120.0), 30.0)
        plan, merged = self.run(cache, {**self.PAIR, 9: late})
        assert plan.missed_pools == []
        assert plan.stats["pools_prefix_reused"] == 1
        assert regions_of(merged) == regions_of(FsaOverlapStructure.build({**self.PAIR, 9: late}))

    def test_a_verbatim_epoch_is_served_whole(self):
        cache = OverlapPoolCache()
        _plan, first = self.run(cache, self.PAIR)
        plan, again = self.run(cache, dict(self.PAIR))
        assert plan.missed_pools == []
        assert again is first


class TestBuildStructures:
    @settings(max_examples=100, deadline=None)
    @given(states=state_lists, max_regions=st.integers(min_value=1, max_value=12))
    def test_one_independent_build_per_pool(self, states, max_regions):
        plan = plan_shard_overlaps("object", None, epoch_fsas(states))
        built = build_structures(plan.pools, max_regions=max_regions)
        assert len(built) == len(plan.pools)
        for structure, pool in zip(built, plan.pools):
            assert regions_of(structure) == regions_of(
                FsaOverlapStructure.build(pool, max_regions=max_regions)
            )


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
                {3: Rectangle.from_center(Point(800.0, 800.0), 50.0)},
                {4: Rectangle.from_center(Point(500.0, 500.0), 5.0)},
            ]
            per_state, structures = router.pipeline.backend.map_candidate_buckets(
                router, {}, [], pools
            )
            assert per_state == []
            expected = [FsaOverlapStructure.build(pool) for pool in pools]
            assert len(structures) == len(expected)
            for built, reference in zip(structures, expected):
                assert regions_of(built) == regions_of(reference)
        finally:
            router.pipeline.close()
