"""Tests for the overlap stage's planning half (:func:`plan_shard_overlaps`).

The stage builds one overlap structure per epoch out of independently built
(and cached) *components*; :mod:`repro.coordinator.overlaps` argues why that
equals the sequential build.  The facts the argument rests on are pinned here
independently of the end-to-end differential harness:

* **partition** — every epoch FSA sits in exactly one pool (a component of
  two or more FSAs), with its FSA, or is a singleton that overlaps no other
  FSA, with its box;
* **separation and connectivity** — FSAs of different pools share no positive
  area (so no region spans two pools), and a pool cannot be split further;
* **order** — a pool preserves the submission order of its members, and the
  pools come ordered by their first member;
* **kernel independence** — the scalar and the batched plan agree, pool for
  pool (no plan reads the shard layout: ``tests/test_one_index.py`` counts
  zero shard-grid lookups in an epoch).

Plus the mechanics: what the plan asks to be built with and without a cache,
and worker-side builds agreeing across both execution backends (the
process backend round-trips structures through its serialized wire format).
``tests/test_overlap_properties.py`` holds the merged-structure equality.
"""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.execution import create_backend
from repro.coordinator.overlaps import (
    FsaOverlapStructure,
    OverlapPoolCache,
    build_structures,
    plan_shard_overlaps,
)

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


def as_box(fsa: Rectangle):
    return (fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y)


class TestComponents:
    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=120, deadline=None)
    @given(states=state_lists)
    def test_pools_and_singletons_partition_the_fsas(self, kernel, states):
        fsas = epoch_fsas(states)
        plan = plan_shard_overlaps(kernel, None, fsas)
        pooled = [object_id for pool in plan.pools for object_id in pool]
        assert sorted(pooled + list(plan.singletons)) == sorted(fsas)
        for pool in plan.pools:
            assert len(pool) >= 2
            for object_id, fsa in pool.items():
                assert fsa == fsas[object_id]
        assert list(plan.singletons) == [i for i in fsas if i in plan.singletons]
        for object_id, box in plan.singletons.items():
            assert repr(box) == repr(as_box(fsas[object_id]))
            assert not any(
                share_area(fsas[object_id], fsa) for other, fsa in fsas.items() if other != object_id
            )

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
        assert repr(batched.singletons) == repr(scalar.singletons)

    def test_touching_fsas_are_not_linked_and_a_bridge_links_them(self):
        left = Rectangle(Point(0.0, 0.0), Point(10.0, 10.0))
        right = Rectangle(Point(10.0, 0.0), Point(20.0, 10.0))   # shares an edge
        corner = Rectangle(Point(20.0, 10.0), Point(30.0, 20.0))  # shares a corner
        sliver = Rectangle(Point(5.0, 5.0), Point(5.0, 9.0))      # zero width, inside left
        for kernel in KERNELS:
            plan = plan_shard_overlaps(kernel, None, {1: left, 2: right, 3: corner, 4: sliver})
            assert plan.pools == []
            assert list(plan.singletons) == [1, 2, 3, 4]
            bridge = Rectangle(Point(9.0, 1.0), Point(11.0, 2.0))
            plan = plan_shard_overlaps(
                kernel, None, {1: left, 2: right, 3: corner, 4: sliver, 5: bridge}
            )
            assert [list(pool) for pool in plan.pools] == [[1, 2, 5]]
            assert list(plan.singletons) == [3, 4]


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
        far_pair = {3: self.FAR, 4: Rectangle.from_center(Point(810.0, 800.0), 20.0)}
        self.run(cache, {**self.PAIR, **far_pair})
        # Object 3 moves; objects 1 and 2 resubmit verbatim: their component
        # hits whatever happens elsewhere in the epoch, on any layout.
        moved = {**far_pair, 3: Rectangle.from_center(Point(805.0, 790.0), 20.0)}
        plan, merged = self.run(cache, {**self.PAIR, **moved})
        assert plan.missed_pools == [moved]
        assert plan.stats == {"pools_total": 2, "pools_reused": 1, "pools_rebuilt": 1}
        assert regions_of(merged) == regions_of(FsaOverlapStructure.build({**self.PAIR, **moved}))

    def test_a_late_arrival_rebuilds_its_component_and_keeps_the_old_entry(self):
        """A cached pool extended by a late arrival is a miss (there is no
        prefix outcome), and the cached pool itself stays a verbatim hit."""
        cache = OverlapPoolCache()
        _plan, first = self.run(cache, self.PAIR)
        late = Rectangle.from_center(Point(110.0, 120.0), 30.0)
        plan, merged = self.run(cache, {**self.PAIR, 9: late})
        assert plan.missed_pools == [{**self.PAIR, 9: late}]
        assert plan.stats == {"pools_total": 1, "pools_reused": 0, "pools_rebuilt": 1}
        assert regions_of(merged) == regions_of(FsaOverlapStructure.build({**self.PAIR, 9: late}))
        plan, again = self.run(cache, self.PAIR)
        assert plan.missed_pools == [] and again is first

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
    """Both backends must build identical structures from the same pools
    (the process backend round-trips them through the serialized format)."""

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_worker_side_builds_match_inline_build(self, backend):
        backend = create_backend(backend)
        try:
            pools = [
                {
                    1: Rectangle.from_center(Point(200.0, 200.0), 80.0),
                    2: Rectangle.from_center(Point(260.0, 200.0), 80.0),
                },
                {3: Rectangle.from_center(Point(800.0, 800.0), 50.0)},
                {4: Rectangle.from_center(Point(500.0, 500.0), 5.0)},
            ]
            alongside, structures = backend.build_overlaps(pools, lambda: "parent")
            assert alongside == "parent"
            expected = [FsaOverlapStructure.build(pool) for pool in pools]
            assert len(structures) == len(expected)
            for built, reference in zip(structures, expected):
                assert regions_of(built) == regions_of(reference)
        finally:
            backend.close()
