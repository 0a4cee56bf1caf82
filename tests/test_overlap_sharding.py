"""Tests for the overlap stage's planning half (:func:`plan_shard_overlaps`).

The stage builds one overlap structure per component, independently (and
cached); :mod:`repro.coordinator.overlaps` argues why each pool's build
equals the sequential build restricted to it.  The facts the argument rests
on are pinned here independently of the end-to-end differential harness:

* **partition** — every object of the epoch map sits in exactly one pool,
  with its map FSA (its latest), or is lone: its FSA shares no point with
  any other state's FSA;
* **components** — a pool is exactly the map FSAs of the states reached from
  its first member over FSAs sharing a point (positive area, an edge or a
  corner), the earlier FSA of an object that reports twice included, so no
  region or answer spans two pools and a pool cannot be split further;
* **order** — a pool preserves the submission order of its members, and the
  pools come ordered by their first member;
* **per-state components** — each state names its pool, :data:`LONE`, or
  ``None`` when its component holds no map FSA (no plan reads the shard
  layout: ``tests/test_one_index.py`` counts zero shard-grid lookups in an
  epoch).

Plus the mechanics: what the plan asks to be built with and without a cache,
and worker-side builds agreeing across both execution backends (the
process backend round-trips structures through its serialized wire format).
``tests/test_overlap_properties.py`` holds each pool's structure to the
per-component-cap oracle.
"""

from __future__ import annotations

from typing import Dict, List, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.execution import create_backend
from repro.coordinator.overlaps import (
    LONE,
    FsaOverlapStructure,
    OverlapPoolCache,
    build_structures,
    plan_shard_overlaps,
)

# Coordinates collide with the 4x4 shard borders (multiples of 250) and with
# each other, so FSAs routinely touch along an edge or at a corner.
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
    """The pipeline's FSA map (first position, later FSA per object)."""
    fsas: Dict[int, Rectangle] = {}
    for state in states:
        fsas[state.object_id] = state.fsa
    return fsas


def plan_of(cache, fsas: Dict[int, Rectangle]):
    """The plan of an epoch of one state per object."""
    return plan_shard_overlaps(cache, list(fsas), list(fsas.values()))


def plan_states(states):
    return plan_shard_overlaps(None, [state.object_id for state in states], [state.fsa for state in states])


def reached_from(fsas: List[Rectangle], position: int) -> Set[int]:
    """The positions joined to ``position`` by FSAs sharing a point, by a
    flood over every pair."""
    reached, frontier = {position}, [position]
    while frontier:
        current = frontier.pop()
        for other, fsa in enumerate(fsas):
            if other not in reached and fsas[current].intersects(fsa):
                reached.add(other)
                frontier.append(other)
    return reached


def map_positions(states) -> Dict[int, int]:
    """``object_id ->`` the position of its map FSA (its last state)."""
    return {state.object_id: position for position, state in enumerate(states)}


def regions_of(structure: FsaOverlapStructure):
    return [(region.members, region.rectangle) for region in structure.regions()]


class TestComponents:
    @settings(max_examples=120, deadline=None)
    @given(states=state_lists)
    def test_pools_and_lone_fsas_partition_the_map(self, states):
        fsas = epoch_fsas(states)
        plan = plan_states(states)
        pooled = [object_id for pool in plan.pools for object_id in pool]
        lone = [
            object_id
            for object_id, position in map_positions(states).items()
            if plan.components[position] == LONE
        ]
        assert sorted(pooled + lone) == sorted(fsas)
        for pool in plan.pools:
            for object_id, fsa in pool.items():
                assert fsa == fsas[object_id]
        for position, component in enumerate(plan.components):
            if component == LONE:
                assert map_positions(states)[states[position].object_id] == position
                assert reached_from([state.fsa for state in states], position) == {position}

    @settings(max_examples=120, deadline=None)
    @given(states=state_lists)
    def test_pools_are_the_components_over_a_shared_point(self, states):
        """Flood from each pool's first member over every state's FSA: the
        map FSAs reached are exactly the pool, so a pool that could be split
        further, or two that touch, would show."""
        plan = plan_states(states)
        fsas = [state.fsa for state in states]
        positions = map_positions(states)
        for pool in plan.pools:
            reached = reached_from(fsas, positions[next(iter(pool))])
            assert {
                object_id for object_id, position in positions.items() if position in reached
            } == set(pool)

    @settings(max_examples=100, deadline=None)
    @given(states=state_lists)
    def test_pools_keep_submission_order(self, states):
        fsas = epoch_fsas(states)
        plan = plan_states(states)
        submission = {object_id: rank for rank, object_id in enumerate(fsas)}
        firsts = []
        for pool in plan.pools:
            ranks = [submission[object_id] for object_id in pool]
            assert ranks == sorted(ranks)
            firsts.append(ranks[0])
        assert firsts == sorted(firsts)

    @settings(max_examples=120, deadline=None)
    @given(states=state_lists)
    def test_each_state_names_its_component(self, states):
        """Flood each state's component over closed intersection (zero-area
        touches included): a map FSA alone there is lone, a component
        holding map FSAs names their pool, and one of earlier FSAs alone
        names ``None``."""
        plan = plan_states(states)
        fsas = [state.fsa for state in states]
        positions = map_positions(states)
        for position, state in enumerate(states):
            reached = reached_from(fsas, position)
            mapped = {object_id for object_id, at in positions.items() if at in reached}
            if reached == {position} and positions[state.object_id] == position:
                expected = LONE
            elif mapped:
                (expected,) = [index for index, pool in enumerate(plan.pools) if set(pool) == mapped]
            else:
                expected = None
            assert plan.components[position] == expected

    def test_touching_fsas_are_linked(self):
        left = Rectangle(Point(0.0, 0.0), Point(10.0, 10.0))
        right = Rectangle(Point(10.0, 0.0), Point(20.0, 10.0))   # shares an edge
        corner = Rectangle(Point(20.0, 10.0), Point(30.0, 20.0))  # shares a corner
        sliver = Rectangle(Point(5.0, 5.0), Point(5.0, 9.0))      # zero width, inside left
        apart = Rectangle(Point(40.0, 40.0), Point(50.0, 50.0))
        plan = plan_of(None, {1: left, 2: right, 3: corner, 4: sliver, 5: apart})
        assert [list(pool) for pool in plan.pools] == [[1, 2, 3, 4]]
        assert plan.components == [0, 0, 0, 0, LONE]

    def test_an_earlier_fsa_links_the_map_fsas_it_touches(self):
        """Object 9's earlier FSA overlaps object 1's and touches object 2's
        at a corner: the three states are one component, whose pool holds
        the two map FSAs, and object 9's later FSA, apart, is lone."""
        states = [
            ObjectState(1, Point(0.0, 0.0), 0, Point(0.0, 0.0), Point(10.0, 10.0), 5),
            ObjectState(9, Point(0.0, 0.0), 0, Point(5.0, 5.0), Point(20.0, 20.0), 5),
            ObjectState(2, Point(0.0, 0.0), 0, Point(20.0, 20.0), Point(30.0, 30.0), 5),
            ObjectState(9, Point(0.0, 0.0), 0, Point(90.0, 90.0), Point(95.0, 95.0), 5),
        ]
        plan = plan_states(states)
        assert [list(pool) for pool in plan.pools] == [[1, 2]]
        assert plan.components == [0, 0, 0, LONE]


class TestPlanAgainstTheCache:
    FAR = Rectangle.from_center(Point(800.0, 800.0), 20.0)
    PAIR = {
        1: Rectangle.from_center(Point(100.0, 100.0), 30.0),
        2: Rectangle.from_center(Point(120.0, 100.0), 30.0),
    }

    def run(self, cache, fsas):
        """The completed plan, with each pool's structure checked against a
        build of the pool."""
        plan = plan_of(cache, fsas)
        plan.complete(build_structures(plan.missed_pools))
        for pool, structure in zip(plan.pools, plan.structures):
            assert regions_of(structure) == regions_of(FsaOverlapStructure.build(pool))
        return plan

    def test_without_a_cache_every_pool_is_built_and_nothing_is_tallied(self):
        plan = self.run(None, {**self.PAIR, 3: self.FAR})
        assert plan.pools == [self.PAIR] and plan.missed_pools == plan.pools
        assert set(plan.stats.values()) == {0}

    def test_a_fresh_fsa_dirties_only_the_component_it_overlaps(self):
        cache = OverlapPoolCache()
        far_pair = {3: self.FAR, 4: Rectangle.from_center(Point(810.0, 800.0), 20.0)}
        self.run(cache, {**self.PAIR, **far_pair})
        # Object 3 moves; objects 1 and 2 resubmit verbatim: their component
        # hits whatever happens elsewhere in the epoch, on any layout.
        moved = {**far_pair, 3: Rectangle.from_center(Point(805.0, 790.0), 20.0)}
        plan = self.run(cache, {**self.PAIR, **moved})
        assert plan.missed_pools == [moved]
        assert plan.stats == {"pools_total": 2, "pools_reused": 1, "pools_rebuilt": 1}

    def test_a_late_arrival_rebuilds_its_component_and_keeps_the_old_entry(self):
        """A cached pool extended by a late arrival is a miss (there is no
        prefix outcome), and the cached pool itself stays a verbatim hit."""
        cache = OverlapPoolCache()
        first = self.run(cache, self.PAIR).structures[0]
        late = Rectangle.from_center(Point(110.0, 120.0), 30.0)
        plan = self.run(cache, {**self.PAIR, 9: late})
        assert plan.missed_pools == [{**self.PAIR, 9: late}]
        assert plan.stats == {"pools_total": 1, "pools_reused": 0, "pools_rebuilt": 1}
        plan = self.run(cache, self.PAIR)
        assert plan.missed_pools == [] and plan.structures[0] is first

    def test_a_verbatim_epoch_is_served_whole(self):
        cache = OverlapPoolCache()
        first = self.run(cache, self.PAIR).structures
        plan = self.run(cache, dict(self.PAIR))
        assert plan.missed_pools == []
        assert plan.structures[0] is first[0]


class TestBuildStructures:
    @settings(max_examples=100, deadline=None)
    @given(states=state_lists, max_regions=st.integers(min_value=1, max_value=12))
    def test_one_independent_build_per_pool(self, states, max_regions):
        plan = plan_states(states)
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
