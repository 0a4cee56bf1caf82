"""Property-based tests for :mod:`repro.coordinator.stitching`.

Random hot-fragment sets (endpoints drawn from a small coordinate pool so
vertices routinely coincide — shared junctions, chains, forks, cycles and
degenerate self-loops all occur) are checked against a brute-force reference
that implements the weld rule directly from its definition, in the style of
``tests/test_overlap_properties.py``:

* **chain closure** — corridors partition the hot set, consecutive segments
  weld end-to-start, and every weld is consumed by exactly one corridor;
* **order independence of the boundary merge** — re-partitioning the
  fragments over an arbitrary shard grid, welding per shard and merging the
  runs reproduces the global stitch regardless of fragment order, grid shape
  or run arrival order;
* **score additivity** — a corridor's score is exactly the sum of its member
  scores and its hotness the minimum member hotness, so stitching regroups
  the quality metric without inflating it;
* **tie-break totality** — the corridor top-k is a total order: permuting the
  corridor list never changes the ranking.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.coordinator.sharding import ShardGrid
from repro.coordinator.stitching import (
    CompositeCorridor,
    build_corridors,
    chain_fragments,
    select_top_k_corridors,
    stitch_paths,
    successors_from_runs,
    weld_runs,
)
from repro.core.geometry import Rectangle

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))

# Coarse pool: endpoints collide (welds and forks), sit exactly on 2x2/4x4
# shard borders, and occasionally fall outside the bounds (clamped ownership).
coordinate_pool = st.sampled_from(
    [-50.0, 0.0, 100.0, 250.0, 400.0, 500.0, 625.0, 750.0, 900.0, 1000.0, 1050.0]
)

#: ``path_id -> (start, end, hotness)``
Fragments = Dict[int, Tuple[Point, Point, int]]


@st.composite
def fragment_sets(draw) -> Fragments:
    count = draw(st.integers(min_value=1, max_value=14))
    fragments: Fragments = {}
    for path_id in range(count):
        start = Point(draw(coordinate_pool), draw(coordinate_pool))
        end = Point(draw(coordinate_pool), draw(coordinate_pool))
        fragments[path_id] = (start, end, draw(st.integers(min_value=1, max_value=5)))
    return fragments


shard_grids = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
).map(lambda dims: ShardGrid(BOUNDS, dims[0], dims[1]))


def hot_path_list(fragments: Fragments, order: List[int]):
    return [
        (MotionPathRecord(path_id, MotionPath(*fragments[path_id][:2])), fragments[path_id][2])
        for path_id in order
    ]


# ---------------------------------------------------------------------------
# Brute-force reference: the weld rule applied literally, per fragment
# ---------------------------------------------------------------------------


def reference_welds(fragments: Fragments) -> Dict[int, int]:
    """``p -> q`` iff p is the only fragment ending at v, q the only one
    starting at v, and p != q — checked by scanning all fragments per vertex."""
    welds: Dict[int, int] = {}
    for path_id, (_start, end, _hotness) in fragments.items():
        enders = [
            other for other, (_s, e, _h) in fragments.items() if e == end
        ]
        starters = [
            other for other, (s, _e, _h) in fragments.items() if s == end
        ]
        if len(enders) == 1 and len(starters) == 1 and starters[0] != path_id:
            welds[path_id] = starters[0]
    return welds


def reference_chains(fragments: Fragments) -> List[List[int]]:
    welds = reference_welds(fragments)
    has_predecessor = set(welds.values())
    chains: List[List[int]] = []
    used = set()
    for path_id in sorted(fragments):
        if path_id in used or path_id in has_predecessor:
            continue
        chain = [path_id]
        used.add(path_id)
        while chain[-1] in welds and welds[chain[-1]] not in used:
            chain.append(welds[chain[-1]])
            used.add(chain[-1])
        chains.append(chain)
    for path_id in sorted(fragments):  # cycles, broken at their minimum id
        if path_id in used:
            continue
        chain = [path_id]
        used.add(path_id)
        while welds.get(chain[-1]) is not None and welds[chain[-1]] not in used:
            chain.append(welds[chain[-1]])
            used.add(chain[-1])
        chains.append(chain)
    return sorted(chains)


def distributed_stitch(
    fragments: Fragments,
    order: List[int],
    grid: ShardGrid,
) -> List[CompositeCorridor]:
    """Replicate the sharded merge without a router: route every fragment to
    its endpoint owners, weld per shard, merge the runs, chain."""
    tasks: Dict[int, list] = {}
    info: Dict[int, Tuple[MotionPath, int, int]] = {}
    for path_id in order:
        start, end, hotness = fragments[path_id]
        start_shard = grid.shard_id_of(start)
        end_shard = grid.shard_id_of(end)
        info[path_id] = (MotionPath(start, end), hotness, start_shard)
        tasks.setdefault(start_shard, []).append(
            (path_id, start.x, start.y, end.x, end.y, True, end_shard == start_shard)
        )
        if end_shard != start_shard:
            tasks.setdefault(end_shard, []).append(
                (path_id, start.x, start.y, end.x, end.y, False, True)
            )
    runs = []
    for shard_id in tasks:
        runs.extend(weld_runs(tasks[shard_id]))
    successor = successors_from_runs(runs)
    chains = chain_fragments(info, successor)
    return build_corridors(chains, lambda path_id: info[path_id][:2])


def snapshot(corridors: List[CompositeCorridor]) -> List[tuple]:
    return [
        (
            corridor.path_ids,
            tuple((s.path.start, s.path.end, s.hotness) for s in corridor.segments),
            corridor.hotness,
            corridor.score,
        )
        for corridor in corridors
    ]


class TestAgainstBruteForceReference:
    @settings(max_examples=200, deadline=None)
    @given(fragment_sets())
    def test_global_stitch_matches_reference_chains(self, fragments):
        corridors = stitch_paths(hot_path_list(fragments, sorted(fragments)))
        assert sorted(list(c.path_ids) for c in corridors) == reference_chains(fragments)

    @settings(max_examples=200, deadline=None)
    @given(fragment_sets(), shard_grids)
    def test_distributed_welds_match_reference(self, fragments, grid):
        """The union of per-shard weld runs is exactly the global weld set."""
        tasks: Dict[int, list] = {}
        for path_id, (start, end, _h) in fragments.items():
            start_shard, end_shard = grid.shard_id_of(start), grid.shard_id_of(end)
            tasks.setdefault(start_shard, []).append(
                (path_id, start.x, start.y, end.x, end.y, True, end_shard == start_shard)
            )
            if end_shard != start_shard:
                tasks.setdefault(end_shard, []).append(
                    (path_id, start.x, start.y, end.x, end.y, False, True)
                )
        runs = []
        for shard_id in tasks:
            runs.extend(weld_runs(tasks[shard_id]))
        assert successors_from_runs(runs) == reference_welds(fragments)


class TestChainClosure:
    @settings(max_examples=200, deadline=None)
    @given(fragment_sets())
    def test_corridors_partition_the_fragment_set(self, fragments):
        corridors = stitch_paths(hot_path_list(fragments, sorted(fragments)))
        covered = [pid for c in corridors for pid in c.path_ids]
        assert sorted(covered) == sorted(fragments)
        assert len(covered) == len(set(covered))

    @settings(max_examples=200, deadline=None)
    @given(fragment_sets())
    def test_consecutive_segments_weld_end_to_start(self, fragments):
        welds = reference_welds(fragments)
        for corridor in stitch_paths(hot_path_list(fragments, sorted(fragments))):
            for previous, segment in zip(corridor.segments, corridor.segments[1:]):
                assert previous.path.end == segment.path.start
                assert welds[previous.path_id] == segment.path_id

    @settings(max_examples=200, deadline=None)
    @given(fragment_sets())
    def test_chains_are_maximal(self, fragments):
        """A weld never joins two *different* corridors: every weld is
        consumed inside a chain, except the one broken per cycle."""
        welds = reference_welds(fragments)
        corridors = stitch_paths(hot_path_list(fragments, sorted(fragments)))
        consumed = {
            previous.path_id
            for corridor in corridors
            for previous in corridor.segments[:-1]
        }
        for predecessor_id, successor_id in welds.items():
            if predecessor_id in consumed:
                continue
            # The unconsumed weld must close a cycle: its target is the head
            # (and minimum id) of the corridor its source terminates.
            corridor = next(
                c for c in corridors if c.path_ids[-1] == predecessor_id
            )
            assert corridor.path_ids[0] == successor_id
            assert corridor.lead_path_id == min(corridor.path_ids)


class TestMergeOrderIndependence:
    @settings(max_examples=150, deadline=None)
    @given(fragment_sets(), st.randoms(use_true_random=False))
    def test_global_stitch_is_input_order_independent(self, fragments, rng):
        order = sorted(fragments)
        shuffled = list(order)
        rng.shuffle(shuffled)
        assert snapshot(stitch_paths(hot_path_list(fragments, shuffled))) == snapshot(
            stitch_paths(hot_path_list(fragments, order))
        )

    @settings(max_examples=150, deadline=None)
    @given(fragment_sets(), shard_grids, st.randoms(use_true_random=False))
    def test_boundary_merge_matches_global_stitch(self, fragments, grid, rng):
        """The tentpole property: welding per shard and merging the runs is
        the global stitch, for every grid shape and fragment order."""
        order = sorted(fragments)
        shuffled = list(order)
        rng.shuffle(shuffled)
        reference = snapshot(stitch_paths(hot_path_list(fragments, order)))
        assert snapshot(distributed_stitch(fragments, shuffled, grid)) == reference


class TestScoring:
    @settings(max_examples=200, deadline=None)
    @given(fragment_sets())
    def test_score_is_additive_and_hotness_is_the_minimum(self, fragments):
        for corridor in stitch_paths(hot_path_list(fragments, sorted(fragments))):
            assert corridor.score == sum(s.score for s in corridor.segments)
            assert corridor.hotness == min(s.hotness for s in corridor.segments)
            assert corridor.length == sum(s.path.length for s in corridor.segments)
            for segment in corridor.segments:
                assert segment.score == segment.hotness * segment.path.length

    @settings(max_examples=150, deadline=None)
    @given(fragment_sets())
    def test_stitching_preserves_total_score(self, fragments):
        """Sum of corridor scores == sum of fragment scores: stitching
        regroups the quality metric, it never inflates or loses it."""
        corridors = stitch_paths(hot_path_list(fragments, sorted(fragments)))
        total = sum(
            hotness * MotionPath(start, end).length
            for start, end, hotness in fragments.values()
        )
        regrouped = sum(s.score for c in corridors for s in c.segments)
        assert abs(regrouped - total) < 1e-9


class TestTieBreakTotality:
    @settings(max_examples=150, deadline=None)
    @given(
        fragment_sets(),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_top_k_is_order_independent(self, fragments, k, by_score, rng):
        corridors = stitch_paths(hot_path_list(fragments, sorted(fragments)))
        shuffled = list(corridors)
        rng.shuffle(shuffled)
        assert snapshot(select_top_k_corridors(shuffled, k, by_score)) == snapshot(
            select_top_k_corridors(corridors, k, by_score)
        )

    @settings(max_examples=150, deadline=None)
    @given(fragment_sets(), st.booleans())
    def test_ranking_keys_are_distinct(self, fragments, by_score):
        """Lead path ids are unique across corridors (they partition the
        fragment set), so the ranking key is a strict total order."""
        corridors = stitch_paths(hot_path_list(fragments, sorted(fragments)))
        leads = [corridor.lead_path_id for corridor in corridors]
        assert len(leads) == len(set(leads))
        ranked = select_top_k_corridors(corridors, len(corridors) or 1, by_score)
        assert sorted(c.lead_path_id for c in ranked) == sorted(leads)
