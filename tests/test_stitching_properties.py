"""Property-based tests for :mod:`repro.coordinator.stitching`.

Random hot-fragment sets (endpoints drawn from a small coordinate pool so
vertices routinely coincide — shared junctions, chains, forks, cycles and
degenerate self-loops all occur) are checked against a brute-force reference
that implements the weld rule directly from its definition, in the style of
``tests/test_overlap_properties.py``:

* **chain closure** — corridors partition the hot set, consecutive segments
  weld end-to-start, and every weld is consumed by exactly one corridor;
* **the weld rule** — in any input order, :func:`stitch_paths` is the
  reference welds chained, corridor for corridor, also when vertices compare
  equal but print apart (``0.0`` / ``-0.0`` / ``0``);
* **input-order independence** — shuffling the hot paths never changes the
  report;
* **score additivity** — a corridor's score is exactly the sum of its member
  scores and its hotness the minimum member hotness, so stitching regroups
  the quality metric without inflating it;
* **tie-break totality** — the corridor top-k is a total order: permuting the
  corridor list never changes the ranking;
* **chain heads from predecessors** — chaining any subset of the fragments
  through the inverse weld map finds the reference's chains over that subset.

:class:`TestWeldCycles` pins a cycle of hot paths on a coordinator, in both
epoch modes: broken once at its minimum id, with the consumed welds counted.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point
from repro.core.motion_path import MotionPath
from repro.coordinator.coordinator import Coordinator
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.stitching import (
    CompositeCorridor,
    build_corridors,
    chain_fragments,
    select_top_k_corridors,
    stitch_paths,
)

from differential import make_coordinator

# Coarse pool: endpoints collide, so welds, forks and cycles are common.
coordinate_pool = st.sampled_from(
    [-50.0, 0.0, 100.0, 250.0, 400.0, 500.0, 625.0, 750.0, 900.0, 1000.0, 1050.0]
)
#: Equal values that print apart, so two vertices can be ``==`` but not
#: ``repr``-equal.
twin_pool = st.sampled_from([-0.0, 0.0, 0, 250, 250.0, 500.0])

#: ``path_id -> (start, end, hotness)``
Fragments = Dict[int, Tuple[Point, Point, int]]


@st.composite
def fragment_sets(draw, pool=coordinate_pool) -> Fragments:
    count = draw(st.integers(min_value=1, max_value=14))
    fragments: Fragments = {}
    for path_id in range(count):
        start = Point(draw(pool), draw(pool))
        end = Point(draw(pool), draw(pool))
        fragments[path_id] = (start, end, draw(st.integers(min_value=1, max_value=5)))
    return fragments


def hot_path_list(fragments: Fragments, order: List[int]):
    return [
        (MotionPath(*fragments[path_id][:2], path_id), fragments[path_id][2])
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


def reference_chains(fragments: Fragments, ids=None) -> List[List[int]]:
    """The chains over ``ids`` (default: every fragment), under the welds
    between two of them."""
    ids = set(fragments if ids is None else ids)
    welds = {
        path_id: successor_id
        for path_id, successor_id in reference_welds(fragments).items()
        if path_id in ids and successor_id in ids
    }
    has_predecessor = set(welds.values())
    chains: List[List[int]] = []
    used = set()
    for path_id in sorted(ids):
        if path_id in used or path_id in has_predecessor:
            continue
        chain = [path_id]
        used.add(path_id)
        while chain[-1] in welds and welds[chain[-1]] not in used:
            chain.append(welds[chain[-1]])
            used.add(chain[-1])
        chains.append(chain)
    for path_id in sorted(ids):  # cycles, broken at their minimum id
        if path_id in used:
            continue
        chain = [path_id]
        used.add(path_id)
        while welds.get(chain[-1]) is not None and welds[chain[-1]] not in used:
            chain.append(welds[chain[-1]])
            used.add(chain[-1])
        chains.append(chain)
    return sorted(chains)


def reference_stitch(fragments: Fragments) -> List[CompositeCorridor]:
    """The corridors of :func:`reference_chains`, materialised."""
    return build_corridors(
        reference_chains(fragments),
        lambda path_id: (MotionPath(*fragments[path_id][:2]), fragments[path_id][2]),
    )


def snapshot(corridors: List[CompositeCorridor]) -> List[tuple]:
    return [
        (
            corridor.path_ids,
            tuple((repr(s.path.start), repr(s.path.end), s.hotness) for s in corridor.segments),
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
    @given(fragment_sets(), st.randoms(use_true_random=False))
    def test_stitch_is_the_reference_welds_chained(self, fragments, rng):
        """In any input order, corridor for corridor (segments, hotness and
        score): the one weld rule against its literal per-fragment form."""
        order = sorted(fragments)
        rng.shuffle(order)
        assert snapshot(stitch_paths(hot_path_list(fragments, order))) == snapshot(
            reference_stitch(fragments)
        )

    @settings(max_examples=200, deadline=None)
    @given(fragment_sets(twin_pool), st.randoms(use_true_random=False))
    def test_equal_but_differently_printed_vertices_weld(self, fragments, rng):
        """``-0.0`` ends where ``0.0`` starts: vertices are compared by
        ``==``, as the reference's ``Point`` equality does."""
        order = sorted(fragments)
        rng.shuffle(order)
        assert snapshot(stitch_paths(hot_path_list(fragments, order))) == snapshot(
            reference_stitch(fragments)
        )


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


class TestChainHeadsFromPredecessors:
    @settings(max_examples=200, deadline=None)
    @given(fragment_sets(), st.data())
    def test_predecessor_map_finds_the_same_chains(self, fragments, data):
        """``IncrementalStitcher.apply`` re-chains a subset of the hot set,
        whose heads ``chain_fragments`` finds through the inverse weld map:
        on any subset the chains are the reference's over that subset."""
        successor = reference_welds(fragments)
        predecessor = {successor_id: path_id for path_id, successor_id in successor.items()}
        subset = data.draw(st.sets(st.sampled_from(sorted(fragments))))
        assert chain_fragments(subset, successor, predecessor) == reference_chains(
            fragments, subset
        )

    def test_a_predecessor_outside_the_subset_leaves_a_head(self):
        """5 -> 3 -> 1 chained over {3, 1}: 3's predecessor is not chained,
        so 3 heads ``[3, 1]`` (not ``[1]`` and ``[3]``)."""
        successor = {5: 3, 3: 1}
        predecessor = {3: 5, 1: 3}
        assert chain_fragments({3, 1}, successor, predecessor) == [[3, 1]]


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


class TestWeldCycles:
    """Weld cycles (closed hot-path loops) are broken once, at the minimum
    member id, and the report's stats count the welds the chains consume."""

    @staticmethod
    def _cycle_coordinator(epoch_mode: str) -> Coordinator:
        # 2x2 grid over 1000^2: V0, V1 in shard 0 (x < 500), V2 in shard 1.
        # Paths 0: V0->V2, 1: V1->V0, 2: V2->V1 close the weld cycle
        # 0 -> 2 -> 1 -> 0 with welds {1->0 same-owner, 2->1 and 0->2 cross}.
        fleet = FleetConfig(num_shards=4, epoch_mode=epoch_mode)
        coordinator = make_coordinator(fleet, window=10**6)
        v0, v1, v2 = Point(100.0, 100.0), Point(200.0, 100.0), Point(600.0, 100.0)
        for start, end in ((v0, v2), (v1, v0), (v2, v1)):
            record = coordinator.index.insert(start, end, created_at=0)
            coordinator.hotness.record_crossing(record.path_id, 0)
        return coordinator

    def test_cross_shard_cycle_weld_accounting(self):
        coordinator = self._cycle_coordinator("delta")
        corridors = coordinator.hot_corridors()
        assert [c.path_ids for c in corridors] == [(0, 2, 1)]  # broken at min id 0
        # Stats count *consumed* welds — the cycle-closing 1->0 weld drops
        # out before counting, so fragments - welds == corridors.
        stats = coordinator.router.stitch_stats
        assert (stats["fragments"], stats["welds"], stats["corridors"]) == (3, 2, 1)
        assert stats["boundary_welds"] == 2

    def test_full_mode_reports_the_same_shape(self):
        """Full mode stitches from scratch; its stats are the same five
        numbers, without the stitcher's incremental counters."""
        delta = self._cycle_coordinator("delta")
        full = self._cycle_coordinator("full")
        assert snapshot(full.hot_corridors()) == snapshot(delta.hot_corridors())
        shape = {key: delta.router.stitch_stats[key] for key in full.router.stitch_stats}
        assert full.router.stitch_stats == shape
        assert sorted(shape) == [
            "boundary_welds", "corridors", "fragments", "multi_segment_corridors", "welds",
        ]

    def test_cycle_matches_the_global_stitch(self):
        coordinator = self._cycle_coordinator("delta")
        hot = [
            (coordinator.index.get(path_id), hotness)
            for path_id, hotness in sorted(coordinator.hotness.items())
        ]
        assert snapshot(coordinator.hot_corridors()) == snapshot(stitch_paths(hot))
