"""Property-based tests for the incremental epoch pipeline (epoch_mode="delta").

The delta pipeline's whole claim is that applying an epoch's delta to the
previous state must equal rebuilding that state from scratch.  Random event
sequences check that claim for each delta carrier independently:

* **the epoch journal** (:class:`repro.coordinator.delta.EpochDelta`) — the
  previous hot set minus an epoch's vanished ids plus its newly hot ids is
  the next hot set, and the inserted / deleted ids are the index mutations;
* **hotness deltas** (:class:`repro.coordinator.hotness.HotnessDeltaLog`) —
  replaying a tracker's drained event log against a mirror reproduces the
  tracker's hot set and counters exactly, under random crossing/expiry
  interleavings;
* **pool cache** (:class:`repro.coordinator.overlaps.OverlapPoolCache`) —
  whatever mix of verbatim hits and rebuilds the cache chooses for a random
  pool-churn sequence, every resolved structure is ``repr``-identical to the
  structure a from-scratch build produces;
* **the query view on steady traffic**
  (:class:`repro.coordinator.query_view.HotPathView`) — skipping the ids
  whose count did not change and reading each top-k off a kept set of the
  keys at or above a floor answer as the oracle scans do, and the kept set
  (:class:`repro.core.scoring.StandingTopK`) answers as ``rank_top_k`` does
  over any stream of edits;
* **incremental stitching**
  (:class:`repro.coordinator.stitching.IncrementalStitcher`) — after any
  sequence of insert/expire/hotness-change events applied as per-id change
  sets, the patched corridor report equals
  :func:`~repro.coordinator.stitching.stitch_paths` run fresh over the
  surviving hot set, and the key-ranked top-k equals
  :func:`~repro.coordinator.stitching.select_top_k_corridors` over it.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import scoring
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.overlaps import FsaOverlapStructure, OverlapPoolCache
from repro.coordinator.sharding import ShardGrid
from repro.coordinator.stitching import (
    IncrementalStitcher,
    select_top_k_corridors,
    stitch_paths,
)
from repro.core.scoring import select_top_k

from differential import (
    _hot_now,
    feedback_epochs,
    make_coordinator,
    steady_roster_stream,
    synthetic_stream,
)

# ---------------------------------------------------------------------------
# The epoch journal
# ---------------------------------------------------------------------------


def test_epoch_delta_tracks_hot_membership():
    """The emitted delta is a faithful journal: the previous hot set minus
    the epoch's vanished ids plus its newly hot ids is the next hot set, and
    inserted/deleted ids match the index mutations."""
    coordinator = make_coordinator(FleetConfig(num_shards=4), window=25)
    hot: set = set()
    known_ids: set = set()
    try:
        for boundary, states in synthetic_stream(11):
            for state in states:
                coordinator.submit_state(state)
            outcome = coordinator.run_epoch(boundary)
            delta = outcome.delta
            assert delta is not None and delta.timestamp == boundary
            added, removed = set(delta.newly_hot), set(delta.vanished)
            assert not (added & removed), "newly_hot and vanished overlap"
            hot = (hot - removed) | added
            assert hot == {path_id for path_id, _h in coordinator.hotness.items()}
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


# ---------------------------------------------------------------------------
# Hotness delta log vs. the tracker it journals
# ---------------------------------------------------------------------------

hotness_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("cross"), st.integers(0, 9), st.integers(0, 30)),
        st.tuples(st.just("advance"), st.integers(0, 60), st.integers(0, 0)),
    ),
    min_size=1,
    max_size=40,
)


class TestHotnessDeltaReplay:
    @settings(max_examples=200, deadline=None)
    @given(hotness_scripts)
    def test_drained_log_rebuilds_the_tracker(self, script):
        """Mirror counters maintained purely from drained logs must equal the
        tracker's own table after every epoch — ``apply(delta, state) ==
        rebuild(full)`` for hotness."""
        tracker = HotnessTracker(window=15)
        tracker.enable_delta_log()
        mirror: Dict[int, int] = {}
        clock = 0
        for op, a, b in script:
            if op == "cross":
                # Crossings never end before already-expired time.
                tracker.record_crossing(a, clock + b)
            else:
                clock = max(clock, a)
                tracker.advance_time(clock)
            log = tracker.drain_delta_log()
            for path_id in log.newly_hot:
                assert mirror.get(path_id, 0) == 0
                mirror[path_id] = 1
            for path_id in log.touched:
                assert mirror[path_id] >= 1
                mirror[path_id] += 1
            for path_id in log.decayed:
                mirror[path_id] -= 1
                assert mirror[path_id] >= 1
            for path_id in log.vanished:
                assert mirror.pop(path_id) == 1
            assert mirror == dict(tracker.items())


# ---------------------------------------------------------------------------
# Pool cache: every resolution is bit-for-bit the from-scratch build
# ---------------------------------------------------------------------------

coordinate_pool = st.sampled_from([0.0, 100.0, 250.0, 400.0, 500.0, 750.0, 900.0])


@st.composite
def fsa_pools(draw) -> List[Tuple[int, Rectangle]]:
    count = draw(st.integers(min_value=0, max_value=6))
    pool = []
    for object_id in range(count):
        x = draw(coordinate_pool)
        y = draw(coordinate_pool)
        half = draw(st.sampled_from([40.0, 90.0, 160.0]))
        pool.append((object_id, Rectangle.from_center(Point(x, y), half)))
    return pool


@st.composite
def pool_epochs(draw) -> List[List[Dict[int, Rectangle]]]:
    """Several epochs of pools with churn: pools repeat, extend, shrink and
    mutate across epochs."""
    base = draw(st.lists(fsa_pools(), min_size=1, max_size=4))
    epochs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        epoch = []
        for pool in base:
            action = draw(st.sampled_from(["same", "extend", "shrink", "mutate"]))
            members = list(pool)
            if action == "extend":
                x = draw(coordinate_pool)
                members = members + [
                    (len(members) + 100, Rectangle.from_center(Point(x, x), 50.0))
                ]
            elif action == "shrink" and members:
                members = members[:-1]
            elif action == "mutate" and members:
                object_id, rect = members[0]
                members = [(object_id, Rectangle.from_center(rect.low, 25.0))] + members[1:]
            epoch.append(dict(members))
        epochs.append(epoch)
    return epochs


def resolve_and_build(cache, pools):
    """One epoch against the cache: build what it missed, hand it back."""
    structures, misses, stats = cache.resolve(pools)
    built = [FsaOverlapStructure.build(pools[index]) for index in misses]
    cache.store(misses, built)
    for index, structure in zip(misses, built):
        structures[index] = structure
    return structures, list(misses), stats


class TestPoolCacheBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(pool_epochs())
    def test_resolved_structures_equal_fresh_builds(self, epochs):
        cache = OverlapPoolCache()
        for pools in epochs:
            structures, _missed, stats = resolve_and_build(cache, pools)
            assert stats["pools_total"] == len(pools)
            assert stats["pools_total"] == stats["pools_reused"] + stats["pools_rebuilt"]
            for pool, structure in zip(pools, structures):
                fresh = FsaOverlapStructure.build(pool)
                assert repr(structure.serialized()) == repr(fresh.serialized()), (
                    "cached structure diverged from a fresh build"
                )

    @settings(max_examples=100, deadline=None)
    @given(pool_epochs())
    def test_repeat_epochs_hit_the_cache(self, epochs):
        """Replaying the same epoch twice must reuse every pool the second
        time — the low-churn speedup the benchmark table measures."""
        cache = OverlapPoolCache()
        pools = epochs[0]
        structures, _missed, _stats = resolve_and_build(cache, pools)
        again, miss_again, stats = cache.resolve(pools)
        assert miss_again == {}
        assert stats["pools_reused"] == len(pools)
        for first, second in zip(structures, again):
            assert first.serialized() == second.serialized()

    def test_an_extended_pool_misses_and_leaves_the_cached_entry_intact(self):
        """Resolve pool ``P`` (cached), then ``P + extra``, then ``P``
        verbatim again.  ``P + extra`` is a miss, built from scratch — the
        cache has no prefix outcome that could extend ``P``'s entry — and
        the final verbatim hit hands back ``P``'s structure unchanged.
        """
        cache = OverlapPoolCache()
        base_pool = {
            1: Rectangle.from_center(Point(100.0, 100.0), 50.0),
            2: Rectangle.from_center(Point(120.0, 120.0), 50.0),
        }
        extended_pool = dict(base_pool)
        extended_pool[3] = Rectangle.from_center(Point(110.0, 110.0), 50.0)

        structures, _missed, _stats = resolve_and_build(cache, [base_pool])
        pristine = structures[0].serialized()

        extended, missed, stats = resolve_and_build(cache, [extended_pool])
        assert missed == [0] and stats["pools_rebuilt"] == 1
        assert extended[0].serialized() == FsaOverlapStructure.build(
            extended_pool
        ).serialized()

        verbatim, missed, stats = resolve_and_build(cache, [base_pool])
        assert missed == [] and stats["pools_reused"] == 1
        assert verbatim[0].serialized() == pristine
        assert verbatim[0].serialized() == FsaOverlapStructure.build(
            base_pool
        ).serialized()

    @settings(max_examples=100, deadline=None)
    @given(pool_epochs())
    def test_cached_entries_stay_fresh_builds(self, epochs):
        """Property form of the pin above: after any resolve/store history,
        re-resolving every pool ever stored returns a structure equal to a
        fresh build of that pool."""
        cache = OverlapPoolCache()
        seen = []
        for pools in epochs:
            resolve_and_build(cache, pools)
            seen.extend(pools)
        replayed, _miss, _stats = cache.resolve(seen)
        for pool, structure in zip(seen, replayed):
            if structure is None:
                continue
            assert structure.serialized() == FsaOverlapStructure.build(
                pool
            ).serialized()

    def test_equal_but_differently_printed_pools_do_not_share_an_entry(self):
        """``5`` / ``5.0`` and ``0.0`` / ``-0.0`` compare equal, so a cache
        keyed by ``==`` would serve one pool's bounds for the other; the key
        tells them apart, and each pool's hit prints like its own build."""
        def pool(zero, five):
            return {
                1: Rectangle(Point(zero, zero), Point(five, five)),
                2: Rectangle(Point(2.0, 2.0), Point(8.0, 8.0)),
            }

        cache = OverlapPoolCache()
        variants = [pool(0.0, 5.0), pool(-0.0, 5.0), pool(0.0, 5), pool(0, 5.0)]
        for variant in variants:
            _structures, missed, _stats = resolve_and_build(cache, [variant])
            assert missed == [0]
        for variant in variants:
            served, missed, stats = cache.resolve([variant])
            assert missed == {} and stats["pools_reused"] == 1
            assert repr(served[0].serialized()) == repr(
                FsaOverlapStructure.build(variant).serialized()
            )

    def test_each_pool_is_fingerprinted_once_an_epoch(self, monkeypatch):
        """``store`` takes the fingerprints ``resolve`` computed."""
        from repro.coordinator import overlaps

        calls = []
        fingerprint = overlaps.pool_fingerprint
        monkeypatch.setattr(
            overlaps, "pool_fingerprint", lambda pool: calls.append(pool) or fingerprint(pool)
        )
        pools = [
            {1: Rectangle.from_center(Point(100.0, 100.0), 50.0)},
            {2: Rectangle.from_center(Point(700.0, 700.0), 50.0)},
        ]
        cache = OverlapPoolCache()
        resolve_and_build(cache, pools)
        assert len(calls) == len(pools)

    def test_the_lru_is_bounded_by_regions_not_entries(self):
        """One large pool evicts as much history as many small ones — the
        bound is on what the entries hold — and the current epoch's own
        pools are exempt, so a pool larger than the bound can still repeat."""
        def pool(first_id, members):
            # ``members`` identical FSAs: 2 ** members - 1 regions.
            return {
                first_id + offset: Rectangle.from_center(Point(100.0, 100.0), 50.0)
                for offset in range(members)
            }

        cache = OverlapPoolCache(capacity=20)
        singles = [pool(object_id, 1) for object_id in range(12)]
        resolve_and_build(cache, singles)
        assert len(cache) == 12  # twelve entries, twelve regions
        resolve_and_build(cache, [pool(100, 4)])  # one entry, fifteen regions
        assert len(cache) == 6  # ... pushed seven singles out
        _structures, missed, _stats = resolve_and_build(cache, singles[-5:])
        assert missed == []  # the five most recent singles survived

        giant = pool(200, 5)  # 31 regions: over the bound on its own
        resolve_and_build(cache, [giant])
        assert len(cache) == 1  # all history went, the epoch's own pool stayed
        _structures, missed, stats = resolve_and_build(cache, [giant, singles[0]])
        assert missed == [1] and stats["pools_reused"] == 1
        # Once an epoch no longer submits it, it is history over the bound.
        resolve_and_build(cache, [singles[1]])
        assert len(cache) == 2  # singles[0] and singles[1]


# ---------------------------------------------------------------------------
# Incremental stitcher vs. the global reference stitch
# ---------------------------------------------------------------------------

vertex_pool = st.sampled_from(
    [-50.0, 0.0, 100.0, 250.0, 400.0, 500.0, 625.0, 750.0, 900.0, 1000.0, 1050.0]
)

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))

#: One event per tuple: ("insert", id, x1, y1, x2, y2, hotness) /
#: ("expire", id-index) / ("retouch", id-index, new_hotness)
stitch_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            vertex_pool,
            vertex_pool,
            vertex_pool,
            vertex_pool,
            st.integers(1, 5),
        ),
        st.tuples(st.just("expire"), st.integers(0, 30)),
        st.tuples(st.just("retouch"), st.integers(0, 30), st.integers(1, 9)),
    ),
    min_size=1,
    max_size=30,
)


def _reference(hot: Dict[int, Tuple[MotionPath, int]]):
    return stitch_paths(
        (MotionPathRecord(path_id, path, 0), hotness)
        for path_id, (path, hotness) in hot.items()
    )


def _play(hot: Dict[int, Tuple[MotionPath, int]], next_id: int, event) -> int:
    """Apply one ``stitch_events`` event to ``hot``; returns the next free id."""
    if event[0] == "insert":
        _tag, x1, y1, x2, y2, hotness = event
        hot[next_id] = (MotionPath(Point(x1, y1), Point(x2, y2)), hotness)
        return next_id + 1
    live = sorted(hot)
    if live:
        path_id = live[event[1] % len(live)]
        if event[0] == "expire":
            del hot[path_id]
        else:
            hot[path_id] = (hot[path_id][0], event[2])
    return next_id


def _changes(before, after, also=()):
    """The change set between two hot sets — what the query view derives from
    the hotness transitions — plus ``also``: ids that did not change, which a
    dirty set is free to contain."""
    changes = {path_id: None for path_id in before if path_id not in after}
    for path_id, state in after.items():
        if before.get(path_id) != state or path_id in also:
            changes[path_id] = state
    return changes


# ---------------------------------------------------------------------------
# Incremental stitcher: same-vertex churn, one apply per batch
# ---------------------------------------------------------------------------

#: Zero coordinates come in three spellings that compare equal but print apart.
ZERO_SPELLINGS = (0.0, -0.0, 0)
#: Four places a few units apart; a ``None`` coordinate is a zero spelling.
PLACES = ((None, None), (10.0, None), (10.0, 10.0), (None, 10.0))


def _place(index: int, spelling: int) -> Point:
    zero = ZERO_SPELLINGS[spelling]
    return Point(*(zero if coordinate is None else coordinate for coordinate in PLACES[index]))


places = st.integers(0, len(PLACES) - 1)
spellings = st.integers(0, len(ZERO_SPELLINGS) - 1)

#: ("add", start place, end place, start spelling, end spelling, hotness) /
#: ("remove", id-index) / ("retouch", id-index, hotness) /
#: ("bounce", id-index): the id leaves and a new id with its path arrives /
#: ("cycle", hotness): the three-path weld cycle of ``TestWeldCycles``.
churn_events = st.one_of(
    st.tuples(st.just("add"), places, places, spellings, spellings, st.integers(1, 3)),
    st.tuples(st.just("remove"), st.integers(0, 20)),
    st.tuples(st.just("retouch"), st.integers(0, 20), st.integers(1, 3)),
    st.tuples(st.just("bounce"), st.integers(0, 20)),
    st.tuples(st.just("cycle"), st.integers(1, 3)),
)


#: Ids are spread out, so a set of them does not iterate in ascending order.
ID_STEP = 37


def _churn(hot: Dict[int, Tuple[MotionPath, int]], next_id: int, event) -> int:
    """Apply one ``churn_events`` event to ``hot``; returns the next free id."""
    tag = event[0]
    if tag == "add":
        _tag, start, end, start_spelling, end_spelling, hotness = event
        path = MotionPath(_place(start, start_spelling), _place(end, end_spelling))
        hot[next_id] = (path, hotness)
        return next_id + ID_STEP
    if tag == "cycle":
        v0, v1, v2 = (_place(index, 0) for index in range(3))
        for path in (MotionPath(v0, v2), MotionPath(v1, v0), MotionPath(v2, v1)):
            hot[next_id] = (path, event[1])
            next_id += ID_STEP
        return next_id
    live = sorted(hot)
    if not live:
        return next_id
    path_id = live[event[1] % len(live)]
    if tag == "remove":
        del hot[path_id]
    elif tag == "retouch":
        hot[path_id] = (hot[path_id][0], event[2])
    else:  # bounce
        hot[next_id] = hot.pop(path_id)
        next_id += ID_STEP
    return next_id


churn_batches = st.lists(st.lists(churn_events, min_size=1, max_size=6), min_size=1, max_size=8)


class TestIncrementalStitcherProperties:
    @settings(max_examples=200, deadline=None)
    @given(stitch_events, st.integers(0, 3))
    def test_patched_report_equals_global_restitch(self, events, epochs_split):
        """Random add / remove / re-heat sequences, applied in arbitrary epoch
        groupings with arbitrary unchanged ids riding along: the report must
        equal ``stitch_paths`` over the surviving set, and the key-ranked
        top-k ``select_top_k_corridors`` over that report, after every
        ``apply``."""
        stitcher = IncrementalStitcher()
        hot: Dict[int, Tuple[MotionPath, int]] = {}
        next_id = 0
        rng = random.Random(epochs_split)
        pending = list(events)
        while pending:
            take = max(1, min(len(pending), rng.randrange(1, 8)))
            chunk, pending = pending[:take], pending[take:]
            before = dict(hot)
            for event in chunk:
                next_id = _play(hot, next_id, event)
            bystanders = {path_id for path_id in hot if rng.random() < 0.3}
            stitcher.apply(_changes(before, hot, also=bystanders))
            reference = _reference(hot)
            for by_score in (False, True):
                for k in (1, 3, 100):
                    assert stitcher.top_k(k, by_score) == select_top_k_corridors(
                        reference, k, by_score
                    )
            corridors, _stats = stitcher.report(lambda path_id: 0)
            assert corridors == reference

    @settings(max_examples=100, deadline=None)
    @given(stitch_events)
    def test_boundary_welds_count_the_owner_changes(self, events):
        """The ``boundary_welds`` diagnostic, with a real 2x2 ownership map."""
        grid = ShardGrid(BOUNDS, 2, 2)
        stitcher = IncrementalStitcher()
        hot: Dict[int, Tuple[MotionPath, int]] = {}
        next_id = 0
        for event in events:
            next_id = _play(hot, next_id, event)
        stitcher.apply(hot)

        def owner_of(path_id: int) -> int:
            return grid.shard_id_of(hot[path_id][0].start)

        corridors, stats = stitcher.report(owner_of)
        assert corridors == _reference(hot)
        assert stats["boundary_welds"] == sum(
            owner_of(previous.path_id) != owner_of(segment.path_id)
            for corridor in corridors
            for previous, segment in zip(corridor.segments, corridor.segments[1:])
        )

    @settings(max_examples=100, deadline=None)
    @given(stitch_events)
    def test_apply_is_idempotent(self, events):
        """Re-applying the state the stitcher already holds changes nothing:
        no chain is re-keyed and every corridor comes from the cache."""
        stitcher = IncrementalStitcher()
        hot: Dict[int, Tuple[MotionPath, int]] = {}
        next_id = 0
        for event in events:
            if event[0] == "insert":
                next_id = _play(hot, next_id, event)
        stitcher.apply(hot)
        first, _ = stitcher.report(lambda path_id: 0)
        stitcher.apply(hot)
        second, stats = stitcher.report(lambda path_id: 0)
        assert second == first
        if first:
            assert stats["corridors_reused"] == len(first)

    # Same-vertex churn: batches of events at four places, each batch handed
    # to one ``apply`` in a shuffled order — welds that flip and flip back,
    # cycles opened and closed, ids that came and went unseen, and vertices
    # spelled ``0.0`` / ``-0.0`` / ``0``.

    @settings(max_examples=200, deadline=None)
    @given(churn_batches, st.randoms(use_true_random=False))
    def test_same_vertex_churn_equals_the_global_restitch(self, batches, rng):
        stitcher = IncrementalStitcher()
        hot: Dict[int, Tuple[MotionPath, int]] = {}
        next_id = 0
        for batch in batches:
            before, first_id = dict(hot), next_id
            for event in batch:
                next_id = _churn(hot, next_id, event)
            changes = _changes(before, hot)
            # Ids that came and went inside the batch: ``None`` for an id never held.
            changes.update(
                (path_id, None)
                for path_id in range(first_id, next_id, ID_STEP)
                if path_id not in hot
            )
            order = list(changes)
            rng.shuffle(order)
            stitcher.apply({path_id: changes[path_id] for path_id in order})
            reference = _reference(hot)
            for by_score in (False, True):
                for k in (1, 3, 100):
                    assert repr(stitcher.top_k(k, by_score)) == repr(
                        select_top_k_corridors(reference, k, by_score)
                    )
            corridors, _stats = stitcher.report(lambda path_id: 0)
            assert repr(corridors) == repr(reference)

    def test_a_weld_that_flips_back_taints_nothing(self):
        """Two paths end at ``v``, one starts there: no weld.  One ender
        leaves as another arrives, so ``v`` still has two enders; taken one
        change at a time the weld would appear and vanish again.  Only the
        arrival is chained; the paths on either side of ``v`` are reused."""
        v = Point(0.0, 0.0)
        stitcher = IncrementalStitcher()
        stitcher.apply({
            0: (MotionPath(Point(-10.0, 0.0), v), 1),
            1: (MotionPath(Point(0.0, -10.0), v), 1),
            2: (MotionPath(v, Point(10.0, 0.0)), 1),
        })
        stitcher.report(lambda path_id: 0)
        arrival = MotionPath(Point(0.0, 10.0), v)
        stitcher.apply({1: None, 3: (arrival, 1)})
        corridors, stats = stitcher.report(lambda path_id: 0)
        assert (stats["chains_rewelded"], stats["chains_reused"]) == (1, 2)
        assert [corridor.path_ids for corridor in corridors] == [(0,), (2,), (3,)]

    def test_the_chain_score_is_the_builtin_sum_on_every_python(self):
        """Scores whose sequential and compensated sums differ (CPython 3.12+
        compensates ``sum``): the chain key, the corridor and the global
        stitch must all hold the same float, whichever ``sum`` this is."""
        scores = [1e16, 1.0, 1.0]
        assert scores[0] + scores[1] + scores[2] != math.fsum(scores)
        a, b, c, d = Point(0.0, 0.0), Point(0.0, 1e16), Point(1.0, 1e16), Point(2.0, 1e16)
        hot = {0: (MotionPath(a, b), 1), 1: (MotionPath(b, c), 1), 2: (MotionPath(c, d), 1)}
        assert [path.length for path, _hotness in hot.values()] == scores
        stitcher = IncrementalStitcher()
        stitcher.apply(hot)
        (corridor,) = stitcher.top_k(1, by_score=True)
        (reference,) = _reference(hot)
        assert corridor.path_ids == reference.path_ids == (0, 1, 2)
        key_score = stitcher._keys[0][1]
        assert repr(key_score) == repr(corridor.score) == repr(reference.score) == repr(sum(scores))


# ---------------------------------------------------------------------------
# The query view on steady traffic: net-zero skips and kept answers
# ---------------------------------------------------------------------------


def _assert_answers_as_the_oracle(coordinator, k: int, by_score: bool) -> None:
    hot = coordinator.hot_paths()
    assert repr(coordinator.top_k(k, by_score)) == repr(select_top_k(hot, k, by_score))
    assert repr(coordinator.top_k_corridors(k, by_score)) == repr(
        select_top_k_corridors(stitch_paths(hot), k, by_score)
    )


class TestSteadyRosterAnswers:
    """A roster whose counts stop changing, queried the way the bench does —
    one ``(k, by_score)`` repeated, so its answer is kept across commits —
    with other queries mixed in: every answer, kept or re-ranked, is
    ``repr``-equal to the oracle scan.  Between epochs one direct crossing;
    two isolated *flash* paths crossed nine times behind the coordinator's
    back lead the hotness ranking until the first vanishes at once (a
    removal at the floor) and the second decays to one crossing (a re-key
    from the floor to below it); and once the hottest path is deleted from
    the index behind the coordinator's back."""

    @pytest.mark.parametrize("k, by_score", [(10, False), (1, False), (3, True)])
    def test_every_answer_equals_the_oracle(self, monkeypatch, k, by_score):
        ranked = []
        rank_top_k = scoring.rank_top_k
        monkeypatch.setattr(
            scoring, "rank_top_k", lambda *args: ranked.append(args[1]) or rank_top_k(*args)
        )
        queries = [(k, by_score), (k, not by_score), (3, False), (10, True), (1, False)]
        queries = [(k, by_score)] + queries + [(k, by_score)]
        coordinator = make_coordinator(window=25)
        rng = random.Random(k)
        flash = []
        asked = 0
        try:
            for epoch, (boundary, states) in enumerate(steady_roster_stream(), start=1):
                for state in states:
                    coordinator.submit_state(state)
                coordinator.run_epoch(boundary)
                for query in queries:
                    _assert_answers_as_the_oracle(coordinator, *query)
                asked += 2 * len(queries)
                if epoch in (4, 9):
                    corner = Point(20.0, 980.0) if epoch == 4 else Point(940.0, 20.0)
                    path = MotionPath(corner, Point(corner.x + 40.0, corner.y))
                    flash.append(_hot_now(coordinator, path, 9, boundary))
                if epoch == 10:
                    coordinator.hotness.record_crossing(flash[1], boundary)
                if epoch == 13:
                    (hottest,) = select_top_k(coordinator.hot_paths(), 1)
                    coordinator.index.delete(hottest.path_id)
                roster = sorted(
                    path_id for path_id, _count in coordinator.hotness.items()
                    if path_id not in flash and path_id in coordinator.index
                )
                coordinator.hotness.record_crossing(rng.choice(roster), boundary)
                _assert_answers_as_the_oracle(coordinator, k, by_score)
                asked += 2
        finally:
            coordinator.close()
        assert 0 < len(ranked) < asked, "no answer stood, or none was re-ranked"


# ---------------------------------------------------------------------------
# The kept top-k set (StandingTopK)
# ---------------------------------------------------------------------------

#: Hotness and score from small pools, so ties on either are common.
_KEY_HOTNESS = st.sampled_from([1, 2, 3])
_KEY_SCORE = st.sampled_from([0.5, 1.0, 2.5, 4.0])
#: One change: an id enters, or a live one (picked by its rank in either
#: order, so answer members are hit often) leaves or is re-keyed, or the
#: floor key itself leaves or moves.
_kept_change = st.tuples(
    st.sampled_from(["add", "remove", "replace", "floor_remove", "floor_move"]),
    st.integers(0, 40),
    _KEY_HOTNESS,
    _KEY_SCORE,
)
kept_steps = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.sampled_from([1, 2, 3, 5]), st.booleans()),
        st.tuples(st.just("edit"), st.lists(_kept_change, min_size=1, max_size=6)),
    ),
    min_size=1,
    max_size=80,
)


class TestKeptTopK:
    """``StandingTopK`` over random streams of key adds, removals and
    replacements, edited in batches in any order (a replaced key is reported
    old and new), with ``k`` and ``by_score`` alternating between queries:
    every answer equals ``rank_top_k`` over the live keys, and the kept set
    never holds more than twice its depth."""

    @staticmethod
    def _victim(live, position: int, standing) -> int:
        """The id of a live key: by rank position, or the floor key."""
        if position < 0:
            floor = standing._floor
            if not floor:
                return -1
            raw = scoring._SCORE_FIRST(floor) if standing._by_score else floor
            return -raw[2] if live.get(-raw[2]) == raw else -1
        order = scoring._SCORE_FIRST if position % 2 else None
        ranked = sorted(live.values(), key=order, reverse=True)
        return -ranked[position % len(ranked)][2]

    @settings(max_examples=300, deadline=None)
    @given(kept_steps, st.randoms(use_true_random=False))
    def test_every_answer_equals_a_rank_of_the_live_keys(self, steps, rng):
        live: Dict[int, Tuple[int, float, int]] = {}
        standing = scoring.StandingTopK()
        next_id = 0
        for step in steps:
            if step[0] == "query":
                _query, k, by_score = step
                answer = standing.top_k(live.values(), k, by_score)
                assert answer == scoring.rank_top_k(live.values(), k, by_score)
                continue
            edited = []
            for action, position, hotness, score in step[1]:
                victim = -1
                if live and action != "add":
                    floor = action.startswith("floor")
                    victim = self._victim(live, -1 if floor else position, standing)
                if victim < 0:
                    live[next_id] = (hotness, score, -next_id)
                    edited.append(live[next_id])
                    next_id += 1
                elif action.endswith("remove"):
                    edited.append(live.pop(victim))
                else:
                    old, live[victim] = live[victim], (hotness, score, -victim)
                    edited.extend((old, live[victim]))
            rng.shuffle(edited)
            standing.edit(edited)
            assert len(standing._kept) <= 2 * standing._depth or standing._by_score is None


class TestKeptSetOnAStream:
    def test_few_queries_re_rank_and_the_kept_sets_stay_bounded(self, monkeypatch):
        """120 feedback epochs with a top-k path and corridor query each: at
        most 5 % of the queries re-rank the whole key set, and neither kept
        set ever holds more than twice its depth."""
        ranked = []
        rank_top_k = scoring.rank_top_k
        monkeypatch.setattr(
            scoring, "rank_top_k", lambda *args: ranked.append(args[1]) or rank_top_k(*args)
        )
        coordinator = make_coordinator(window=120)
        view = coordinator._view
        queries = 0
        try:
            for _outcome in feedback_epochs(coordinator, 11, epochs=120, objects=14):
                coordinator.top_k(10)
                coordinator.top_k_corridors(10)
                queries += 2
                for standing in (view._standing, view.stitcher._standing):
                    assert len(standing._kept) <= 2 * standing._depth
            hot = len(coordinator.hot_paths())
        finally:
            coordinator.close()
        assert hot > 4 * scoring.KEPT_DEPTH * 10, "the kept sets never had a floor"
        assert len(ranked) <= 0.05 * queries
