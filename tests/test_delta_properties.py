"""Property-based tests for the incremental epoch pipeline (epoch_mode="delta").

The delta pipeline's whole claim is *algebraic*: applying an epoch's delta to
the previous state must equal rebuilding that state from scratch.  Random
event sequences check that claim for each delta carrier independently:

* **membership algebra** (:mod:`repro.coordinator.delta`) — applying a
  composed delta equals applying its parts in order, composition is
  associative, disjoint deltas commute, and the empty delta is the identity;
* **hotness deltas** (:class:`repro.coordinator.hotness.HotnessDeltaLog`) —
  replaying a tracker's drained event log against a mirror reproduces the
  tracker's hot set and counters exactly, under random crossing/expiry
  interleavings and provisional-id renames;
* **pool cache** (:class:`repro.coordinator.overlaps.OverlapPoolCache`) —
  whatever mix of exact hits, prefix resumes and rebuilds the cache chooses
  for a random pool-churn sequence, every resolved structure is bit-for-bit
  the structure a from-scratch build produces;
* **incremental stitching**
  (:class:`repro.coordinator.stitching.IncrementalStitcher`) — after any
  sequence of insert/expire/hotness-change events applied as per-id change
  sets, the patched corridor report equals
  :func:`~repro.coordinator.stitching.stitch_paths` run fresh over the
  surviving hot set, and the key-ranked top-k equals
  :func:`~repro.coordinator.stitching.select_top_k_corridors` over it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.coordinator.delta import (
    EpochDelta,
    apply_membership,
    compose_membership,
)
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.overlaps import FsaOverlapStructure, OverlapPoolCache
from repro.coordinator.sharding import ShardGrid
from repro.coordinator.stitching import (
    IncrementalStitcher,
    select_top_k_corridors,
    stitch_paths,
)

# ---------------------------------------------------------------------------
# Membership algebra
# ---------------------------------------------------------------------------

ids = st.integers(min_value=0, max_value=12)
id_sets = st.frozensets(ids, max_size=8)


@st.composite
def membership_deltas(draw) -> Tuple[frozenset, frozenset]:
    """An ``(added, removed)`` pair with disjoint sides, like real epochs
    produce (a vanished path's id is never re-hot in the same epoch)."""
    added = draw(id_sets)
    removed = draw(id_sets.map(lambda s: s - added))
    return added, removed


class TestMembershipAlgebra:
    @settings(max_examples=300, deadline=None)
    @given(id_sets, membership_deltas(), membership_deltas())
    def test_compose_equals_sequential_application(self, members, first, second):
        composed = compose_membership(first, second)
        assert apply_membership(members, composed) == apply_membership(
            apply_membership(members, first), second
        )

    @settings(max_examples=300, deadline=None)
    @given(id_sets, membership_deltas(), membership_deltas(), membership_deltas())
    def test_compose_is_associative(self, members, a, b, c):
        left = compose_membership(compose_membership(a, b), c)
        right = compose_membership(a, compose_membership(b, c))
        # Composition itself need not be syntactically equal, but the two
        # composites must act identically on every state.
        assert apply_membership(members, left) == apply_membership(members, right)

    @settings(max_examples=300, deadline=None)
    @given(id_sets, membership_deltas(), membership_deltas())
    def test_disjoint_deltas_commute(self, members, first, second):
        touched_first = first[0] | first[1]
        second = (second[0] - touched_first, second[1] - touched_first)
        assert apply_membership(
            members, compose_membership(first, second)
        ) == apply_membership(members, compose_membership(second, first))

    @settings(max_examples=200, deadline=None)
    @given(id_sets)
    def test_empty_delta_is_identity(self, members):
        empty = (frozenset(), frozenset())
        assert apply_membership(members, empty) == members
        delta = EpochDelta(timestamp=10)
        assert delta.is_noop()
        assert apply_membership(members, delta.membership) == members


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

    @settings(max_examples=150, deadline=None)
    @given(hotness_scripts, st.integers(1, 5))
    def test_log_survives_provisional_renames(self, script, offset):
        """Crossings recorded under provisional ids then renamed (the parallel
        commit path) must drain as final ids, matching a tracker that used
        final ids all along."""
        provisional = HotnessTracker(window=15)
        provisional.enable_delta_log()
        final = HotnessTracker(window=15)
        final.enable_delta_log()
        provisional.begin_deferred()
        crossed = set()
        for op, a, b in script:
            if op == "cross":
                provisional.record_crossing(a + 1000, b)
                final.record_crossing(a + offset, b)
                crossed.add(a)
        mapping = {a + 1000: a + offset for a in crossed}
        provisional.flush_deferred(mapping)
        final.flush_deferred({})
        log_a, log_b = provisional.drain_delta_log(), final.drain_delta_log()
        assert log_a.newly_hot == log_b.newly_hot
        assert log_a.touched == log_b.touched
        assert dict(provisional.items()) == dict(final.items())


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
    """Several epochs of pools with churn: pools repeat, extend (prefix
    resumes), shrink and mutate across epochs."""
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
            assert stats["pools_total"] == (
                stats["pools_reused"]
                + stats["pools_prefix_reused"]
                + stats["pools_rebuilt"]
            )
            for pool, structure in zip(pools, structures):
                fresh = FsaOverlapStructure.build(pool)
                assert structure.serialized() == fresh.serialized(), (
                    "cached/prefix-resumed structure diverged from a fresh build"
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

    def test_prefix_resume_must_not_mutate_the_cached_entry(self):
        """Regression: a prefix hit builds from a *snapshot* of the cached
        base, never from the cached structure itself.

        The failure mode being pinned: resolve pool ``P`` (cached), then
        ``P + extra`` (prefix-resumed from ``P``'s entry), then ``P``
        verbatim again.  If the resume had extended the cached structure in
        place, the final verbatim hit would hand back a structure carrying
        ``extra``'s regions — diverging from a fresh build of ``P``.
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

        resumed, missed, stats = resolve_and_build(cache, [extended_pool])
        assert missed == [] and stats["pools_prefix_reused"] == 1
        assert resumed[0].serialized() == FsaOverlapStructure.build(
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
    def test_prefix_chains_never_corrupt_cached_entries(self, epochs):
        """Property form of the aliasing pin: after any resolve/store
        history, re-resolving every pool ever stored returns a structure
        equal to a fresh build of that pool."""
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
