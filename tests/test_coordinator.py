"""Unit tests for :mod:`repro.coordinator.coordinator`."""

from __future__ import annotations

import pytest

from repro.core import scoring
from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.core.scoring import ScoredPath, select_top_k
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.stitching import (
    CompositeCorridor,
    IncrementalStitcher,
    select_top_k_corridors,
    stitch_paths,
)

import differential


BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


def make_coordinator(window: int = 50) -> Coordinator:
    return Coordinator(CoordinatorConfig(bounds=BOUNDS, window=window, cells_per_axis=16))


def state(object_id: int, start: Point, low: Point, high: Point, t_start: int, t_end: int) -> ObjectState:
    return ObjectState(object_id, start, t_start, low, high, t_end)


class TestConfig:
    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(bounds=BOUNDS, window=0)

    @pytest.mark.parametrize(
        "area",
        (
            dict(bounds=BOUNDS, cells_per_axis=0),
            dict(bounds=Rectangle(Point(0.0, 0.0), Point(0.0, 1000.0))),
        ),
        ids=("cells", "flat-bounds"),
    )
    def test_the_grid_is_validated_with_the_config(self, area):
        """Before any coordinator is built (``repro serve`` validates its flags so)."""
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(**area)


class TestEpochProcessing:
    def test_empty_epoch(self):
        coordinator = make_coordinator()
        outcome = coordinator.run_epoch(10)
        assert outcome.responses == []
        assert outcome.states_processed == 0
        assert coordinator.index_size() == 0
        assert coordinator.epochs_processed == 1

    def test_states_are_consumed_by_epoch(self):
        coordinator = make_coordinator()
        coordinator.submit_state(
            state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(170.0, 170.0), 0, 8)
        )
        outcome = coordinator.run_epoch(10)
        assert outcome.states_processed == 1
        assert len(outcome.responses) == 1
        assert outcome.responses[0].object_id == 1
        assert coordinator.index_size() == 1
        assert coordinator.run_epoch(20).states_processed == 0

    def test_processing_time_recorded(self):
        coordinator = make_coordinator()
        coordinator.submit_state(
            state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(170.0, 170.0), 0, 8)
        )
        outcome = coordinator.run_epoch(10)
        assert outcome.processing_seconds > 0.0

    def test_two_objects_same_start_share_path(self):
        coordinator = make_coordinator()
        coordinator.submit_state(
            state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(175.0, 175.0), 0, 8)
        )
        coordinator.submit_state(
            state(2, Point(100.0, 100.0), Point(160.0, 160.0), Point(185.0, 185.0), 0, 9)
        )
        coordinator.run_epoch(10)
        assert coordinator.index_size() == 1
        (record, hotness), = coordinator.hot_paths()
        assert hotness == 2


class TestWindowExpiry:
    def test_paths_expire_and_are_removed_from_index(self):
        coordinator = make_coordinator(window=20)
        coordinator.submit_state(
            state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(170.0, 170.0), 0, 5)
        )
        coordinator.run_epoch(10)
        assert coordinator.index_size() == 1

        # The crossing ended at t=5, so it expires at t=25.
        outcome = coordinator.run_epoch(24)
        assert outcome.paths_expired == 0
        assert coordinator.index_size() == 1

        outcome = coordinator.run_epoch(30)
        assert outcome.paths_expired == 1
        assert coordinator.index_size() == 0
        assert coordinator.hot_paths() == []

    def test_repeated_crossings_keep_path_alive(self):
        coordinator = make_coordinator(window=20)
        for t_end in (5, 15, 25):
            coordinator.submit_state(
                state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(170.0, 170.0), t_end - 5, t_end)
            )
            coordinator.run_epoch(t_end + 1)
        assert coordinator.index_size() == 1
        (_, hotness), = coordinator.hot_paths()
        assert hotness >= 2


class TestEpochBoundaries:
    """Edge cases at epoch boundaries: the expiry clock and odd submit orders."""

    def test_expiry_exactly_at_window_boundary(self):
        # A crossing that ended at t=5 with W=20 schedules its decrement at
        # t=25; the paper's window is inclusive-exclusive, so an epoch running
        # exactly at t=25 must already expire it.
        coordinator = make_coordinator(window=20)
        coordinator.submit_state(
            state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(170.0, 170.0), 0, 5)
        )
        coordinator.run_epoch(10)
        outcome = coordinator.run_epoch(25)
        assert outcome.paths_expired == 1
        assert coordinator.index_size() == 0

    def test_empty_epoch_between_active_ones(self):
        coordinator = make_coordinator(window=50)
        coordinator.submit_state(
            state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(170.0, 170.0), 0, 5)
        )
        coordinator.run_epoch(10)
        before = coordinator.hot_paths()
        outcome = coordinator.run_epoch(20)
        assert outcome.states_processed == 0
        assert outcome.responses == []
        assert outcome.paths_expired == 0
        assert coordinator.hot_paths() == before
        assert coordinator.epochs_processed == 2

    def test_out_of_order_submit_timestamps(self):
        # Two objects report within the same epoch with decreasing t_end; both
        # must be processed, and each crossing expires by its own t_end.
        coordinator = make_coordinator(window=20)
        coordinator.submit_state(
            state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(170.0, 170.0), 4, 9)
        )
        coordinator.submit_state(
            state(2, Point(700.0, 700.0), Point(720.0, 720.0), Point(740.0, 740.0), 0, 3)
        )
        outcome = coordinator.run_epoch(10)
        assert outcome.states_processed == 2
        assert [r.object_id for r in outcome.responses] == [1, 2]
        # Object 2's crossing (t_end=3) expires at 23, object 1's at 29.
        outcome = coordinator.run_epoch(25)
        assert outcome.paths_expired == 1
        assert coordinator.index_size() == 1
        outcome = coordinator.run_epoch(30)
        assert outcome.paths_expired == 1
        assert coordinator.index_size() == 0

    def test_state_submitted_during_epoch_gap_waits_for_next_epoch(self):
        coordinator = make_coordinator()
        coordinator.run_epoch(10)
        coordinator.submit_state(
            state(1, Point(100.0, 100.0), Point(150.0, 150.0), Point(170.0, 170.0), 11, 14)
        )
        outcome = coordinator.run_epoch(20)
        assert outcome.states_processed == 1
        assert coordinator.run_epoch(30).states_processed == 0


class TestShardedCoordinatorSurface:
    """The sharded coordinator exposes the same protocol surface."""

    def _sharded(self, num_shards: int = 4) -> Coordinator:
        return Coordinator(
            CoordinatorConfig(bounds=BOUNDS, window=50, cells_per_axis=16, num_shards=num_shards)
        )

    def test_invalid_num_shards(self):
        with pytest.raises(ConfigurationError):
            CoordinatorConfig(bounds=BOUNDS, num_shards=0)

    def test_sharded_epoch_round_trip(self):
        coordinator = self._sharded()
        # One object per 2x2 shard, plus one whose FSA straddles the centre.
        for object_id, (x, y) in enumerate(
            [(100.0, 100.0), (900.0, 100.0), (100.0, 900.0), (900.0, 900.0), (480.0, 480.0)]
        ):
            coordinator.submit_state(
                state(object_id, Point(x, y), Point(x + 40.0, y + 40.0), Point(x + 80.0, y + 80.0), 0, 8)
            )
        outcome = coordinator.run_epoch(10)
        assert outcome.states_processed == 5
        assert len(outcome.responses) == 5
        assert coordinator.index_size() == len(list(coordinator.index.records))
        stats = coordinator.shard_statistics()
        assert stats["num_shards"] == 4
        assert stats["total_records"] == coordinator.index_size()

    def test_sharded_expiry_drains_all_shards(self):
        coordinator = self._sharded()
        for object_id, (x, y) in enumerate([(100.0, 100.0), (900.0, 900.0)]):
            coordinator.submit_state(
                state(object_id, Point(x, y), Point(x + 40.0, y + 40.0), Point(x + 60.0, y + 60.0), 0, 5)
            )
        coordinator.run_epoch(10)
        assert coordinator.index_size() == 2
        outcome = coordinator.run_epoch(60)
        assert outcome.paths_expired == 2
        assert coordinator.index_size() == 0
        assert coordinator.hotness.pending_events == 0

    def test_single_shard_statistics_fallback(self):
        coordinator = make_coordinator()
        stats = coordinator.shard_statistics()
        assert stats["num_shards"] == 1
        assert stats["total_records"] == coordinator.index_size()


class TestTopK:
    def _populate(self, coordinator: Coordinator) -> None:
        # Three objects share a start and a long FSA; one object goes elsewhere.
        for object_id in (1, 2, 3):
            coordinator.submit_state(
                state(object_id, Point(100.0, 100.0), Point(300.0, 300.0), Point(320.0, 320.0), 0, 9)
            )
        coordinator.submit_state(
            state(4, Point(700.0, 700.0), Point(720.0, 720.0), Point(740.0, 740.0), 0, 9)
        )
        coordinator.run_epoch(10)

    def test_top_k_orders_by_hotness(self):
        coordinator = make_coordinator()
        self._populate(coordinator)
        top = coordinator.top_k(2)
        assert len(top) == 2
        assert top[0].hotness >= top[1].hotness
        assert top[0].hotness == 3

    def test_top_k_score_positive(self):
        coordinator = make_coordinator()
        self._populate(coordinator)
        assert coordinator.top_k_score(2) > 0.0

    def test_top_k_more_than_paths(self):
        coordinator = make_coordinator()
        self._populate(coordinator)
        assert len(coordinator.top_k(100)) == coordinator.index_size()


class TestLazyStitching:
    def test_stitching_is_lazy_until_queried(self):
        """Epochs that nobody asks corridors of never pay for stitching: the
        first query afterwards stitches once, and a repeated query re-reads
        the stitched chains without stitching again."""
        coordinator = differential.make_coordinator(FleetConfig(num_shards=4), window=120)
        try:
            for _outcome in differential.feedback_epochs(coordinator, seed=3, epochs=2):
                pass
            assert coordinator.router.stitch_stats == {}  # no query yet
            corridors = coordinator.hot_corridors()
            assert corridors
            assert coordinator.router.stitch_stats["corridors"] == len(corridors)
            stitcher = coordinator._view.stitcher
            stitched = dict(stitcher.totals)
            assert coordinator.hot_corridors() == corridors
            moved = {key for key in stitched if stitcher.totals[key] != stitched[key]}
            assert moved == {"corridors_reused"}  # every chain served from its cache
        finally:
            coordinator.close()


class TestCorridorsAfterDirectMutation:
    """A corridor query answers from the current state after an index or
    hotness mutation made behind the coordinator's back, also when the epoch
    was queried before it: no report outlives a mutation."""

    @pytest.mark.parametrize("epoch_mode", ["full", "delta"])
    @pytest.mark.parametrize("mutation", ["record_crossing", "delete"])
    def test_a_query_after_a_direct_mutation_sees_it(self, epoch_mode, mutation):
        k = 5
        coordinator = differential.make_coordinator(FleetConfig(epoch_mode=epoch_mode), window=120)
        try:
            for outcome in differential.feedback_epochs(coordinator, seed=3, epochs=3):
                now = outcome.timestamp
            before = coordinator.top_k_corridors(k)
            coolest = min(coordinator.hot_paths(), key=lambda item: (item[1], item[0].path_id))
            path_id = coolest[0].path_id
            if mutation == "record_crossing":
                for _ in range(50):  # from the coolest path to the hottest
                    coordinator.hotness.record_crossing(path_id, now)
            else:
                path_id = before[0].lead_path_id
                coordinator.index.delete(path_id)
            report = stitch_paths(coordinator.hot_paths())
            expected = select_top_k_corridors(report, k)
            assert expected != before  # the mutation moves the answer
            assert coordinator.top_k_corridors(k) == expected
            assert coordinator.hot_corridors() == report
        finally:
            coordinator.close()


class TestQueryWork:
    """ROADMAP 7's "from all hot to O(k + touched)" as exact counts, no clock."""

    def test_a_post_commit_query_builds_k_objects(self, monkeypatch):
        k = 10
        coordinator = differential.make_coordinator(window=120)
        stitcher = coordinator._view.stitcher
        built = {"scored": 0, "corridors": 0}

        def counting(owner, name, counter):
            original = getattr(owner, name)

            def wrapper(self, *args, **kwargs):
                built[counter] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        try:
            epochs = differential.feedback_epochs(coordinator, 11, epochs=12, objects=14)
            for _ in range(11):
                next(epochs)
                coordinator.top_k(k)
                coordinator.top_k_corridors(k)
            counting(ScoredPath, "__init__", "scored")
            counting(CompositeCorridor, "__init__", "corridors")
            outcome = next(epochs)
            hot = len(coordinator.hot_paths())
            built.update(scored=0, corridors=0)  # hot_paths() is the oracle's
            decided = stitcher.weld_decisions
            coordinator.top_k(k)
            coordinator.top_k_corridors(k)
            decided = stitcher.weld_decisions - decided
        finally:
            coordinator.close()
        delta = outcome.delta
        dirty = set(delta.newly_hot) | set(delta.touched) | set(delta.decayed) | set(delta.vanished)
        assert hot > 4 * k and 0 < len(dirty) < hot, "not a steady stream"
        assert built["scored"] == k
        assert 0 < built["corridors"] <= k
        # At most two weld decisions (its two vertices) per id that entered or left.
        assert 0 < decided <= 2 * len(dirty)


class TestSteadyQueryWork:
    """Steady traffic costs a query only what changed, as exact counts: a
    roster whose decays and touches cancel (``differential.steady_roster_stream``
    under a window of 25; epochs 7 and 8 change no count at all)."""

    WARM_UP = 5

    @staticmethod
    def epochs(coordinator):
        """``(epoch, outcome)`` of the steady roster, one epoch at a time."""
        stream = differential.steady_roster_stream()
        for epoch, (boundary, states) in enumerate(stream, start=1):
            for state_message in states:
                coordinator.submit_state(state_message)
            yield epoch, coordinator.run_epoch(boundary)

    @staticmethod
    def hot_state(coordinator):
        """Each hot id's ``(path, rank tuple)``, as the view hands it to ``apply``."""
        return {
            record.path_id: (record, (hot, hot * record.length, -record.path_id))
            for record, hot in coordinator.hot_paths()
        }

    @staticmethod
    def dirty(outcome):
        delta = outcome.delta
        return set(delta.newly_hot) | set(delta.touched) | set(delta.decayed) | set(delta.vanished)

    def test_apply_receives_only_the_ids_whose_state_changed(self, monkeypatch):
        applied = []
        apply = IncrementalStitcher.apply
        monkeypatch.setattr(
            IncrementalStitcher, "apply",
            lambda self, changes: applied.append(dict(changes)) or apply(self, changes),
        )
        coordinator = differential.make_coordinator(window=25)
        quiet = partial = 0
        try:
            stitched = {}
            for epoch, outcome in self.epochs(coordinator):
                applied.clear()
                coordinator.top_k_corridors(10)
                now = self.hot_state(coordinator)
                if epoch > self.WARM_UP:
                    changed = {i: state for i, state in now.items() if stitched.get(i) != state}
                    changed.update((i, None) for i in stitched.keys() - now.keys())
                    assert applied == ([changed] if changed else [])
                    quiet += not changed
                    partial += 0 < len(changed) < len(self.dirty(outcome))
                stitched = now
        finally:
            coordinator.close()
        assert quiet and partial, "no net-zero epoch, or no epoch mixing both kinds"

    def test_a_repeated_query_ranks_again_only_below_k_kept_keys(self, monkeypatch):
        """Each top-k reads its kept set (``StandingTopK``) and re-ranks the
        whole key set only when fewer than k keys are kept: not on a quiet
        epoch, not on a crossing at the top, and exactly once when the best
        paths (then the best chains) are deleted until k - 1 kept keys remain."""
        ranked = []
        rank_top_k = scoring.rank_top_k
        monkeypatch.setattr(
            scoring, "rank_top_k", lambda *args: ranked.append(args[1]) or rank_top_k(*args)
        )

        def answers_as_the_oracle(coordinator):
            hot = coordinator.hot_paths()
            assert repr(coordinator.top_k(10)) == repr(select_top_k(hot, 10))
            assert repr(coordinator.top_k_corridors(10)) == repr(
                select_top_k_corridors(stitch_paths(hot), 10)
            )

        coordinator = differential.make_coordinator(window=25)
        try:
            epochs = self.epochs(coordinator)
            for epoch, _outcome in epochs:
                coordinator.top_k(10)
                coordinator.top_k_corridors(10)
                if epoch == 6:
                    break
            ranked.clear()
            _epoch, outcome = next(epochs)  # epoch 7: every count as it was
            assert self.dirty(outcome)
            for _ in range(2):
                answers_as_the_oracle(coordinator)
            assert ranked == []
            # A crossing of the leading corridor's head: an edit at the top of
            # both kept sets, answered from them.
            lead = coordinator.top_k_corridors(10)[0].lead_path_id
            coordinator.hotness.record_crossing(lead, 70)
            answers_as_the_oracle(coordinator)
            assert ranked == []
        finally:
            coordinator.close()

        # A hot set of more than twice the kept depth, so that the kept sets
        # have floors; delete their best keys' paths behind the coordinator's
        # back until k - 1 kept keys remain.
        coordinator = differential.make_coordinator(window=120)
        view = coordinator._view
        stitcher = view.stitcher
        try:
            for _outcome in differential.feedback_epochs(coordinator, 11, epochs=12, objects=14):
                answers_as_the_oracle(coordinator)
            assert len(coordinator.hot_paths()) > 4 * scoring.KEPT_DEPTH * 10
            ranked.clear()
            kept = sorted(view._standing[0]._kept, reverse=True)
            for _count, _score, negated_id in kept[: len(kept) - 9]:
                coordinator.index.delete(-negated_id)
            for _ in range(2):
                coordinator.top_k(10)
            assert ranked == [scoring.KEPT_DEPTH * 10]

            answers_as_the_oracle(coordinator)
            ranked.clear()
            # A deleted chain's neighbours may weld anew, with keys above the
            # floor: delete the best kept chain, stitch, and repeat.
            kept = stitcher._standing[0]._kept
            while len(kept) >= 10:
                _hotness, _score, negated_head = max(kept)
                for path_id in stitcher._chains[-negated_head]:
                    coordinator.index.delete(path_id)
                coordinator.shard_statistics()  # stitches, ranks nothing
                kept = stitcher._standing[0]._kept
            assert ranked == []
            for _ in range(2):
                coordinator.top_k_corridors(10)
            assert ranked == [scoring.KEPT_DEPTH * 10]
            answers_as_the_oracle(coordinator)
        finally:
            coordinator.close()

    def test_a_net_zero_epoch_makes_no_stitch(self):
        """The stitcher's counters count stitches, and an epoch whose
        decays and touches all cancel hands it nothing, so it makes none."""
        coordinator = differential.make_coordinator(window=25)
        try:
            epochs = self.epochs(coordinator)
            for epoch, _outcome in epochs:
                coordinator.shard_statistics()
                if epoch == 6:
                    break
            stitcher = coordinator._view.stitcher.totals
            before = {key: coordinator.shard_statistics()[key] for key in stitcher}
            counts = self.hot_state(coordinator)
            _epoch, outcome = next(epochs)  # epoch 7
            assert self.dirty(outcome) and self.hot_state(coordinator) == counts
            assert {key: coordinator.shard_statistics()[key] for key in stitcher} == before
            assert repr(coordinator.hot_corridors()) == repr(stitch_paths(coordinator.hot_paths()))
        finally:
            coordinator.close()


def _vertices(paths):
    """The distinct ``(x, y)`` vertices of ``paths``, as the stitcher keys them."""
    return {(point.x, point.y) for path in paths for point in (path.start, path.end)}


class TestPathQueriesNeverStitch:
    """The stitcher runs only on a corridor, report or statistics read, and
    the changes it has not seen yet stay bounded: exact counts, no clock."""

    @staticmethod
    def _count(monkeypatch, owner, name, counts, counter):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            counts[counter] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def test_a_path_query_never_stitches(self, monkeypatch):
        k = 10
        coordinator = differential.make_coordinator(window=120)
        stitcher = coordinator._view.stitcher
        counts = {"corridors": 0}
        try:
            epochs = differential.feedback_epochs(coordinator, 5, epochs=12, objects=14)
            for _ in range(11):
                next(epochs)
                coordinator.top_k_corridors(k)
            before = {record.path_id: record for record, _hot in coordinator.hot_paths()}
            next(epochs)
            after = {record.path_id: record for record, _hot in coordinator.hot_paths()}
            self._count(monkeypatch, CompositeCorridor, "__init__", counts, "corridors")
            decided = stitcher.weld_decisions
            coordinator.top_k(k)
            assert counts == {"corridors": 0} and stitcher.weld_decisions == decided
            coordinator.top_k_corridors(k)
            decided = stitcher.weld_decisions - decided
        finally:
            coordinator.close()
        moved = [before[i] for i in before.keys() - after.keys()]
        moved += [after[i] for i in after.keys() - before.keys()]
        assert moved, "no id entered or left the hot set"
        # At most one weld decision per distinct vertex of the ids that entered or left.
        assert 0 < decided <= len(_vertices(moved))
        assert counts["corridors"] <= k

    def test_pending_changes_stay_bounded_and_exact(self):
        k = 10
        coordinator = differential.make_coordinator(window=120)
        view = coordinator._view
        try:
            epochs = differential.feedback_epochs(coordinator, 7, epochs=220, objects=14)
            for _ in range(20):
                next(epochs)
            coordinator.top_k_corridors(k)  # the stitcher holds the hot set of epoch 20
            held = len(coordinator.hot_paths())
            for _outcome in epochs:  # 200 epochs of path-only queries
                coordinator.top_k(k)
                assert len(view._pending) <= len(coordinator.hot_paths()) + held
            hot = coordinator.hot_paths()
            reference = stitch_paths(hot)
            for by_score in (False, True):
                assert repr(coordinator.top_k_corridors(k, by_score)) == repr(
                    select_top_k_corridors(reference, k, by_score)
                )
            assert repr(coordinator.hot_corridors()) == repr(reference)
        finally:
            coordinator.close()

    def test_statistics_count_the_pending_changes(self):
        coordinator = differential.make_coordinator(window=120)
        try:
            for epoch, _outcome in enumerate(
                differential.feedback_epochs(coordinator, 9, epochs=30, objects=14)
            ):
                coordinator.top_k(10)
                if epoch == 10:
                    coordinator.top_k_corridors(10)  # the last stitch before the read
            statistics = coordinator.shard_statistics()
            assert coordinator._view._pending == {}
            # Every hot path was handed to the stitcher, and every one gone was taken back.
            added, removed = statistics["fragments_added"], statistics["fragments_removed"]
            assert added > removed > 0
            assert added - removed == len(coordinator.hot_paths())
        finally:
            coordinator.close()
