"""Tests for the trajectory replay driver."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.core.trajectory import TimePoint
from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.extensions.feedback import FeedbackCoordinator
from repro.simulation.replay import TrajectoryReplayDriver
from repro.workload.scenarios import waypoint_corridor_trajectories

from test_simulation import rows_digest, top_k_rows


BOUNDS = Rectangle(Point(-5000.0, -5000.0), Point(5000.0, 5000.0))
L_CORRIDOR = [Point(0.0, 0.0), Point(600.0, 0.0), Point(600.0, 600.0)]


def make_coordinator(feedback: bool = False):
    config = CoordinatorConfig(bounds=BOUNDS, window=1000, cells_per_axis=32)
    return FeedbackCoordinator(config) if feedback else Coordinator(config)


class TestValidation:
    def test_invalid_epoch_length(self):
        with pytest.raises(ConfigurationError):
            TrajectoryReplayDriver(make_coordinator(), RayTraceConfig(10.0), epoch_length=0)

    def test_feedback_requires_feedback_coordinator(self):
        with pytest.raises(ConfigurationError):
            TrajectoryReplayDriver(
                make_coordinator(feedback=False), RayTraceConfig(10.0), use_feedback=True
            )

    def test_empty_streams_rejected(self):
        driver = TrajectoryReplayDriver(make_coordinator(), RayTraceConfig(10.0))
        with pytest.raises(ConfigurationError):
            driver.replay({})


class TestReplay:
    def _trajectories(self, **overrides):
        defaults = dict(num_objects=6, duration=60, lateral_spread=2.0, seed=1)
        defaults.update(overrides)
        return waypoint_corridor_trajectories(L_CORRIDOR, **defaults)

    def test_replay_produces_hot_paths(self):
        coordinator = make_coordinator()
        driver = TrajectoryReplayDriver(coordinator, RayTraceConfig(10.0), epoch_length=5)
        stats = driver.replay(self._trajectories())
        assert stats.objects == 6
        assert stats.measurements == 6 * 60
        assert stats.uplink.messages > 0
        assert stats.downlink.messages > 0
        assert coordinator.top_k(3)[0].hotness >= 4

    def test_statistics_consistency(self):
        coordinator = make_coordinator()
        driver = TrajectoryReplayDriver(coordinator, RayTraceConfig(10.0), epoch_length=5)
        stats = driver.replay(self._trajectories())
        # Every response answers a previously submitted state.
        assert stats.downlink.messages <= stats.uplink.messages
        assert stats.epochs > 0

    def test_replay_accepts_plain_measurement_lists(self):
        trajectories = self._trajectories(num_objects=2)
        streams = {oid: list(trajectory) for oid, trajectory in trajectories.items()}
        coordinator = make_coordinator()
        driver = TrajectoryReplayDriver(coordinator, RayTraceConfig(10.0), epoch_length=5)
        stats = driver.replay(streams)
        assert stats.objects == 2


def record_protocol(coordinator):
    """Wrap ``coordinator`` so that it logs ``(state, commit epoch)`` for every
    submitted state and the boundary of every epoch it runs."""
    submitted, boundaries = [], []
    submit, run_epoch = coordinator.submit_state, coordinator.run_epoch

    def recording_submit(state):
        submitted.append((state, len(boundaries)))
        submit(state)

    def recording_epoch(now):
        boundaries.append(now)
        return run_epoch(now)

    coordinator.submit_state, coordinator.run_epoch = recording_submit, recording_epoch
    return submitted, boundaries


def replay_by_hand(coordinator, streams, epoch_length):
    """The on-line protocol, timestamp by timestamp: an object's filter sees
    the measurement taken at the current timestamp, when there is one."""
    taken = {object_id: {m.timestamp: m for m in stream} for object_id, stream in streams.items()}
    start = min(min(times) for times in taken.values())
    end = max(max(times) for times in taken.values())
    filters = {}
    for now in range(start, end + 1):
        for object_id, measurements in taken.items():
            measurement = measurements.get(now)
            if measurement is None:
                continue
            if object_id not in filters:
                filters[object_id] = RayTraceFilter(object_id, measurement, RayTraceConfig(10.0))
                continue
            state = filters[object_id].observe(measurement)
            if state is not None:
                coordinator.submit_state(state)
        if now % epoch_length == 0 and now > start:
            for response in coordinator.run_epoch(now).responses:
                if filters[response.object_id].waiting:
                    follow_up = filters[response.object_id].receive_response(response)
                    if follow_up is not None:
                        coordinator.submit_state(follow_up)
    for filt in filters.values():
        if not filt.waiting and filt.fsa_timestamp > filt.ssa_start.timestamp:
            coordinator.submit_state(filt.current_state())
    coordinator.run_epoch(end + 1)


class TestGappedReplay:
    """A stream may skip timestamps: each measurement arrives at its own one."""

    def _streams(self):
        trajectories = waypoint_corridor_trajectories(
            L_CORRIDOR, num_objects=3, duration=31, lateral_spread=2.0, seed=1
        )
        streams = {object_id: list(trajectory) for object_id, trajectory in trajectories.items()}
        # Object 0's log has a hole: it was sampled at t = 0-4 and 20-30 only.
        streams[0] = [m for m in streams[0] if not 5 <= m.timestamp < 20]
        return streams

    def test_every_state_is_committed_at_or_after_its_end(self):
        coordinator = make_coordinator()
        submitted, boundaries = record_protocol(coordinator)
        TrajectoryReplayDriver(coordinator, RayTraceConfig(10.0), epoch_length=5).replay(
            self._streams()
        )
        assert any(state.object_id == 0 and state.t_end >= 20 for state, _epoch in submitted)
        for state, epoch in submitted:
            assert state.t_end <= boundaries[epoch], (state, boundaries[epoch])

    def test_a_gapped_replay_equals_the_hand_driven_protocol(self):
        replayed, by_hand = make_coordinator(), make_coordinator()
        replayed_log, by_hand_log = record_protocol(replayed), record_protocol(by_hand)
        TrajectoryReplayDriver(replayed, RayTraceConfig(10.0), epoch_length=5).replay(
            self._streams()
        )
        replay_by_hand(by_hand, self._streams(), epoch_length=5)
        assert repr(replayed_log) == repr(by_hand_log)
        assert repr(replayed.hot_paths()) == repr(by_hand.hot_paths())

    @pytest.mark.parametrize("timestamps", [(0, 1, 1), (0, 2, 1)])
    def test_a_sequence_whose_timestamps_do_not_increase_is_rejected(self, timestamps):
        stream = [TimePoint(Point(float(t), 0.0), t) for t in timestamps]
        driver = TrajectoryReplayDriver(make_coordinator(), RayTraceConfig(10.0))
        with pytest.raises(ConfigurationError):
            driver.replay({0: stream})


class TestFeedbackReplay:
    def test_feedback_replay_runs_and_reports_snaps(self):
        trajectories = waypoint_corridor_trajectories(
            L_CORRIDOR, num_objects=8, duration=60, lateral_spread=2.0, start_stagger=6, seed=2
        )
        base_coordinator = make_coordinator()
        TrajectoryReplayDriver(base_coordinator, RayTraceConfig(10.0), epoch_length=5).replay(
            trajectories
        )
        feedback_coordinator = make_coordinator(feedback=True)
        driver = TrajectoryReplayDriver(
            feedback_coordinator, RayTraceConfig(10.0), epoch_length=5, use_feedback=True
        )
        stats = driver.replay(trajectories)
        assert stats.snapped_reports >= 0
        # Feedback must not fragment the index: it stores no more paths than
        # the base protocol on the same input and stays equally hot at the top.
        assert feedback_coordinator.index_size() <= base_coordinator.index_size() + 2
        assert feedback_coordinator.top_k(1)[0].hotness >= base_coordinator.top_k(1)[0].hotness - 1


Z_CORRIDOR = L_CORRIDOR + [Point(0.0, 600.0), Point(0.0, 1200.0)]

# Recorded at the commit before the RayTrace filter moved from Point/Rectangle
# objects to scalars: ``(seed, use_feedback) -> replay``; both seeds snap
# reports under feedback.  Every number is an equality.
REPLAYS_AT_OBJECT_GEOMETRY_FILTER = {(4, False): {'uplink': (36, 1296),
              'downlink': (28, 448),
              'epochs': 21,
              'snapped_reports': 0,
              'index_size': 20,
              'top_k_score': 1367.9635145655768,
              'hottest': (19,
                          8,
                          (9.113683884373575, 598.4126641369229),
                          (-5.964424234051892, 1198.8748426533523)),
              'top_k_digest': '88ea3895e4c92d88'},
 (4, True): {'uplink': (36, 1296),
             'downlink': (28, 1144),
             'epochs': 21,
             'snapped_reports': 2,
             'index_size': 20,
             'top_k_score': 1367.9635145655768,
             'hottest': (19,
                         8,
                         (9.113683884373575, 598.4126641369229),
                         (-5.964424234051892, 1198.8748426533523)),
             'top_k_digest': '88ea3895e4c92d88'},
 (7, False): {'uplink': (36, 1296),
              'downlink': (28, 448),
              'epochs': 21,
              'snapped_reports': 0,
              'index_size': 21,
              'top_k_score': 1250.4972064418068,
              'hottest': (19,
                          7,
                          (9.464822584756487, 598.603396695698),
                          (-9.211921403974488, 1196.4165753015182)),
              'top_k_digest': '0b970491ddbb8716'},
 (7, True): {'uplink': (36, 1296),
             'downlink': (28, 1144),
             'epochs': 21,
             'snapped_reports': 3,
             'index_size': 21,
             'top_k_score': 1250.4972064418068,
             'hottest': (19,
                         7,
                         (9.464822584756487, 598.603396695698),
                         (-9.211921403974488, 1196.4165753015182)),
             'top_k_digest': '0b970491ddbb8716'}}


class TestClientTierIdentity:
    @pytest.mark.parametrize("seed, use_feedback", sorted(REPLAYS_AT_OBJECT_GEOMETRY_FILTER))
    def test_replay_equals_recorded_parent_replay(self, seed, use_feedback):
        trajectories = waypoint_corridor_trajectories(
            Z_CORRIDOR, num_objects=8, duration=60, lateral_spread=2.0, start_stagger=6, seed=seed
        )
        coordinator = make_coordinator(feedback=use_feedback)
        stats = TrajectoryReplayDriver(
            coordinator, RayTraceConfig(10.0), epoch_length=5, use_feedback=use_feedback
        ).replay(trajectories)
        rows = top_k_rows(coordinator.top_k(10))
        assert {
            "uplink": (stats.uplink.messages, stats.uplink.bytes),
            "downlink": (stats.downlink.messages, stats.downlink.bytes),
            "epochs": stats.epochs,
            "snapped_reports": stats.snapped_reports,
            "index_size": coordinator.index_size(),
            "top_k_score": coordinator.top_k_score(10),
            "hottest": rows[0],
            "top_k_digest": rows_digest(rows),
        } == REPLAYS_AT_OBJECT_GEOMETRY_FILTER[seed, use_feedback]
