"""Tests for the trajectory replay driver."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point, Rectangle
from repro.client.raytrace import RayTraceConfig
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

    def test_unknown_filter_lookup(self):
        driver = TrajectoryReplayDriver(make_coordinator(), RayTraceConfig(10.0))
        with pytest.raises(ConfigurationError):
            driver.filter_for(3)


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

    def test_filters_available_after_replay(self):
        driver = TrajectoryReplayDriver(make_coordinator(), RayTraceConfig(10.0), epoch_length=5)
        driver.replay(self._trajectories(num_objects=3))
        for object_id in range(3):
            filt = driver.filter_for(object_id)
            assert filt.statistics.measurements_processed > 0

    def test_without_flush_trailing_motion_not_indexed(self):
        with_flush = make_coordinator()
        TrajectoryReplayDriver(with_flush, RayTraceConfig(10.0), epoch_length=5).replay(
            self._trajectories()
        )
        without_flush = make_coordinator()
        TrajectoryReplayDriver(
            without_flush, RayTraceConfig(10.0), epoch_length=5, flush_at_end=False
        ).replay(self._trajectories())
        assert without_flush.index_size() <= with_flush.index_size()

    def test_replay_accepts_plain_measurement_lists(self):
        trajectories = self._trajectories(num_objects=2)
        streams = {oid: list(trajectory) for oid, trajectory in trajectories.items()}
        coordinator = make_coordinator()
        driver = TrajectoryReplayDriver(coordinator, RayTraceConfig(10.0), epoch_length=5)
        stats = driver.replay(streams)
        assert stats.objects == 2


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
