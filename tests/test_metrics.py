"""Unit tests for :mod:`repro.simulation.metrics`."""

from __future__ import annotations

import pytest

from repro.simulation.metrics import CommunicationStats, EpochMetrics, MetricsCollector


def epoch(timestamp: int, index_size: int = 5, score: float = 10.0, **overrides) -> EpochMetrics:
    defaults = dict(
        timestamp=timestamp,
        index_size=index_size,
        top_k_score=score,
        processing_seconds=0.01,
        states_processed=3,
        paths_inserted=2,
        paths_reused=1,
        paths_expired=0,
    )
    defaults.update(overrides)
    return EpochMetrics(**defaults)


class TestCommunicationStats:
    def test_record_accumulates(self):
        stats = CommunicationStats()
        stats.record(10)
        stats.record(30)
        assert stats.messages == 2
        assert stats.bytes == 40


class TestMetricsCollector:
    def test_empty_collector_defaults(self):
        collector = MetricsCollector()
        assert collector.mean_index_size == 0.0
        assert collector.final_index_size == 0
        assert collector.mean_top_k_score == 0.0
        assert collector.mean_processing_seconds == 0.0
        assert collector.message_reduction_versus_naive() == 0.0

    def test_mean_index_size(self):
        collector = MetricsCollector()
        collector.record_epoch(epoch(10, index_size=4))
        collector.record_epoch(epoch(20, index_size=8))
        assert collector.mean_index_size == 6.0
        assert collector.final_index_size == 8

    def test_mean_top_k_score(self):
        collector = MetricsCollector()
        collector.record_epoch(epoch(10, score=10.0))
        collector.record_epoch(epoch(20, score=30.0))
        assert collector.mean_top_k_score == 20.0

    def test_dp_means_skip_missing_values(self):
        collector = MetricsCollector()
        collector.record_epoch(epoch(10, dp_index_size=10, dp_top_k_score=5.0))
        collector.record_epoch(epoch(20))
        assert collector.mean_dp_index_size == 10.0
        assert collector.mean_dp_top_k_score == 5.0

    def test_totals(self):
        collector = MetricsCollector()
        collector.record_epoch(epoch(10))
        collector.record_epoch(epoch(20))
        assert collector.total_states_processed == 6
        assert collector.total_paths_inserted == 4
        assert collector.total_paths_reused == 2

    def test_message_reduction(self):
        collector = MetricsCollector()
        for _ in range(10):
            collector.uplink.record(36)
        for _ in range(100):
            collector.naive_uplink.record(16)
        assert collector.message_reduction_versus_naive() == pytest.approx(0.9)

    def test_as_dict_keys(self):
        collector = MetricsCollector()
        collector.record_epoch(epoch(10))
        summary = collector.as_dict()
        for key in (
            "epochs",
            "mean_index_size",
            "mean_top_k_score",
            "mean_processing_seconds",
            "uplink_messages",
            "naive_uplink_messages",
            "message_reduction_versus_naive",
        ):
            assert key in summary
        assert summary["epochs"] == 1
