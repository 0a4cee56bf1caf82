"""Per-epoch metrics and their aggregation (the quantities plotted in Section 6).

The evaluation reports, per epoch (averaged over the run):

* the size of the motion-path index (and of the DP baseline's segment store);
* the score of the top-k hottest motion paths (and segments);
* the coordinator processing time spent running SinglePath.

On top of those the reproduction also tracks communication volume — number of
messages and bytes in each direction — so the filtering benefit of RayTrace
versus the naive approach can be quantified (ablation A1 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["EpochMetrics", "CommunicationStats", "MetricsCollector"]


@dataclass
class CommunicationStats:
    """Message and byte counters for one direction of the protocol."""

    messages: int = 0
    bytes: int = 0

    def record(self, size_bytes: int) -> None:
        self.messages += 1
        self.bytes += size_bytes


@dataclass
class EpochMetrics:
    """Snapshot of the system at one epoch boundary."""

    timestamp: int
    index_size: int
    top_k_score: float
    processing_seconds: float
    states_processed: int
    paths_inserted: int
    paths_reused: int
    paths_expired: int
    dp_index_size: Optional[int] = None
    dp_top_k_score: Optional[float] = None
    naive_messages: Optional[int] = None


class MetricsCollector:
    """Accumulates per-epoch metrics and computes the run-level averages."""

    def __init__(self) -> None:
        self.epochs: List[EpochMetrics] = []
        self.uplink = CommunicationStats()
        self.downlink = CommunicationStats()
        self.naive_uplink = CommunicationStats()

    def record_epoch(self, metrics: EpochMetrics) -> None:
        self.epochs.append(metrics)

    # -- run-level aggregates ----------------------------------------------------

    def _mean(self, values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_index_size(self) -> float:
        """Average motion-path index size per epoch (Figure 7(a) / 8(a) series)."""
        return self._mean([m.index_size for m in self.epochs])

    @property
    def final_index_size(self) -> int:
        return self.epochs[-1].index_size if self.epochs else 0

    @property
    def mean_top_k_score(self) -> float:
        """Average top-k score per epoch (Figure 7(b) / 8(b) series)."""
        return self._mean([m.top_k_score for m in self.epochs])

    @property
    def mean_processing_seconds(self) -> float:
        """Average coordinator time per epoch (Figure 7(c) / 8(c) series)."""
        return self._mean([m.processing_seconds for m in self.epochs])

    @property
    def mean_dp_index_size(self) -> float:
        values = [m.dp_index_size for m in self.epochs if m.dp_index_size is not None]
        return self._mean(values)

    @property
    def mean_dp_top_k_score(self) -> float:
        values = [m.dp_top_k_score for m in self.epochs if m.dp_top_k_score is not None]
        return self._mean(values)

    @property
    def total_states_processed(self) -> int:
        return sum(m.states_processed for m in self.epochs)

    @property
    def total_paths_inserted(self) -> int:
        return sum(m.paths_inserted for m in self.epochs)

    @property
    def total_paths_reused(self) -> int:
        return sum(m.paths_reused for m in self.epochs)

    def message_reduction_versus_naive(self) -> float:
        """Fraction of uplink messages saved by RayTrace relative to naive reporting."""
        if self.naive_uplink.messages == 0:
            return 0.0
        return 1.0 - self.uplink.messages / self.naive_uplink.messages

    def as_dict(self) -> Dict[str, float]:
        """Flat summary convenient for CSV rows and benchmark reporting."""
        return {
            "epochs": len(self.epochs),
            "mean_index_size": self.mean_index_size,
            "final_index_size": self.final_index_size,
            "mean_top_k_score": self.mean_top_k_score,
            "mean_processing_seconds": self.mean_processing_seconds,
            "mean_dp_index_size": self.mean_dp_index_size,
            "mean_dp_top_k_score": self.mean_dp_top_k_score,
            "uplink_messages": self.uplink.messages,
            "uplink_bytes": self.uplink.bytes,
            "downlink_messages": self.downlink.messages,
            "downlink_bytes": self.downlink.bytes,
            "naive_uplink_messages": self.naive_uplink.messages,
            "message_reduction_versus_naive": self.message_reduction_versus_naive(),
            "total_states_processed": self.total_states_processed,
            "total_paths_inserted": self.total_paths_inserted,
            "total_paths_reused": self.total_paths_reused,
        }
