"""Epoch batcher: dedupe, backpressure and canonical ordering for serving.

The coordinator's epoch pipeline is deterministic in *submission order* —
the same states submitted in the same order produce bit-for-bit the same
state.  A served front door breaks that for free: many concurrent clients
race their batches onto the socket, so arrival order is an accident of the
network.  :class:`EpochBatcher` restores determinism with three rules:

1. **Dedupe** — a batch is identified by ``(client_id, seq)``; redelivering
   an already-accepted batch (client retry after a lost ack, duplicated
   frame) is acknowledged idempotently and submitted exactly once.
2. **Backpressure** — the pending-update queue is bounded
   (``max_pending_updates``); a batch that would overflow it is *rejected
   whole* — never truncated, never silently dropped — and the client
   retries after the next epoch commit drains the queue.
3. **Canonical epoch order** — at the epoch boundary, the epoch's accepted
   batches are sorted by ``(client_id, seq)`` (stable, so intra-batch
   update order is preserved) before submission.  Any arrival interleaving
   of the same accepted batches therefore produces the same submission
   order, the property the hypothesis suite pins and the reason a served
   fleet under concurrent load stays bit-for-bit equal to a seed
   coordinator replaying the accepted log.

Everything the batcher holds is live state — O(clients + pending
batches), independent of how much traffic the process has served:

* **Dedupe memory** is :class:`SeqRuns` per client: the accepted seqs as
  sorted disjoint runs ``[lo, hi]``.  A client that numbers its batches
  contiguously holds one run; each permanent gap (a batch the client never
  delivered) costs one more.  A seq that would open a run past
  :data:`MAX_SEQ_RUNS` is rejected whole with ``"too many seq gaps"`` and
  counted in ``rejected_batches``; a seq that fills a gap always merges.
* **Ingest latency** (arrival to epoch commit, per update) is a fixed-size
  :class:`LatencyHistogram`; its p50/p99 are within
  :data:`LATENCY_RELATIVE_ERROR` (about 1.1 %) of the exact quantile.
* **The accepted log** — per epoch, the boundary timestamp and the
  canonically-ordered update rows, the serving equivalence contract's
  replay input — is kept only when an in-process caller passes a list as
  ``log``.  A plain ``repro serve`` keeps none.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.client.state import ObjectState
from repro.serving.protocol import encode_update

__all__ = [
    "BatchDecision",
    "EpochBatcher",
    "LatencyHistogram",
    "SeqRuns",
    "canonical_order",
]


#: One pending batch: (client_id, seq, arrival_time, states).
PendingBatch = Tuple[int, int, float, Tuple[ObjectState, ...]]

#: Per client, the most disjoint runs of accepted seqs held at once.
MAX_SEQ_RUNS = 1024

#: The latency histogram's range: its first bucket is ``[0, floor)``, then
#: ``BUCKETS_PER_OCTAVE`` log-spaced buckets per doubling, ``LATENCY_OCTAVES``
#: doublings in all (1 µs to about 72 minutes; longer latencies saturate).
LATENCY_FLOOR_S = 1e-6
BUCKETS_PER_OCTAVE = 32
LATENCY_OCTAVES = 32

#: A quantile reported from a bucket at or above the floor is the bucket's
#: geometric midpoint, so it is within this relative error of the exact
#: sample: ``2 ** (1 / (2 * BUCKETS_PER_OCTAVE)) - 1``, about 1.09 %.
LATENCY_RELATIVE_ERROR = 2.0 ** (1.0 / (2 * BUCKETS_PER_OCTAVE)) - 1.0


@dataclass(frozen=True)
class BatchDecision:
    """Outcome of offering one batch to the batcher."""

    accepted: bool
    count: int = 0
    duplicate: bool = False
    reason: Optional[str] = None

    def as_payload(self) -> Dict[str, Any]:
        """The response fields the server merges into its ack."""
        payload: Dict[str, Any] = {"ok": self.accepted, "accepted": self.count}
        if self.duplicate:
            payload["duplicate"] = True
        if self.reason is not None:
            payload["error"] = self.reason
        return payload


class SeqRuns:
    """One client's accepted seqs as sorted disjoint runs ``[lows[i], highs[i]]``.

    Runs never touch: ``highs[i] + 1 < lows[i + 1]``, so membership is one
    bisect and a client numbering its batches contiguously holds one run.
    """

    __slots__ = ("lows", "highs")

    def __init__(self) -> None:
        self.lows: List[int] = []
        self.highs: List[int] = []

    def __contains__(self, seq: int) -> bool:
        run = bisect_right(self.lows, seq) - 1
        return run >= 0 and seq <= self.highs[run]

    def add(self, seq: int) -> bool:
        """Record a seq not yet held; False, recording nothing, when it would
        open a new run past :data:`MAX_SEQ_RUNS`."""
        below = bisect_right(self.lows, seq) - 1
        above = below + 1
        joins_below = below >= 0 and self.highs[below] == seq - 1
        joins_above = above < len(self.lows) and self.lows[above] == seq + 1
        if joins_below and joins_above:  # fills the gap between two runs
            self.highs[below] = self.highs[above]
            del self.lows[above], self.highs[above]
        elif joins_below:
            self.highs[below] = seq
        elif joins_above:
            self.lows[above] = seq
        elif len(self.lows) >= MAX_SEQ_RUNS:
            return False
        else:
            self.lows.insert(above, seq)
            self.highs.insert(above, seq)
        return True


class LatencyHistogram:
    """Latencies in seconds, counted in a fixed number of log-spaced buckets.

    Bucket 0 holds ``[0, LATENCY_FLOOR_S)`` (and reports 0.0); bucket
    ``i >= 1`` holds ``[floor * g ** (i - 1), floor * g ** i)`` with
    ``g = 2 ** (1 / BUCKETS_PER_OCTAVE)``, the last one also everything above.
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts = [0] * (1 + BUCKETS_PER_OCTAVE * LATENCY_OCTAVES)
        self.total = 0

    def add(self, seconds: float, count: int = 1) -> None:
        bucket = 0
        if seconds >= LATENCY_FLOOR_S:
            octaves = math.log2(seconds / LATENCY_FLOOR_S)
            bucket = min(len(self.counts) - 1, 1 + int(octaves * BUCKETS_PER_OCTAVE))
        self.counts[bucket] += count
        self.total += count

    def quantile(self, fraction: float) -> float:
        """The sample of rank ``min(n - 1, int(fraction * n))`` in sorted
        order, within :data:`LATENCY_RELATIVE_ERROR` (0.0 below the floor)."""
        rank = min(self.total - 1, int(fraction * self.total))
        seen = 0
        for bucket, count in enumerate(self.counts):
            seen += count
            if seen > rank:
                break
        if bucket == 0:
            return 0.0
        return LATENCY_FLOOR_S * 2.0 ** ((bucket - 0.5) / BUCKETS_PER_OCTAVE)


def canonical_order(batches: Sequence[PendingBatch]) -> List[ObjectState]:
    """Flatten an epoch's batches into canonical submission order.

    Sorted by ``(client_id, seq)`` — a batch is one client's atomic unit, so
    no two pending batches share the key — with each batch's internal update
    order preserved.  This is a pure function of the *set* of accepted
    batches: every arrival interleaving maps to the same output.
    """
    ordered: List[ObjectState] = []
    for _client, _seq, _arrival, states in sorted(
        batches, key=lambda batch: (batch[0], batch[1])
    ):
        ordered.extend(states)
    return ordered


class EpochBatcher:
    """Groups accepted client batches into :meth:`Coordinator.run_epoch` calls.

    ``log``, when given, receives one ``(now, [9-field update rows in
    submission order])`` entry per committed epoch and is kept as
    :attr:`accepted_log`; without it (``None``) no row outlives its commit.
    """

    def __init__(
        self,
        coordinator,
        max_pending_updates: int = 100_000,
        clock: Callable[[], float] = time.perf_counter,
        log: Optional[List[Tuple[int, List[List[Any]]]]] = None,
    ) -> None:
        if max_pending_updates < 1:
            raise ConfigurationError(
                f"max_pending_updates must be at least 1, got {max_pending_updates}"
            )
        self.coordinator = coordinator
        self.max_pending_updates = max_pending_updates
        self._clock = clock
        self._pending: List[PendingBatch] = []
        self._pending_updates = 0
        self._seq_runs: Dict[int, SeqRuns] = {}
        self._last_now: Optional[int] = None
        self.accepted_log = log
        #: Arrival→commit latency of every accepted update.
        self.ingest_histogram = LatencyHistogram()
        self.accepted_batches = 0
        self.duplicate_batches = 0
        self.rejected_batches = 0
        self.accepted_updates = 0
        self.epochs_committed = 0

    # -- intake -----------------------------------------------------------------

    @property
    def pending_updates(self) -> int:
        return self._pending_updates

    def offer(self, client_id: int, seq: int, states: Sequence[ObjectState]) -> BatchDecision:
        """Admit one client batch, or reject it whole.

        Dedupe precedes the capacity check: a retry of an already-accepted
        batch is acknowledged even when the queue is full, so a client whose
        ack was lost cannot get wedged behind backpressure.  A batch that
        fits is still rejected when its seq would open a run past
        :data:`MAX_SEQ_RUNS`.
        """
        runs = self._seq_runs.get(client_id)
        if runs is None:
            runs = self._seq_runs[client_id] = SeqRuns()
        elif seq in runs:
            self.duplicate_batches += 1
            return BatchDecision(accepted=True, count=0, duplicate=True)
        if self._pending_updates + len(states) > self.max_pending_updates:
            self.rejected_batches += 1
            return BatchDecision(accepted=False, reason="backpressure")
        if not runs.add(seq):
            self.rejected_batches += 1
            return BatchDecision(accepted=False, reason="too many seq gaps")
        self._pending.append((client_id, seq, self._clock(), tuple(states)))
        self._pending_updates += len(states)
        self.accepted_batches += 1
        self.accepted_updates += len(states)
        return BatchDecision(accepted=True, count=len(states))

    # -- epoch boundary ---------------------------------------------------------

    def close_epoch(self, now: int):
        """Commit the pending batches as one epoch at boundary ``now``.

        Returns the :class:`~repro.coordinator.coordinator.EpochOutcome`.
        Boundaries must be strictly increasing — the hotness event queue
        advances monotonically — so a stale tick is a protocol violation,
        not a silent no-op.
        """
        if self._last_now is not None and now <= self._last_now:
            raise CoordinatorError(
                f"epoch boundary {now} is not after the previous boundary {self._last_now}"
            )
        batches, self._pending = self._pending, []
        self._pending_updates = 0
        ordered = canonical_order(batches)
        for state in ordered:
            self.coordinator.submit_state(state)
        outcome = self.coordinator.run_epoch(now)
        committed = self._clock()
        # The histogram ignores order, so arrival order serves as well as canonical.
        for _client, _seq, arrival, states in batches:
            self.ingest_histogram.add(committed - arrival, len(states))
        if self.accepted_log is not None:
            self.accepted_log.append((now, [encode_update(state) for state in ordered]))
        self._last_now = now
        self.epochs_committed += 1
        return outcome

    # -- reporting --------------------------------------------------------------

    def latency_quantiles(self) -> Dict[str, float]:
        """p50/p99 ingest latency in milliseconds (zeros before any commit),
        each within :data:`LATENCY_RELATIVE_ERROR` of the exact quantile."""
        if not self.ingest_histogram.total:
            return {"p50_ms": 0.0, "p99_ms": 0.0}
        quantile = self.ingest_histogram.quantile
        return {"p50_ms": quantile(0.50) * 1000.0, "p99_ms": quantile(0.99) * 1000.0}

    def stats(self) -> Dict[str, Any]:
        counters = {
            "accepted_batches": self.accepted_batches,
            "duplicate_batches": self.duplicate_batches,
            "rejected_batches": self.rejected_batches,
            "accepted_updates": self.accepted_updates,
            "pending_updates": self._pending_updates,
            "epochs": self.epochs_committed,
        }
        counters.update(self.latency_quantiles())
        return counters
