"""Property tests for :class:`EpochBatcher` — the serving determinism core.

Three properties carry the whole serving equivalence contract:

* **Interleaving independence** — any arrival permutation of the same
  accepted batches commits the same epoch, bit for bit.  This is why
  racing TCP clients cannot perturb the coordinator.
* **Backpressure never loses an accepted update** — rejection is all or
  nothing (a batch is never truncated), every rejected batch succeeds on
  retry after a commit drains the queue, and the union of committed
  updates equals exactly the accepted offers.
* **Duplicate idempotence** — redelivering any accepted ``(client, seq)``
  any number of times, in any position, changes nothing.

Two more pin the bounded state behind those rules: run-length dedupe
answers exactly as a plain ``set`` of accepted seqs would (with the run cap
applied), and the latency histogram's p50/p99 stay within the stated
relative error of the exact quantile.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.serving import batcher as batcher_module
from repro.serving.batcher import (
    LATENCY_FLOOR_S,
    LATENCY_RELATIVE_ERROR,
    EpochBatcher,
    LatencyHistogram,
    canonical_order,
)
from repro.serving.protocol import coordinator_snapshot

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


def make_coordinator() -> Coordinator:
    return Coordinator(
        CoordinatorConfig(bounds=BOUNDS, window=60, cells_per_axis=16)
    )


def make_states(client: int, seq: int, size: int) -> tuple:
    """A deterministic batch payload — a pure function of (client, seq)."""
    rng = random.Random(client * 7919 + seq)
    states = []
    for index in range(size):
        start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        fsa = Rectangle.from_center(
            Point(start.x + rng.uniform(-150.0, 150.0), start.y + rng.uniform(-150.0, 150.0)),
            rng.uniform(5.0, 120.0),
        )
        t_end = 10 - rng.randrange(10)
        states.append(
            ObjectState(
                client * 100 + rng.randrange(6),
                start,
                max(0, t_end - 5),
                fsa.low,
                fsa.high,
                t_end,
            )
        )
    return tuple(states)


#: A set of batches: distinct (client, seq) keys with small payload sizes.
batch_sets = st.dictionaries(
    keys=st.tuples(st.integers(0, 3), st.integers(0, 5)),
    values=st.integers(1, 4),
    min_size=1,
    max_size=8,
).map(
    lambda sizes: [
        (client, seq, make_states(client, seq, size))
        for (client, seq), size in sizes.items()
    ]
)


class TestInterleavingIndependence:
    @given(batches=batch_sets, order_seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_any_arrival_order_commits_the_same_epoch(self, batches, order_seed):
        shuffled = list(batches)
        random.Random(order_seed).shuffle(shuffled)

        snapshots = []
        logs = []
        for arrival in (batches, shuffled):
            coordinator = make_coordinator()
            try:
                batcher = EpochBatcher(coordinator, log=[])
                for client, seq, states in arrival:
                    assert batcher.offer(client, seq, states).accepted
                batcher.close_epoch(10)
                snapshots.append(coordinator_snapshot(coordinator))
                logs.append(batcher.accepted_log)
            finally:
                coordinator.close()

        assert snapshots[0] == snapshots[1]
        assert logs[0] == logs[1]

    @given(batches=batch_sets, order_seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_canonical_order_is_permutation_invariant(self, batches, order_seed):
        pending = [(c, s, 0.0, states) for c, s, states in batches]
        shuffled = list(pending)
        random.Random(order_seed).shuffle(shuffled)
        assert canonical_order(shuffled) == canonical_order(pending)


class TestBackpressure:
    @given(
        batches=batch_sets,
        capacity=st.integers(2, 10),
        order_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_accepted_update_is_ever_lost(self, batches, capacity, order_seed):
        arrival = list(batches)
        random.Random(order_seed).shuffle(arrival)

        coordinator = make_coordinator()
        try:
            batcher = EpochBatcher(coordinator, max_pending_updates=capacity, log=[])
            now = 10
            pending = list(arrival)
            committed_rows = []
            rejected_whole = 0
            while pending:
                retry = []
                for client, seq, states in pending:
                    decision = batcher.offer(client, seq, states)
                    if decision.accepted:
                        # All-or-nothing admission: never truncated.
                        assert decision.count == len(states)
                    else:
                        assert decision.reason == "backpressure"
                        rejected_whole += 1
                        retry.append((client, seq, states))
                batcher.close_epoch(now)
                committed_rows.extend(batcher.accepted_log[-1][1])
                now += 10
                # A commit drains the queue completely, so any batch that
                # fits the capacity at all must succeed on retry.
                pending = [b for b in retry if len(b[2]) <= capacity]

            committed = sorted(tuple(row) for row in committed_rows)
            offered = sorted(
                tuple(encoded)
                for client, seq, states in arrival
                if len(states) <= capacity
                for encoded in (state.as_tuple() for state in states)
            )
            assert committed == offered
            assert batcher.rejected_batches == rejected_whole
        finally:
            coordinator.close()


class TestDuplicateIdempotence:
    @given(
        batches=batch_sets,
        dup_seed=st.integers(0, 2**16),
        extra_copies=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_redelivery_changes_nothing(self, batches, dup_seed, extra_copies):
        rng = random.Random(dup_seed)

        reference = make_coordinator()
        noisy = make_coordinator()
        try:
            clean = EpochBatcher(reference, log=[])
            dirty = EpochBatcher(noisy, log=[])
            for client, seq, states in batches:
                assert clean.offer(client, seq, states).accepted
                assert dirty.offer(client, seq, states).accepted
                for _ in range(extra_copies if rng.random() < 0.5 else 0):
                    decision = dirty.offer(client, seq, states)
                    assert decision.accepted and decision.duplicate
                    assert decision.count == 0
            # Redeliver a random prefix once more, after everything.
            for client, seq, states in batches[: rng.randrange(len(batches) + 1)]:
                assert dirty.offer(client, seq, states).duplicate

            clean.close_epoch(10)
            dirty.close_epoch(10)
            assert dirty.accepted_log == clean.accepted_log
            assert coordinator_snapshot(noisy) == coordinator_snapshot(reference)
            assert dirty.accepted_updates == clean.accepted_updates
        finally:
            reference.close()
            noisy.close()


def runs_of(seqs) -> list:
    """The maximal runs ``[lo, hi]`` of a set of integers, in order."""
    runs = []
    for seq in sorted(seqs):
        if runs and runs[-1][1] == seq - 1:
            runs[-1][1] = seq
        else:
            runs.append([seq, seq])
    return runs


#: Seq streams: small ranges make duplicates, reorders and gaps common; the
#: shuffled contiguous ranges are what a reordering network delivers.
seq_streams = st.one_of(
    st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 30)), max_size=80),
    st.tuples(st.integers(1, 20), st.randoms(use_true_random=False)).map(
        lambda drawn: drawn[1].sample(
            [(client, seq) for client in (0, 1) for seq in range(drawn[0])] * 2,
            4 * drawn[0],
        )
    ),
)


class TestRunLengthDedupe:
    @given(stream=seq_streams, cap=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_runs_answer_as_a_set_of_accepted_seqs(self, stream, cap):
        model = {}
        with mock.patch.object(batcher_module, "MAX_SEQ_RUNS", cap):
            batcher = EpochBatcher(coordinator=None)
            for client, seq in stream:
                accepted = model.setdefault(client, set())
                decision = batcher.offer(client, seq, ())
                if seq in accepted:
                    assert decision.accepted and decision.duplicate
                elif len(runs_of(accepted | {seq})) > cap:
                    assert not decision.accepted and decision.reason == "too many seq gaps"
                else:
                    assert decision.accepted and not decision.duplicate
                    accepted.add(seq)
                runs = batcher._seq_runs[client]
                assert [list(run) for run in zip(runs.lows, runs.highs)] == runs_of(accepted)
        assert batcher.accepted_batches == sum(len(seqs) for seqs in model.values())

    def test_a_seq_that_fills_a_gap_merges_even_at_the_cap(self):
        with mock.patch.object(batcher_module, "MAX_SEQ_RUNS", 2):
            batcher = EpochBatcher(coordinator=None)
            for seq in (0, 2):
                assert batcher.offer(7, seq, ()).accepted
            refused = batcher.offer(7, 4, ())
            assert not refused.accepted and refused.reason == "too many seq gaps"
            assert batcher.rejected_batches == 1
            assert batcher.offer(7, 1, ()).accepted  # joins [0, 0] and [2, 2]
            assert batcher.offer(7, 4, ()).accepted  # a second run is free again
            runs = batcher._seq_runs[7]
            assert (runs.lows, runs.highs) == ([0, 4], [2, 4])


#: Latencies in seconds: exact zeros, sub-floor values and the measured range.
latencies = st.one_of(
    st.just(0.0),
    st.floats(0.0, LATENCY_FLOOR_S, exclude_max=True),
    st.floats(LATENCY_FLOOR_S, 1e3),
)


def assert_within_error(reported: float, exact: float) -> None:
    if exact < LATENCY_FLOOR_S:
        assert reported == 0.0
    else:
        assert abs(reported - exact) <= LATENCY_RELATIVE_ERROR * exact * (1 + 1e-9)


def nearest_rank(samples, fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class TestLatencyHistogram:
    @given(
        weighted=st.lists(st.tuples(latencies, st.integers(1, 5)), min_size=1, max_size=60)
    )
    @settings(max_examples=300, deadline=None)
    def test_quantiles_are_within_the_stated_error(self, weighted):
        histogram = LatencyHistogram()
        samples = []
        for seconds, count in weighted:
            histogram.add(seconds, count)
            samples.extend([seconds] * count)
        for fraction in (0.50, 0.99):
            assert_within_error(histogram.quantile(fraction), nearest_rank(samples, fraction))

    @given(seconds=latencies, count=st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_one_sample_and_all_equal_samples(self, seconds, count):
        for copies in (1, count):
            histogram = LatencyHistogram()
            histogram.add(seconds, copies)
            for fraction in (0.50, 0.99):
                assert_within_error(histogram.quantile(fraction), seconds)

    def test_zero_latency_reads_zero_through_the_batcher(self):
        coordinator = make_coordinator()
        try:
            batcher = EpochBatcher(coordinator, clock=lambda: 5.0)  # arrival == commit
            assert batcher.latency_quantiles() == {"p50_ms": 0.0, "p99_ms": 0.0}
            batcher.offer(0, 0, make_states(0, 0, 3))
            batcher.close_epoch(10)
            assert batcher.latency_quantiles() == {"p50_ms": 0.0, "p99_ms": 0.0}
            assert batcher.ingest_histogram.total == 3
        finally:
            coordinator.close()
