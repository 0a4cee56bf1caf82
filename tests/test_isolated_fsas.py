"""Work the overlap stage and the decision loop skip, as exact counts.

Two facts of the epoch pipeline, each pinned by what it no longer does:

* **isolated FSAs skip the pool stage** — an FSA that overlaps no other one
  is recorded as a singleton box: no ``FsaOverlapStructure.build``, no pool,
  no pool-cache entry and no process-backend message, while the merged
  structure stays ``repr``-equal to the sequential build (the exactness
  harness's ``signed_zero_singleton`` scenario pins that a signed-zero
  singleton never comes back from the cache with the other sign);
* **decisions probe the epoch's inserts** — a Case 2/3 decision reads the
  paths inserted earlier in the epoch from the live end table (a lone FSA)
  or through :class:`InsertedEnds` (any other), not a ``contains_point``
  rescan of all of them.  :class:`TestInsertedEndsProbe` holds the probe to
  that linear scan with hypothesis.

Counts, not clocks: they repeat exactly run to run.
"""

from __future__ import annotations

from collections import Counter
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.client.state import ObjectState
from repro.coordinator.columnar import HAVE_NUMPY
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.execution import ProcessBackend
from repro.coordinator.overlaps import (
    FsaOverlapStructure,
    OverlapPoolCache,
    build_structures,
    plan_shard_overlaps,
)
from repro.coordinator.single_path import InsertedEnds, SinglePathStrategy

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))
N = 24


def disjoint_reporters(n: int = N, t_end: int = 10) -> List[ObjectState]:
    """``n`` reporters on a 6-wide lattice: pairwise-disjoint FSAs, distinct
    starts, nothing contains another's centroid."""
    states = []
    for object_id in range(n):
        x, y = 80.0 + 150.0 * (object_id % 6), 80.0 + 150.0 * (object_id // 6)
        low, high = Point(x - 20.0, y - 20.0), Point(x + 20.0, y + 20.0)
        states.append(ObjectState(object_id, Point(x - 50.0, y - 50.0), t_end - 5, low, high, t_end))
    return states


def make(num_shards: int, backend: str = "serial", epoch_mode: str = "delta") -> Coordinator:
    return Coordinator(
        CoordinatorConfig(
            bounds=BOUNDS,
            window=40,
            cells_per_axis=32,
            num_shards=num_shards,
            backend=backend,
            kernel="columnar",
            epoch_mode=epoch_mode,
        )
    )


def count_builds(monkeypatch) -> Counter:
    calls: Counter = Counter()
    build = FsaOverlapStructure.build.__func__

    def counted(cls, *args, **kwargs):
        calls["build"] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(FsaOverlapStructure, "build", classmethod(counted))
    return calls


class TestIsolatedFsasSkipThePoolStage:
    @pytest.mark.parametrize("kernel", ("object", "columnar"))
    def test_disjoint_epoch_plans_no_pool_and_builds_nothing(self, kernel, monkeypatch):
        fsas = {state.object_id: state.fsa for state in disjoint_reporters()}
        reference = repr(FsaOverlapStructure.build(fsas).serialized())
        calls = count_builds(monkeypatch)
        cache = OverlapPoolCache()
        plan = plan_shard_overlaps(kernel, cache, fsas)
        assert plan.pools == [] and plan.missed_pools == []
        assert list(plan.singletons) == list(fsas)
        plan.complete(build_structures(plan.missed_pools))
        merged = plan.merged()
        assert calls["build"] == 0
        assert len(cache) == 0
        assert plan.stats["pools_total"] == 0
        assert repr(merged.serialized()) == reference

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_a_disjoint_epoch_adds_no_cache_entry_on_any_fleet(self, num_shards, monkeypatch):
        calls = count_builds(monkeypatch)
        coordinator = make(num_shards)
        try:
            for state in disjoint_reporters():
                coordinator.submit_state(state)
            delta = coordinator.run_epoch(10).delta
            assert len(coordinator._pool_cache) == 0
            assert calls["build"] == 0
            assert delta.pools_total == 0
            assert coordinator.shard_statistics()["pools_total"] == 0
        finally:
            coordinator.close()

    @pytest.mark.skipif(not HAVE_NUMPY, reason="the columnar kernel needs numpy")
    def test_a_process_backend_sends_no_message(self, monkeypatch):
        sent: List[tuple] = []
        send = ProcessBackend._send

        def recorded(backend, worker, message):
            sent.append(message)
            return send(backend, worker, message)

        monkeypatch.setattr(ProcessBackend, "_send", recorded)
        coordinator = make(4, backend="processes")
        backend = coordinator.strategy.backend
        try:
            for epoch in (1, 2):
                for state in disjoint_reporters(t_end=10 * epoch):
                    coordinator.submit_state(state)
                coordinator.run_epoch(10 * epoch)
            assert sent == []
            assert backend.worker_count == 0  # never forked: nothing to build
            assert backend.shm_shipments == 0
        finally:
            coordinator.close()


class TestDecisionsProbeTheirInserts:
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_disjoint_case3_reporters_make_no_containment_test(self, num_shards, monkeypatch):
        """The linear rescan made ``N(N-1)/2`` ``contains_point`` calls here
        (every decision against every earlier insert).  Every FSA is lone,
        so each decision bisects the live end table instead, with no
        ``contains_point`` call at all."""
        calls = Counter()
        contains_point = Rectangle.contains_point
        decide = SinglePathStrategy.decide
        deciding = []

        def counted_contains(self, point):
            if deciding:
                calls["contains_point"] += 1
            return contains_point(self, point)

        def counted_decide(strategy, state, fsa, *args, **kwargs):
            deciding.append(True)
            try:
                response, path_id = decide(strategy, state, fsa, *args, **kwargs)
            finally:
                deciding.pop()
            # Nothing is indexed inside a lattice FSA but its own insert, so an
            # endpoint at its centre is the fabricated vertex.
            calls["fabricated"] += response.endpoint == fsa.center and path_id is not None
            return response, path_id

        monkeypatch.setattr(Rectangle, "contains_point", counted_contains)
        monkeypatch.setattr(SinglePathStrategy, "decide", counted_decide)
        coordinator = make(num_shards)
        try:
            for state in disjoint_reporters():
                coordinator.submit_state(state)
            outcome = coordinator.run_epoch(10)
        finally:
            coordinator.close()
        assert outcome.paths_inserted == N and calls["fabricated"] == N  # all Case 3
        assert calls["contains_point"] == 0


# Coordinates collide on purpose: repeated x values, ends on an FSA's edge,
# zero-width FSAs, and ``-0.0`` next to ``0.0`` (equal, printed apart).
coordinate = st.sampled_from([-0.0, 0.0, 1.0, 2.5, 3.0, 3.0000000000000004, 4.0, 7.0])


@st.composite
def probe_rectangles(draw) -> Rectangle:
    x_low, x_high = sorted((draw(coordinate), draw(coordinate)))
    y_low, y_high = sorted((draw(coordinate), draw(coordinate)))
    return Rectangle(Point(x_low, y_low), Point(x_high, y_high))


ends = st.lists(st.builds(Point, coordinate, coordinate), max_size=30)


def records_to(points) -> List[MotionPathRecord]:
    start = Point(100.0, 100.0)
    return [MotionPathRecord(path_id, MotionPath(start, end), 0) for path_id, end in enumerate(points)]


def linear_scan(records, fsa):
    return [record for record in records if fsa.contains_point(record.path.end)]


def hits(records):
    return sorted((repr(record.path.end.as_tuple()), record.path_id) for record in records)


class TestInsertedEndsProbe:
    @settings(max_examples=300, deadline=None)
    @given(points=ends, fsas=st.lists(probe_rectangles(), min_size=1, max_size=6))
    def test_probe_equals_a_linear_contains_point_scan(self, points, fsas):
        records = records_to(points)
        probe = InsertedEnds()
        for count, record in enumerate(records, start=1):
            probe.add(record)
            for fsa in fsas:
                assert hits(probe.within(fsa)) == hits(linear_scan(records[:count], fsa))
        assert sorted(record.path_id for record in probe) == list(range(len(records)))

    @settings(max_examples=200, deadline=None)
    @given(points=ends, fsa=probe_rectangles())
    def test_equal_ends_are_met_in_insertion_order(self, points, fsa):
        """Among ends that compare equal (``0.0`` / ``-0.0``), the earliest
        insert comes first — the one a linear scan makes the vertex key."""
        records = records_to(points)
        probe = InsertedEnds()
        for record in records:
            probe.add(record)
        first_seen = {}
        for record in probe.within(fsa):
            first_seen.setdefault(record.path.end, record.path_id)
        expected = {}
        for record in linear_scan(records, fsa):
            expected.setdefault(record.path.end, record.path_id)
        assert first_seen == expected
