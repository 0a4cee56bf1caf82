"""Work the overlap stage and the decision loop skip, as exact counts.

Three facts of the epoch pipeline, each pinned by what it no longer does:

* **isolated FSAs skip the pool stage** — an FSA that shares no point with
  any other one is lone: no ``FsaOverlapStructure.build``, no pool, no
  pool-cache entry and no process-backend message (the exactness harness's
  ``signed_zero_singleton`` scenario pins that a signed-zero singleton never
  comes back from the cache with the other sign);
* **isolated FSAs never tip the region cap** — the cap binds each component
  alone, so 9 999 lone FSAs leave a pool of two its own regions;
* **decisions probe the epoch's inserts** — a Case 2/3 decision reads the
  paths inserted earlier in the epoch from the live index (a lone FSA)
  or from the epoch's probe, an :class:`EndpointTable` of its inserts (any
  other), not a ``contains_point`` rescan of all of them.
  :class:`TestInsertProbe` holds the probe to that linear scan with
  hypothesis.

Counts, not clocks: they repeat exactly run to run.
"""

from __future__ import annotations

from collections import Counter
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.columnar import HAVE_NUMPY, EndpointTable
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.execution import ProcessBackend
from repro.coordinator.overlaps import (
    LONE,
    FsaOverlapStructure,
    OverlapPoolCache,
    build_structures,
    plan_shard_overlaps,
)
from repro.coordinator.single_path import SinglePathStrategy

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
    def test_disjoint_epoch_plans_no_pool_and_builds_nothing(self, monkeypatch):
        states = disjoint_reporters()
        calls = count_builds(monkeypatch)
        cache = OverlapPoolCache()
        plan = plan_shard_overlaps(
            cache, [state.object_id for state in states], [state.fsa for state in states]
        )
        assert plan.pools == [] and plan.missed_pools == []
        assert plan.components == [LONE] * len(states)
        plan.complete(build_structures(plan.missed_pools))
        assert plan.structures == []
        assert calls["build"] == 0
        assert len(cache) == 0
        assert plan.stats["pools_total"] == 0

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
            assert backend.shipments == 0
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


def cap_tipping_epoch() -> List[ObjectState]:
    """One epoch whose regions sum past the default cap of 10 000 while its
    one pool holds three regions: a state whose FSA is [100, 200]^2, 9 999
    isolated 3 x 3 FSAs on a 10-unit lattice from (1000, 1000), and a last
    state whose FSA [190, 230]^2 overlaps the first in [190, 200]^2."""
    states = [ObjectState(0, Point(120.0, 120.0), 5, Point(100.0, 100.0), Point(200.0, 200.0), 10)]
    for object_id in range(1, 10000):
        x = 1000.0 + 10.0 * ((object_id - 1) % 100)
        y = 1000.0 + 10.0 * ((object_id - 1) // 100)
        states.append(
            ObjectState(object_id, Point(x - 5.0, y - 5.0), 5, Point(x, y), Point(x + 3.0, y + 3.0), 10)
        )
    states.append(ObjectState(10000, Point(210.0, 210.0), 5, Point(190.0, 190.0), Point(230.0, 230.0), 10))
    return states


class TestIsolatedFsasNeverTipTheCap:
    def test_the_last_state_is_answered_inside_its_own_fsa(self):
        """The region cap binds each component alone.  Capped over the
        whole epoch, the first FSA and the 9 999 singletons filled it, the
        last FSA lost its own regions and was answered at (150, 150), the
        first FSA's centre; its pool of two answers it at the centre of the
        overlap."""
        states = cap_tipping_epoch()
        coordinator = Coordinator(
            CoordinatorConfig(bounds=Rectangle(Point(0.0, 0.0), Point(2100.0, 2100.0)), window=40)
        )
        try:
            for state in states:
                coordinator.submit_state(state)
            responses = coordinator.run_epoch(10).responses
        finally:
            coordinator.close()
        assert [response.object_id for response in responses] == [state.object_id for state in states]
        assert responses[0].endpoint == responses[-1].endpoint == Point(195.0, 195.0)
        assert all(
            state.fsa.contains_point(response.endpoint) for state, response in zip(states, responses)
        )


# Coordinates collide on purpose: repeated x values, ends on an FSA's edge,
# zero-width FSAs, and ``-0.0`` next to ``0.0`` (equal, printed apart).
coordinate = st.sampled_from([-0.0, 0.0, 1.0, 2.5, 3.0, 3.0000000000000004, 4.0, 7.0])


@st.composite
def probe_rectangles(draw) -> Rectangle:
    x_low, x_high = sorted((draw(coordinate), draw(coordinate)))
    y_low, y_high = sorted((draw(coordinate), draw(coordinate)))
    return Rectangle(Point(x_low, y_low), Point(x_high, y_high))


ends = st.lists(st.builds(Point, coordinate, coordinate), max_size=30)


START = Point(100.0, 100.0)


def linear_scan(points, fsa):
    """``(path_id, end)`` of the ends ``fsa`` contains, in insertion order."""
    return [(path_id, end) for path_id, end in enumerate(points) if fsa.contains_point(end)]


class TestInsertProbe:
    """The decisions' probe of an epoch's inserts is an :class:`EndpointTable`:
    its :meth:`~EndpointTable.end_vertices_in` groups are what a linear
    ``contains_point`` scan of the inserts groups by coordinates."""

    @settings(max_examples=300, deadline=None)
    @given(points=ends, fsas=st.lists(probe_rectangles(), min_size=1, max_size=6))
    def test_probe_equals_a_linear_contains_point_scan(self, points, fsas):
        probe = EndpointTable()
        for count, end in enumerate(points, start=1):
            probe.add_path(count - 1, START, end)
            for fsa in fsas:
                expected = {}
                for path_id, stored in linear_scan(points[:count], fsa):
                    expected.setdefault((stored.x, stored.y), []).append(path_id)
                found = probe.end_vertices_in(fsa)
                assert {key: sorted(ids) for key, (_vertex, ids) in found.items()} == expected

    @settings(max_examples=200, deadline=None)
    @given(points=ends, fsa=probe_rectangles())
    def test_equal_ends_are_met_in_insertion_order(self, points, fsa):
        """Among ends that compare equal (``0.0`` / ``-0.0``), the earliest
        insert is the vertex — the one a linear scan meets first — and the
        ids follow in insertion order."""
        expected = {}
        for path_id, end in linear_scan(points, fsa):
            expected.setdefault((end.x, end.y), (repr(end), []))[1].append(path_id)
        probe = EndpointTable()
        for path_id, end in enumerate(points):
            probe.add_path(path_id, START, end)
        found = probe.end_vertices_in(fsa)
        assert {key: (repr(vertex), ids) for key, (vertex, ids) in found.items()} == expected
