"""Differential harness for the columnar kernel (``--kernel columnar``).

The vectorized SoA kernels of :mod:`repro.coordinator.columnar` carry the
same contract the delta pipeline does: **bit-for-bit equal** to the scalar
``object`` reference, which stays pinned as the baseline.  Two layers:

* the full coordinator matrix — backends x shard counts x epoch modes, a
  density-skewed stream and worker kills — driven with the same streams
  under both kernels, every epoch's responses / counters /
  index snapshot compared exactly (reusing the sharding-equivalence
  harness);
* hypothesis kernel-level suites — :class:`EndpointTable` queries against a
  brute-force scalar scan and its x-sorted order under inserts and removals,
  and the pre-ranked, batched :class:`RegionTable`
  queries against the scalar tie-break loops, including the insertion-order
  tie-break cases (equal areas, equal counts) the ranking's last sort key
  exists for;
* the epoch-pass differential — at every decision, the candidate vertices
  the epoch pass hands SinglePath against the ones a per-state query of the
  live index produces;
* the equal-but-different differential — streams whose FSA bounds, starts and
  therefore ends include values that compare equal but print apart
  (``0.0`` / ``-0.0`` / ``0``, ``2`` / ``2.0``), compared across kernels by
  ``repr``, so which of two equal ends became a vertex shows.

The shared-memory shipment transport rides the matrix (the ``processes``
backend, under either kernel) and is additionally pinned to actually engage:
epochs must ship through the ring, with zero pickled-pipe fallbacks.
"""

from __future__ import annotations

import logging
from collections import Counter
from typing import Dict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.client.state import ObjectState
from repro.core.geometry import Point, Rectangle
from repro.coordinator.columnar import (
    HAVE_NUMPY,
    KERNELS,
    EndpointTable,
    RegionTable,
    ShipmentRing,
    close_attachments,
    decode_work_shipment,
    resolve_kernel,
)
from repro.core.errors import ConfigurationError
from repro.coordinator.overlaps import FsaOverlapStructure
from repro.coordinator.single_path import SinglePathStrategy
from overlap_oracle import ReferenceFsaOverlapStructure
from test_sharding_equivalence import (
    drive,
    index_snapshot,
    make_coordinator,
    skewed_stream,
    synthetic_stream,
)

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="columnar kernels require numpy"
)


def drive_both_kernels(stream, **coordinator_kwargs):
    """Drive the same stream under both kernels; assert full-trace equality."""
    reference = drive(make_coordinator(kernel="object", **coordinator_kwargs), stream)
    columnar = drive(make_coordinator(kernel="columnar", **coordinator_kwargs), stream)
    assert reference == columnar, f"kernels diverged for {coordinator_kwargs}"
    return reference


class TestKernelResolution:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_kernel("simd")

    def test_known_kernels_resolve(self):
        assert resolve_kernel("object") == "object"
        assert resolve_kernel("columnar") == "columnar"

    def test_columnar_degrades_without_numpy(self, monkeypatch, caplog):
        """The degrade keeps every configuration working — and says so once."""
        import repro.coordinator.columnar as columnar

        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
        monkeypatch.setattr(columnar, "_degrade_logged", False)
        with caplog.at_level(logging.WARNING, logger=columnar.__name__):
            assert columnar.resolve_kernel("columnar") == "object"
            assert columnar.resolve_kernel("columnar") == "object"
            assert columnar.resolve_kernel("object") == "object"
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1  # once per process, not once per index
        assert "degrades" in warnings[0].getMessage()

    def test_resolving_with_numpy_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING):
            assert resolve_kernel("columnar") == "columnar"
        assert not caplog.records

    def test_coordinator_default_is_columnar(self):
        coordinator = make_coordinator(num_shards=1)
        try:
            assert coordinator.config.kernel == "columnar"
        finally:
            coordinator.close()


class TestFullMatrixEquivalence:
    """Coordinator-level bit-for-bit equality across the harness matrix."""

    @pytest.mark.parametrize("num_shards", [1, 3, 4, 7, 16])
    @pytest.mark.parametrize("epoch_mode", ["full", "delta"])
    def test_serial_matrix(self, num_shards, epoch_mode):
        drive_both_kernels(
            synthetic_stream(seed=13),
            num_shards=num_shards,
            backend="serial",
            epoch_mode=epoch_mode,
        )

    @pytest.mark.parametrize("num_shards", [3, 4, 7])
    @pytest.mark.parametrize("epoch_mode", ["full", "delta"])
    def test_parallel_backends(self, epoch_mode, num_shards):
        drive_both_kernels(
            synthetic_stream(seed=29),
            num_shards=num_shards,
            backend="processes",
            epoch_mode=epoch_mode,
        )

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_skewed_stream(self, backend):
        drive_both_kernels(skewed_stream(seed=7), num_shards=4, backend=backend)

    def test_cross_kernel_cross_shard_same_snapshot(self):
        """1-shard object vs 16-shard columnar: the whole stack at once."""
        stream = synthetic_stream(seed=47)
        seed_trace = drive(make_coordinator(num_shards=1, kernel="object"), stream)
        fleet_trace = drive(
            make_coordinator(num_shards=16, backend="processes", kernel="columnar"),
            stream,
        )
        assert seed_trace == fleet_trace


#: Wire-format edge values: signed zero, subnormals, the float64 extremes.
wire_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
wire_members = st.tuples(
    st.integers(min_value=0, max_value=2**62), wire_floats, wire_floats, wire_floats, wire_floats
)
#: One shipment: ``[(pool_index, [(object_id, lx, ly, hx, hy), ...]), ...]``.
wire_shipments = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), st.lists(wire_members, max_size=6)),
    max_size=6,
)
#: 300 members outgrow a fresh ring's 256-slot sections.
_REGROWTH = [(0, [(2**40 + i, -0.0, 5e-324, float(i), 1e300) for i in range(300)])]


def wire_image(shipment):
    """Bit-exact comparison form (``-0.0 == 0.0`` would hide a lost sign)."""
    return [
        (pool_index, [(object_id, *(value.hex() for value in box)) for object_id, *box in members])
        for pool_index, members in shipment
    ]


class TestSharedMemoryTransport:
    """The process backend must actually ship epochs through shared memory."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(wire_shipments, max_size=4))
    @example([[]])
    @example([_REGROWTH, []])
    @example([[(3, [(2**40, -0.0, 5e-324, 1.0, 2.0)])], [(0, []), (9, [(1, 0.0, 0.0, 0.0, 0.0)])]])
    def test_pack_decode_round_trip(self, shipments):
        """``ShipmentRing.pack`` -> ``decode_work_shipment`` is the identity
        on pool lists, shipment after shipment through one reused ring."""
        ring = ShipmentRing()
        attachments: Dict[str, object] = {}
        try:
            for shipment in shipments:
                decoded = decode_work_shipment(ring.pack(shipment), attachments)
                assert wire_image(decoded) == wire_image(shipment)
        finally:
            close_attachments(attachments)
            ring.close(unlink=True)

    def test_columnar_ships_via_shared_memory(self):
        stream = synthetic_stream(seed=3, epochs=6)
        coordinator = make_coordinator(num_shards=4, backend="processes", kernel="columnar")
        try:
            drive_trace = []
            for boundary, states in stream:
                for state in states:
                    coordinator.submit_state(state)
                drive_trace.append(coordinator.run_epoch(boundary).responses)
            backend = coordinator.strategy.backend
            assert backend.shm_shipments > 0
            assert backend.shm_fallbacks == 0
        finally:
            coordinator.close()

    def test_object_kernel_ships_via_shared_memory_too(self):
        """The backend is handed no kernel: the scalar reference ships through
        the same ring, and answers as it does on the serial backend."""
        stream = synthetic_stream(seed=3, epochs=4)
        serial = drive(make_coordinator(num_shards=4, kernel="object"), stream)
        coordinator = make_coordinator(num_shards=4, backend="processes", kernel="object")
        assert drive(coordinator, stream) == serial  # closes the coordinator
        backend = coordinator.strategy.backend
        assert backend.shm_shipments > 0
        assert backend.shm_fallbacks == 0

    def test_worker_kill_mid_stream_stays_equivalent(self):
        """A replaced worker attaches to the ring afresh; answers must still
        match the object kernel."""
        stream = synthetic_stream(seed=21, epochs=8)

        def run(kernel: str):
            coordinator = make_coordinator(
                num_shards=4, backend="processes", kernel=kernel
            )
            trace = []
            try:
                for index, (boundary, states) in enumerate(stream):
                    if index == 3:
                        coordinator.strategy.backend.kill_worker(0)
                    for state in states:
                        coordinator.submit_state(state)
                    trace.append(coordinator.run_epoch(boundary).responses)
                trace.append(index_snapshot(coordinator))
            finally:
                coordinator.close()
            return trace

        assert run("object") == run("columnar")


# ---------------------------------------------------------------------------
# Kernel-level hypothesis suites
# ---------------------------------------------------------------------------

# Coarse pools force duplicate endpoints, shared borders and exact ties.
coordinate_pool = st.sampled_from([0.0, 1.0, 12.5, 25.0, 49.9, 50.0, 99.0, 100.0])
points = st.builds(Point, coordinate_pool, coordinate_pool)


entry_keys = st.tuples(st.integers(min_value=0, max_value=9), st.booleans())
#: End coordinates with equal values that are different objects (``-0.0`` /
#: ``0.0`` / ``0``), so equal-x runs hold several entries.
end_points = st.builds(
    Point,
    st.sampled_from([-0.0, 0.0, 0, 1.0, 12.5, 50.0, 99.0]),
    st.sampled_from([-0.0, 0.0, 1.0, 50.0]),
)


@st.composite
def table_scripts(draw):
    """Interleaved ``("upsert", key, endpoint, other)`` / ``("remove", key)``
    ops over a small key space, so keys are overwritten and re-added."""
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        if draw(st.integers(min_value=0, max_value=3)):
            ops.append(("upsert", draw(entry_keys), draw(st.one_of(points, end_points)), draw(points)))
        else:
            ops.append(("remove", draw(entry_keys)))
    return ops


def replay(ops):
    """The table and the scalar ``{key: (endpoint, other)}`` dict it mirrors."""
    table = EndpointTable()
    scalar: Dict = {}
    for op in ops:
        if op[0] == "upsert":
            _tag, key, endpoint, other = op
            table.upsert(key, endpoint, other)
            scalar.pop(key, None)  # an overwrite is a new insert: it goes last
            scalar[key] = (endpoint, other)
        else:
            table.remove(op[1])
            scalar.pop(op[1], None)
    return table, scalar


def assert_table_consistent(table: EndpointTable, scalar: Dict) -> None:
    """End entries sorted by x, equal x in insertion order, parallel lists in
    step, and a start hash with no dead keys."""
    ends = [(pid, endpoint) for (pid, is_start), (endpoint, _o) in scalar.items() if not is_start]
    assert len(table) == len(scalar)
    # ``sorted`` is stable, so equal x values keep the scalar dict's
    # insertion order — the order the table must keep them in.
    expected = sorted(ends, key=lambda entry: entry[1].x)
    assert table._pids == [pid for pid, _end in expected]
    assert [repr(end) for end in table._ends] == [repr(end) for _pid, end in expected]
    assert table._xs == [end.x for end in table._ends]
    assert table._ys == [end.y for end in table._ends]
    expected_hash: Dict = {}
    for (pid, is_start), (endpoint, other) in scalar.items():
        start, end = (endpoint, other) if is_start else (other, endpoint)
        expected_hash.setdefault(start, {})[(pid, is_start)] = end
    assert table._by_start == expected_hash


@st.composite
def regions_strategy(draw):
    a, b = draw(points), draw(points)
    return Rectangle.bounding(a, b)


class TestEndpointTableKernels:
    @settings(max_examples=150, deadline=None)
    @given(table_scripts(), points, regions_strategy())
    def test_queries_match_scalar_scan(self, ops, start, region):
        table, scalar = replay(ops)

        expected_starts = sorted(
            pid
            for (pid, is_start), (endpoint, other) in scalar.items()
            if is_start and endpoint == start and region.contains_point(other)
        )
        assert sorted(table.starting_at(start, region)) == expected_starts

        expected_ends = sorted(
            (pid, endpoint.x, endpoint.y)
            for (pid, is_start), (endpoint, _other) in scalar.items()
            if not is_start and region.contains_point(endpoint)
        )
        rows = table.end_rows_in(region)
        assert rows == sorted(rows)
        assert (
            sorted((table._pids[row], table._xs[row], table._ys[row]) for row in rows)
            == expected_ends
        )
        expected_vertices: Dict = {}
        for (pid, is_start), (endpoint, _other) in scalar.items():
            if not is_start and region.contains_point(endpoint):
                expected_vertices.setdefault(endpoint, []).append(pid)
        vertices = table.end_vertices_in(region)
        assert {repr(v): sorted(ids) for v, ids in vertices.items()} == {
            repr(v): sorted(ids) for v, ids in expected_vertices.items()
        }

        # The first path, in insertion order, from ``start`` to exactly the
        # probe — over every stored end, so each end entry whose path starts
        # at ``start`` is met.
        probes = {endpoint for (_pid, is_start), (endpoint, _o) in scalar.items() if not is_start}
        for probe in probes | {start}:
            expected_between = next(
                (
                    pid
                    for (pid, is_start), (endpoint, other) in scalar.items()
                    if not is_start and other == start and endpoint == probe
                ),
                None,
            )
            assert table.path_between(start, probe) == expected_between

        expected_any = sorted(
            pid
            for (pid, _is_start), (endpoint, _other) in scalar.items()
            if region.contains_point(endpoint)
        )
        assert sorted(table.endpoints_in(region)) == expected_any

        assert Counter(table.indexed_endpoints()) == Counter(
            endpoint for endpoint, _other in scalar.values()
        )

    @settings(max_examples=80, deadline=None)
    @given(table_scripts())
    def test_removal_keeps_the_table_sorted(self, ops):
        """After every removal the end entries are still sorted by x, equal x
        values still in insertion order."""
        table, scalar = replay(ops)
        assert_table_consistent(table, scalar)
        for key in list(scalar):
            table.remove(key)
            del scalar[key]
            assert_table_consistent(table, scalar)
        table.remove((999, False))  # an absent key is a no-op
        assert_table_consistent(table, {})

    def test_start_hash_emptied_on_last_removal(self):
        """A vertex's bucket lives exactly as long as a path starts there —
        whichever of the path's two entries goes last."""
        table = EndpointTable()
        start, end = Point(1.0, 1.0), Point(50.0, 50.0)
        table.upsert((7, True), start, end)
        table.upsert((7, False), end, start)
        table.upsert((8, True), start, Point(99.0, 0.0))
        assert set(table._by_start) == {start}
        table.remove((8, True))
        table.remove((7, True))
        assert table._by_start == {start: {(7, False): end}}
        table.remove((7, False))
        assert table._by_start == {} and table._start_of == {} and table._pids == []

    def test_removal_among_equal_x_takes_its_own_path(self):
        """Ends of equal x — ``0.0``, ``-0.0``, ``0`` and the same point twice —
        share one run; removing one from the middle leaves the others in
        insertion order, and the earliest equal end stays the vertex key."""
        table = EndpointTable()
        start = Point(5.0, 5.0)
        ends = [Point(0.0, 1.0), Point(-0.0, 2.0), Point(0, 1.0), Point(-1.0, 0.0), Point(0.0, 1.0)]
        for pid, end in enumerate(ends):
            table.upsert((pid, False), end, start)
        assert table._pids == [3, 0, 1, 2, 4]
        table.remove((2, False))
        assert table._pids == [3, 0, 1, 4]
        assert [repr(end) for end in table._ends] == [
            repr(ends[3]), repr(ends[0]), repr(ends[1]), repr(ends[4])
        ]
        table.remove((0, False))
        assert table._pids == [3, 1, 4]
        everywhere = Rectangle(Point(-1.0, 0.0), Point(0.0, 2.0))
        (vertex, ids), *rest = (
            item for item in table.end_vertices_in(everywhere).items() if item[0] == ends[4]
        )
        assert rest == [] and ids == [4] and repr(vertex) == "Point(x=0.0, y=1.0)"
        # Re-adding path 0 puts it behind the equal ends already stored.
        table.upsert((0, False), Point(-0.0, 1.0), start)
        assert table._pids == [3, 1, 4, 0]
        vertices = table.end_vertices_in(everywhere)
        assert vertices[Point(0.0, 1.0)] == [4, 0]
        assert [repr(vertex) for vertex in vertices] == [
            "Point(x=-1.0, y=0.0)", "Point(x=-0.0, y=2.0)", "Point(x=0.0, y=1.0)"
        ]

    def test_many_entries_stay_sorted_by_x(self):
        """Entries inserted in descending x come back in ascending x; a box
        query returns exactly its x run."""
        table = EndpointTable()
        count = 192
        for pid in range(count):
            table.upsert((pid, False), Point(float(count - pid), 0.0), Point(0.0, 0.0))
        assert table._xs == [float(x) for x in range(1, count + 1)]
        everywhere = Rectangle(Point(0.0, 0.0), Point(float(count), 0.0))
        assert [table._pids[row] for row in table.end_rows_in(everywhere)] == list(
            range(count - 1, -1, -1)
        )
        middle = Rectangle(Point(10.0, 0.0), Point(12.0, 0.0))
        assert [table._pids[row] for row in table.end_rows_in(middle)] == [
            count - 10, count - 11, count - 12
        ]


@st.composite
def overlap_pools_strategy(draw):
    """FSA pools of up to 14 members, dense enough to derive hundreds of regions."""
    n = draw(st.integers(min_value=1, max_value=14))
    pool = {}
    for object_id in range(n):
        center = draw(points)
        half = draw(st.sampled_from([10.0, 25.0, 25.0, 40.0]))
        pool[object_id] = Rectangle.from_center(center, half)
    return pool


def first_hit(winners):
    """A one-row batch's winner, as ``None`` for none."""
    (winner,) = winners
    return None if winner < 0 else winner


class TestRegionTableKernels:
    """The table answers batches only; a single query is the structure's
    scalar loop.  Both are held to the ``Rectangle`` oracle and to each
    other, on pools large enough to derive well over 96 regions (where a
    single query once switched to the table)."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(overlap_pools_strategy(), points, regions_strategy())
    def test_structure_queries_match_the_oracle(self, pool, probe, fsa):
        reference = ReferenceFsaOverlapStructure.build(pool)
        structure = FsaOverlapStructure.build(pool)
        assert repr(structure.serialized()) == repr(reference.serialized())

        ref_region = reference.smallest_region_containing(probe)
        region = structure.smallest_region_containing(probe)
        assert (ref_region is None) == (region is None)
        if ref_region is not None:
            assert ref_region.members == region.members
            assert ref_region.rectangle == region.rectangle

        ref_hot = reference.hottest_region_intersecting(fsa)
        hot = structure.hottest_region_intersecting(fsa)
        assert (ref_hot is None) == (hot is None)
        if ref_hot is not None:
            assert ref_hot.members == hot.members
            assert ref_hot.rectangle == hot.rectangle

        assert reference.candidate_vertex_for(fsa) == structure.candidate_vertex_for(fsa)

    @settings(max_examples=100, deadline=None)
    @given(overlap_pools_strategy(), points, regions_strategy())
    def test_one_row_batches_equal_the_single_queries(self, pool, probe, fsa):
        """A batch of one is the scalar single query's winner, whatever the
        region count — there is no threshold left to make the two meet."""
        structure = FsaOverlapStructure.build(pool)
        table = RegionTable(structure._regions)
        region = structure.smallest_region_containing(probe)
        winner = first_hit(table.smallest_containing_many([probe]))
        assert (region is None) == (winner is None)
        if region is not None:
            assert table.members[winner] == region.members
        hot = structure.hottest_region_intersecting(fsa)
        winner = first_hit(table.hottest_intersecting_many([fsa]))
        assert (hot is None) == (winner is None)
        if hot is not None:
            assert table.members[winner] == hot.members

    def test_insertion_order_breaks_exact_ties(self):
        """Two regions with identical area and count: the scalar loops keep
        the first-encountered one; the lexsort's last key must reproduce it."""
        # Two disjoint members produce two singleton regions of equal area
        # and equal count; an FSA over both forces the intersecting query to
        # tie on (-count, area) across them.
        pool = {
            1: Rectangle(Point(0.0, 0.0), Point(10.0, 10.0)),
            2: Rectangle(Point(20.0, 0.0), Point(30.0, 10.0)),
        }
        structure = FsaOverlapStructure.build(pool)
        table = RegionTable(structure._regions)
        fsa = Rectangle(Point(0.0, 0.0), Point(30.0, 10.0))  # hits both
        hot = structure.hottest_region_intersecting(fsa)
        assert hot.members == frozenset([1])
        assert table.members[first_hit(table.hottest_intersecting_many([fsa]))] == hot.members
        probe = Point(5.0, 5.0)
        region = structure.smallest_region_containing(probe)
        assert table.members[first_hit(table.smallest_containing_many([probe]))] == region.members

    @settings(max_examples=60, deadline=None)
    @given(overlap_pools_strategy(), points)
    def test_raw_table_matches_scalar_loops(self, pool, probe):
        """RegionTable directly vs a hand-rolled scalar argmin."""
        structure = FsaOverlapStructure.build(pool)
        regions = list(structure.regions())
        if not regions:
            return
        table = RegionTable(structure._regions)
        best = None
        for index, region in enumerate(regions):
            if not region.rectangle.contains_point(probe):
                continue
            key = (region.rectangle.area, -region.count, index)
            if best is None or key < best[0]:
                best = (key, index)
        got = first_hit(table.smallest_containing_many([probe]))
        if best is None:
            assert got is None
        else:
            assert got == best[1]

    @settings(max_examples=100, deadline=None)
    @given(
        overlap_pools_strategy(),
        st.lists(points, max_size=12),
        st.lists(regions_strategy(), max_size=12),
    )
    def test_batched_queries_match_the_scalar_loops(self, pool, probes, fsas):
        """Many points / many FSAs against one table: per row, the winner of
        the structure's scalar single query, and the oracle's answers."""
        reference = ReferenceFsaOverlapStructure.build(pool)
        structure = FsaOverlapStructure.build(pool)
        table = RegionTable(structure._regions)
        members = lambda region: None if region is None else region.members
        assert [
            None if winner < 0 else table.members[winner]
            for winner in table.smallest_containing_many(probes)
        ] == [members(structure.smallest_region_containing(probe)) for probe in probes]
        assert [
            None if winner < 0 else table.members[winner]
            for winner in table.hottest_intersecting_many(fsas)
        ] == [members(structure.hottest_region_intersecting(fsa)) for fsa in fsas]
        assert structure.containing_counts(probes) == reference.containing_counts(probes)
        assert structure.candidate_vertices_for(fsas) == reference.candidate_vertices_for(fsas)

    def test_preranked_ties_fall_to_insertion_order(self):
        """Equal area *and* equal count: both rankings must keep the region
        inserted first, whichever member set that is."""
        square = (0.0, 0.0, 10.0, 10.0)
        twin = (0.0, 0.0, 10.0, 10.0)
        probe, fsa = Point(5.0, 5.0), Rectangle(Point(2.0, 2.0), Point(3.0, 3.0))
        for first, second in ((1, 2), (2, 1)):
            table = RegionTable({frozenset([first]): square, frozenset([second]): twin})
            assert table.smallest_containing_many([probe, probe]) == [0, 0]
            assert table.hottest_intersecting_many([fsa]) == [0]
            assert table.members[0] == frozenset([first])

    def test_preranked_orders_differ_between_the_two_queries(self):
        """A big two-member region and a small singleton: the containing
        query prefers the small one, the intersecting query the hot one."""
        table = RegionTable(
            {
                frozenset([1, 2]): (0.0, 0.0, 100.0, 100.0),
                frozenset([3]): (40.0, 40.0, 60.0, 60.0),
            }
        )
        fsa = Rectangle(Point(45.0, 45.0), Point(55.0, 55.0))
        assert table.smallest_containing_many([Point(50.0, 50.0)]) == [1]
        assert table.hottest_intersecting_many([fsa]) == [0]
        # Equal count, different area: the smaller area wins the hot query.
        table = RegionTable(
            {
                frozenset([1]): (0.0, 0.0, 100.0, 100.0),
                frozenset([2]): (40.0, 40.0, 60.0, 60.0),
            }
        )
        assert table.hottest_intersecting_many([fsa]) == [1]

    def test_point_outside_every_region_and_single_region_table(self):
        only = Rectangle(Point(10.0, 10.0), Point(20.0, 20.0))
        table = RegionTable({frozenset([4]): only.as_bounds()})
        outside = Point(99.0, 99.0)
        far = Rectangle(Point(50.0, 50.0), Point(60.0, 60.0))
        touching = Rectangle(Point(20.0, 20.0), Point(30.0, 30.0))
        assert table.smallest_containing_many([outside, Point(15.0, 15.0)]) == [-1, 0]
        assert table.smallest_containing_many([Point(20.0, 10.0)]) == [0]  # closed edges
        assert table.hottest_intersecting_many([far, only, touching]) == [-1, 0, 0]
        assert table.smallest_containing_many([]) == []

    def test_empty_table_answers_nothing(self):
        table = RegionTable({})
        probe, fsa = Point(1.0, 1.0), Rectangle(Point(0.0, 0.0), Point(2.0, 2.0))
        assert table.smallest_containing_many([probe]) == [-1]
        assert table.hottest_intersecting_many([fsa, fsa]) == [-1, -1]


# ---------------------------------------------------------------------------
# The epoch pass vs per-state queries
# ---------------------------------------------------------------------------


def report(object_id, start, centre, half, t_end) -> ObjectState:
    fsa = Rectangle.from_center(Point(*centre), half)
    return ObjectState(object_id, Point(*start), max(0, t_end - 5), fsa.low, fsa.high, t_end)


def crafted_stream():
    """Epochs built around what the epoch pass must merge back in.

    Epoch 1 has nothing indexed: reporters 1 and 2 overlap, so the first
    fabricates the shared centroid and inserts a path to it — an in-epoch
    insert that lands inside the second's FSA.  Epoch 2 sends two new
    reporters whose FSAs contain that (now stored) vertex: the first inserts
    another path onto the already-indexed vertex, which the second must see
    on top of what the pass read.  Reporter 9 reports twice in epoch 2 and
    the FSAs around (500, 500) straddle all four shards of a 2x2 fleet.
    """
    return [
        (10, [
            report(1, (100.0, 100.0), (300.0, 300.0), 60.0, 8),
            report(2, (120.0, 80.0), (320.0, 310.0), 60.0, 9),
            report(3, (480.0, 520.0), (500.0, 500.0), 40.0, 7),
        ]),
        (20, [
            report(4, (150.0, 400.0), (305.0, 310.0), 50.0, 18),
            report(5, (400.0, 150.0), (315.0, 300.0), 50.0, 17),
            report(9, (700.0, 700.0), (510.0, 505.0), 45.0, 16),
            report(9, (720.0, 690.0), (495.0, 510.0), 45.0, 19),
            report(6, (520.0, 480.0), (505.0, 495.0), 40.0, 15),
        ]),
    ]


class EpochPassChecker:
    """Wraps ``_candidate_vertices``: whenever a decision runs off the epoch
    pass, the per-state query of the live index must produce the same
    candidates — vertex (down to ``repr``), hotness and the fabricated flag —
    and the probe of the epoch's inserts must find what a linear
    ``contains_point`` rescan of them finds.  Counts the cases the streams
    are built to reach."""

    def __init__(self, monkeypatch) -> None:
        self.compared = 0
        self.inserts_seen = 0
        self.on_indexed_vertex = 0
        original = SinglePathStrategy._candidate_vertices
        checker = self

        def checked(strategy, fsa, overlaps, prefetch=None):
            if prefetch is None:
                return original(strategy, fsa, overlaps)
            rescanned = [
                record for record in prefetch.inserted if fsa.contains_point(record.path.end)
            ]
            assert sorted(record.path_id for record in prefetch.inserted.within(fsa)) == sorted(
                record.path_id for record in rescanned
            )
            for record in rescanned:
                checker.inserts_seen += 1
                if record.path.end in prefetch.end_vertices:
                    checker.on_indexed_vertex += 1
            batched = original(strategy, fsa, overlaps, prefetch)
            per_state = original(strategy, fsa, overlaps)
            key = lambda candidate: (repr(candidate[0]), candidate[1], candidate[2])
            assert sorted(map(key, batched)) == sorted(map(key, per_state))
            checker.compared += 1
            return batched

        monkeypatch.setattr(SinglePathStrategy, "_candidate_vertices", checked)


FLEETS = [
    dict(num_shards=1),
    dict(num_shards=4, backend="serial"),
    dict(num_shards=4, backend="processes"),
    dict(num_shards=6, backend="processes"),  # 2x3: non-square cells
]


class TestEpochPassDifferential:
    @pytest.mark.parametrize("fleet", FLEETS, ids=lambda fleet: "-".join(map(str, fleet.values())))
    def test_crafted_stream_hits_every_merge_case(self, fleet, monkeypatch):
        checker = EpochPassChecker(monkeypatch)
        drive(make_coordinator(kernel="columnar", **fleet), crafted_stream())
        assert checker.compared >= 7
        assert checker.inserts_seen >= 2  # an in-epoch insert inside a later FSA
        assert checker.on_indexed_vertex >= 1  # ... onto a vertex the pass had read
        monkeypatch.undo()
        drive_both_kernels(crafted_stream(), **fleet)

    @pytest.mark.parametrize("fleet", FLEETS, ids=lambda fleet: "-".join(map(str, fleet.values())))
    @pytest.mark.parametrize("seed", [5, 31])
    def test_random_streams_with_duplicate_reporters(self, fleet, seed, monkeypatch):
        stream = synthetic_stream(seed=seed, epochs=6)
        assert any(
            len({state.object_id for state in states}) < len(states) for _b, states in stream
        )
        checker = EpochPassChecker(monkeypatch)
        drive(make_coordinator(kernel="columnar", **fleet), stream)
        assert checker.compared > 0 and checker.inserts_seen > 0
        assert checker.on_indexed_vertex > 0

    def test_object_kernel_never_runs_the_pass(self, monkeypatch):
        checker = EpochPassChecker(monkeypatch)
        drive(make_coordinator(num_shards=4, kernel="object"), crafted_stream())
        assert checker.compared == 0


# ---------------------------------------------------------------------------
# Equal but different ends
# ---------------------------------------------------------------------------

#: Values that compare equal but print apart, on a pool small enough that
#: FSAs coincide, nest, collapse to zero width and touch at edges and corners.
tie_values = st.sampled_from([-0.0, 0.0, 0, 2, 2.0, 3.5, 5, 5.0, 8.0])


@st.composite
def tie_reports(draw, t_end: int) -> ObjectState:
    x_low, x_high = sorted((draw(tie_values), draw(tie_values)))
    y_low, y_high = sorted((draw(tie_values), draw(tie_values)))
    return ObjectState(
        draw(st.integers(min_value=0, max_value=5)),
        Point(draw(tie_values), draw(tie_values)),
        t_end - 5,
        Point(x_low, y_low),
        Point(x_high, y_high),
        t_end,
    )


@st.composite
def tie_streams(draw):
    """Up to six epochs of up to eight reports; ids repeat within an epoch,
    and a 20-timestamp window expires paths two epochs on."""
    return [
        (10 * epoch, draw(st.lists(tie_reports(10 * epoch), min_size=1, max_size=8)))
        for epoch in range(1, draw(st.integers(min_value=1, max_value=6)) + 1)
    ]


def repr_trace(kernel: str, epoch_mode: str, stream, window: int = 20) -> list:
    """Per epoch, the ``repr`` of the responses and of every index record."""
    coordinator = make_coordinator(1, window=window, kernel=kernel, epoch_mode=epoch_mode)
    trace = []
    try:
        for boundary, states in stream:
            for state in states:
                coordinator.submit_state(state)
            responses = coordinator.run_epoch(boundary).responses
            records = sorted(coordinator.index.records, key=lambda record: record.path_id)
            trace.append((repr(responses), repr(records)))
    finally:
        coordinator.close()
    return trace


class TestEqualButDifferentEnds:
    """The columnar kernel's x-sorted end table keeps equal x values in
    insertion order, so among ends that compare equal the earliest insert is
    the vertex key — as in the object kernel's cell dicts (and in
    ``InsertedEnds``)."""

    @settings(max_examples=150, deadline=None)
    @given(stream=tie_streams(), epoch_mode=st.sampled_from(["delta", "full"]))
    def test_responses_and_records_print_alike(self, stream, epoch_mode):
        assert repr_trace("columnar", epoch_mode, stream) == repr_trace("object", epoch_mode, stream)

    def test_the_earlier_of_two_equal_ends_stays_the_vertex_key(self):
        """Epoch 1 stores an end at ``(-0.0, 0.0)``.  In epoch 2 objects 8 and
        9 reuse paths (Case 1) with identical FSAs, and object 10's FSA only
        touches theirs at a corner, so it fabricates their overlap's centre,
        ``(0.0, 0.0)``, without seeing the older end.  Epoch 3's FSA holds
        both ends: the older object, ``-0.0``, is the vertex it answers with."""

        def report(object_id, start, low, high, t_end):
            return ObjectState(object_id, Point(*start), t_end - 5, Point(*low), Point(*high), t_end)

        stream = [
            (10, [
                report(1, (5.0, 5.0), (-0.0, 0.0), (-0.0, 0.0), 10),
                report(8, (8.0, 8.0), (0.9, 0.9), (0.9, 0.9), 10),
                report(9, (9.0, 9.0), (0.9, -0.9), (0.9, -0.9), 10),
            ]),
            (20, [
                report(10, (7.0, 7.0), (1.0, 1.0), (2.0, 2.0), 20),
                report(8, (8.0, 8.0), (-1.0, -1.0), (1.0, 1.0), 20),
                report(9, (9.0, 9.0), (-1.0, -1.0), (1.0, 1.0), 20),
            ]),
            (30, [report(11, (3.0, 3.0), (-0.5, -0.5), (0.5, 0.5), 30)]),
        ]
        traces = {kernel: repr_trace(kernel, "delta", stream, window=60) for kernel in KERNELS}
        assert traces["columnar"] == traces["object"]
        assert "end=Point(x=0.0, y=0.0)" in traces["columnar"][1][1]  # object 10's path
        assert traces["columnar"][2][0] == (
            "[CoordinatorResponse(object_id=11, endpoint=Point(x=-0.0, y=0.0), timestamp=30)]"
        )
