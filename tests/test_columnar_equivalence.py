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
  brute-force scalar scan, and the pre-ranked / batched :class:`RegionTable`
  queries against the scalar tie-break loops, including the insertion-order
  tie-break cases (equal areas, equal counts) the ranking's last sort key
  exists for;
* the epoch-pass differential — at every decision, the candidate vertices
  the epoch pass hands SinglePath against the ones a per-state query of the
  live index produces.

The shared-memory shipment transport rides the matrix (``processes``
backend under ``columnar``) and is additionally pinned to actually engage:
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
            backend = coordinator.router.pipeline.backend
            assert backend.shm_shipments > 0
            assert backend.shm_fallbacks == 0
        finally:
            coordinator.close()

    def test_object_kernel_never_touches_shared_memory(self):
        stream = synthetic_stream(seed=3, epochs=4)
        coordinator = make_coordinator(num_shards=4, backend="processes", kernel="object")
        try:
            for boundary, states in stream:
                for state in states:
                    coordinator.submit_state(state)
                coordinator.run_epoch(boundary)
            backend = coordinator.router.pipeline.backend
            assert backend.shm_shipments == 0
        finally:
            coordinator.close()

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
                        coordinator.router.pipeline.backend.kill_worker(0)
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


@st.composite
def table_scripts(draw):
    """Interleaved ``("upsert", key, endpoint, other)`` / ``("remove", key)``
    ops over a small key space, so keys are overwritten and re-added."""
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        if draw(st.integers(min_value=0, max_value=3)):
            ops.append(("upsert", draw(entry_keys), draw(points), draw(points)))
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
            scalar[key] = (endpoint, other)
        else:
            table.remove(op[1])
            scalar.pop(op[1], None)
    return table, scalar


def assert_table_consistent(table: EndpointTable, scalar: Dict) -> None:
    """Dense end columns, an exact row map and a start hash with no dead keys."""
    ends = {pid: endpoint for (pid, is_start), (endpoint, _o) in scalar.items() if not is_start}
    assert len(table) == len(scalar)
    assert table.count == len(ends)
    pids, xs, ys = table.end_columns()
    assert sorted(zip(pids.tolist(), xs.tolist(), ys.tolist())) == sorted(
        (pid, end.x, end.y) for pid, end in ends.items()
    )
    assert {pid: int(pids[row]) for pid, row in table._rows.items()} == {
        pid: pid for pid in ends
    }
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

        expected_from_into = sorted(
            pid
            for (pid, is_start), (endpoint, other) in scalar.items()
            if not is_start and other == start and region.contains_point(endpoint)
        )
        assert sorted(table.from_into(start, region)) == expected_from_into

        pids, xs, ys = table.end_rows_in(region)
        expected_ends = sorted(
            (pid, endpoint.x, endpoint.y)
            for (pid, is_start), (endpoint, _other) in scalar.items()
            if not is_start and region.contains_point(endpoint)
        )
        assert sorted(zip(pids.tolist(), xs.tolist(), ys.tolist())) == expected_ends

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
    def test_swap_with_last_removal_keeps_the_table_dense(self, ops):
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
        assert table._by_start == {} and table._start_of == {} and table.count == 0

    def test_columns_grow_past_the_initial_capacity(self):
        table = EndpointTable()
        capacity = len(table.pids)
        for pid in range(3 * capacity):
            table.upsert((pid, False), Point(float(pid), 0.0), Point(0.0, 0.0))
        assert table.count == 3 * capacity
        everywhere = Rectangle(Point(0.0, 0.0), Point(float(3 * capacity), 0.0))
        assert table.end_rows_in(everywhere)[0].tolist() == list(range(3 * capacity))


@st.composite
def overlap_pools_strategy(draw):
    """FSA pools sized to cross the columnar activation threshold."""
    n = draw(st.integers(min_value=1, max_value=14))
    pool = {}
    for object_id in range(n):
        center = draw(points)
        half = draw(st.sampled_from([10.0, 25.0, 25.0, 40.0]))
        pool[object_id] = Rectangle.from_center(center, half)
    return pool


class TestRegionTableKernels:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(overlap_pools_strategy(), points, regions_strategy())
    def test_structure_queries_match_across_kernels(self, pool, probe, fsa):
        reference = FsaOverlapStructure.build(pool, kernel="object")
        columnar = FsaOverlapStructure.build(pool, kernel="columnar")
        assert reference.serialized() == columnar.serialized()

        ref_region = reference.smallest_region_containing(probe)
        col_region = columnar.smallest_region_containing(probe)
        assert (ref_region is None) == (col_region is None)
        if ref_region is not None:
            assert ref_region.members == col_region.members
            assert ref_region.rectangle == col_region.rectangle

        ref_hot = reference.hottest_region_intersecting(fsa)
        col_hot = columnar.hottest_region_intersecting(fsa)
        assert (ref_hot is None) == (col_hot is None)
        if ref_hot is not None:
            assert ref_hot.members == col_hot.members
            assert ref_hot.rectangle == col_hot.rectangle

        assert reference.candidate_vertex_for(fsa) == columnar.candidate_vertex_for(fsa)

    @settings(max_examples=100, deadline=None)
    @given(overlap_pools_strategy(), points, regions_strategy())
    def test_table_path_forced_below_threshold(self, pool, probe, fsa):
        """Drop the activation threshold to 1 so even tiny pools run the
        vectorized table — the threshold must be a pure perf knob."""
        reference = FsaOverlapStructure.build(pool, kernel="object")
        columnar = FsaOverlapStructure.build(pool, kernel="columnar")
        original = FsaOverlapStructure._COLUMNAR_MIN_REGIONS
        FsaOverlapStructure._COLUMNAR_MIN_REGIONS = 1
        try:
            ref_region = reference.smallest_region_containing(probe)
            col_region = columnar.smallest_region_containing(probe)
            assert (ref_region is None) == (col_region is None)
            if ref_region is not None:
                assert ref_region.members == col_region.members
            ref_hot = reference.hottest_region_intersecting(fsa)
            col_hot = columnar.hottest_region_intersecting(fsa)
            assert (ref_hot is None) == (col_hot is None)
            if ref_hot is not None:
                assert ref_hot.members == col_hot.members
        finally:
            FsaOverlapStructure._COLUMNAR_MIN_REGIONS = original

    def test_insertion_order_breaks_exact_ties(self):
        """Two regions with identical area and count: the scalar loops keep
        the first-encountered one; the lexsort's last key must reproduce it."""
        # Two disjoint members produce two singleton regions of equal area
        # and equal count; a probe inside neither forces the intersecting
        # query to tie on (-count, area) across both.
        pool = {
            1: Rectangle(Point(0.0, 0.0), Point(10.0, 10.0)),
            2: Rectangle(Point(20.0, 0.0), Point(30.0, 10.0)),
        }
        reference = FsaOverlapStructure.build(pool, kernel="object")
        columnar = FsaOverlapStructure.build(pool, kernel="columnar")
        original = FsaOverlapStructure._COLUMNAR_MIN_REGIONS
        FsaOverlapStructure._COLUMNAR_MIN_REGIONS = 1
        try:
            fsa = Rectangle(Point(0.0, 0.0), Point(30.0, 10.0))  # hits both
            ref_hot = reference.hottest_region_intersecting(fsa)
            col_hot = columnar.hottest_region_intersecting(fsa)
            assert ref_hot.members == col_hot.members
            probe = Point(5.0, 5.0)
            # Add an identical-geometry region pair for the containment tie.
            assert (
                reference.smallest_region_containing(probe).members
                == columnar.smallest_region_containing(probe).members
            )
        finally:
            FsaOverlapStructure._COLUMNAR_MIN_REGIONS = original

    @settings(max_examples=60, deadline=None)
    @given(overlap_pools_strategy(), points)
    def test_raw_table_matches_scalar_loops(self, pool, probe):
        """RegionTable directly vs a hand-rolled scalar argmin."""
        structure = FsaOverlapStructure.build(pool, kernel="object")
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
        got = table.smallest_containing(probe)
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
    def test_batched_queries_match_single_queries_and_scalar_loops(self, pool, probes, fsas):
        """Many points / many FSAs against one table: the same winners as one
        pre-ranked query each, and as the object kernel's loops."""
        reference = FsaOverlapStructure.build(pool, kernel="object")
        columnar = FsaOverlapStructure.build(pool, kernel="columnar")
        table = RegionTable(columnar._regions)
        singles = [table.smallest_containing(probe) for probe in probes]
        assert table.smallest_containing_many(probes) == [
            -1 if winner is None else winner for winner in singles
        ]
        singles = [table.hottest_intersecting(fsa) for fsa in fsas]
        assert table.hottest_intersecting_many(fsas) == [
            -1 if winner is None else winner for winner in singles
        ]
        expected_counts = []
        for probe in probes:
            region = reference.smallest_region_containing(probe)
            expected_counts.append(region.count if region is not None else 0)
        assert columnar.containing_counts(probes) == expected_counts
        assert columnar.candidate_vertices_for(fsas) == [
            reference.candidate_vertex_for(fsa) for fsa in fsas
        ]

    def test_preranked_ties_fall_to_insertion_order(self):
        """Equal area *and* equal count: both rankings must keep the region
        inserted first, whichever member set that is."""
        square = (0.0, 0.0, 10.0, 10.0)
        twin = (0.0, 0.0, 10.0, 10.0)
        probe, fsa = Point(5.0, 5.0), Rectangle(Point(2.0, 2.0), Point(3.0, 3.0))
        for first, second in ((1, 2), (2, 1)):
            table = RegionTable({frozenset([first]): square, frozenset([second]): twin})
            assert table.smallest_containing(probe) == 0
            assert table.hottest_intersecting(fsa) == 0
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
        assert table.smallest_containing(Point(50.0, 50.0)) == 1
        assert table.hottest_intersecting(Rectangle(Point(45.0, 45.0), Point(55.0, 55.0))) == 0
        # Equal count, different area: the smaller area wins the hot query.
        table = RegionTable(
            {
                frozenset([1]): (0.0, 0.0, 100.0, 100.0),
                frozenset([2]): (40.0, 40.0, 60.0, 60.0),
            }
        )
        assert table.hottest_intersecting(Rectangle(Point(45.0, 45.0), Point(55.0, 55.0))) == 1

    def test_point_outside_every_region_and_single_region_table(self):
        only = Rectangle(Point(10.0, 10.0), Point(20.0, 20.0))
        table = RegionTable({frozenset([4]): only.as_bounds()})
        outside = Point(99.0, 99.0)
        far = Rectangle(Point(50.0, 50.0), Point(60.0, 60.0))
        assert table.smallest_containing(outside) is None
        assert table.hottest_intersecting(far) is None
        assert table.smallest_containing(Point(20.0, 10.0)) == 0  # closed edges
        assert table.hottest_intersecting(Rectangle(Point(20.0, 20.0), Point(30.0, 30.0))) == 0
        assert table.smallest_containing_many([outside, Point(15.0, 15.0)]) == [-1, 0]
        assert table.hottest_intersecting_many([far, only]) == [-1, 0]
        assert table.smallest_containing_many([]) == []

    def test_empty_table_answers_nothing(self):
        table = RegionTable({})
        probe, fsa = Point(1.0, 1.0), Rectangle(Point(0.0, 0.0), Point(2.0, 2.0))
        assert table.smallest_containing(probe) is None
        assert table.hottest_intersecting(fsa) is None
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
    candidates, and the probe of the epoch's inserts must find what a linear
    ``contains_point`` rescan of them finds.  Counts the cases the streams
    are built to reach."""

    def __init__(self, monkeypatch) -> None:
        self.compared = 0
        self.inserts_seen = 0
        self.on_indexed_vertex = 0
        original = SinglePathStrategy._candidate_vertices
        checker = self

        def checked(strategy, state, overlaps, prefetch=None):
            if prefetch is None:
                return original(strategy, state, overlaps)
            fsa = state.fsa
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
            batched = original(strategy, state, overlaps, prefetch)
            per_state = original(strategy, state, overlaps)
            key = lambda c: (c.vertex.as_tuple(), c.hotness, c.fabricated)
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
