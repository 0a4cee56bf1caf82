"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle, interpolate_point, max_distance
from repro.core.trajectory import TimePoint
from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.uncertainty import NormalToleranceModel, interval_probability
from repro.coordinator.hotness import HotnessTracker
from repro.baselines.opening_window import OpeningWindowSimplifier


coordinates = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
small_coordinates = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coordinates, coordinates)
small_points = st.builds(Point, small_coordinates, small_coordinates)


@st.composite
def rectangle_strategy(draw):
    x0, x1 = sorted((draw(small_coordinates), draw(small_coordinates)))
    y0, y1 = sorted((draw(small_coordinates), draw(small_coordinates)))
    return Rectangle(Point(x0, y0), Point(x1, y1))


class TestGeometryProperties:
    @given(points, points)
    def test_max_distance_symmetric(self, a, b):
        assert max_distance(a, b) == max_distance(b, a)

    @given(points, points, points)
    def test_max_distance_triangle_inequality(self, a, b, c):
        assert max_distance(a, c) <= max_distance(a, b) + max_distance(b, c) + 1e-6

    @given(points)
    def test_max_distance_identity(self, a):
        assert max_distance(a, a) == 0.0

    @given(points, points, st.floats(min_value=0.0, max_value=1.0))
    def test_interpolation_stays_in_bounding_box(self, a, b, fraction):
        interpolated = interpolate_point(a, b, fraction)
        # Allow a whisker of floating-point slack at the box boundary.
        slack = 1e-6 * (1.0 + abs(a.x) + abs(b.x) + abs(a.y) + abs(b.y))
        assert Rectangle.bounding(a, b, padding=slack).contains_point(interpolated)

    @given(rectangle_strategy(), rectangle_strategy())
    def test_intersection_commutative_and_contained(self, a, b):
        inter_ab = a.intersection(b)
        inter_ba = b.intersection(a)
        assert (inter_ab is None) == (inter_ba is None)
        if inter_ab is not None:
            assert inter_ab == inter_ba
            for corner in (inter_ab.low, inter_ab.high):
                assert a.contains_point(corner) and b.contains_point(corner)


class TestUncertaintyProperties:
    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=0.01, max_value=0.45),
        st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_interval_within_plain_epsilon_and_valid(self, epsilon, delta, sigma):
        """Any solved tolerance interval is centred, no wider than 2*eps, and meets the probability bound."""
        model = NormalToleranceModel(epsilon=epsilon, delta=2 * delta)  # per-axis budget: delta
        interval = model.tolerance_interval(mean=0.0, sigma=sigma)
        half = (interval.high - interval.low) / 2.0
        assert half <= epsilon + 1e-6
        if half > model.minimal_half_width + 1e-12:
            # A genuine (non-fallback) solution: the boundary offset satisfies Equation 2.
            assert interval_probability(half, epsilon, sigma) >= 1.0 - delta - 1e-6

    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=0.01, max_value=0.45),
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_interval_monotone_in_sigma(self, epsilon, delta, sigma_a, sigma_b):
        """More measurement noise never widens the admissible interval.

        The property only holds while Equation 2 remains solvable; beyond
        the sigma where the mean itself stops covering ``1 - delta`` (no
        solution exists) the MINIMAL fallback kicks in with a fixed
        width, so those cases are excluded here (they are covered separately
        by the unsatisfiable-policy unit tests).
        """
        from hypothesis import assume

        model = NormalToleranceModel(epsilon=epsilon, delta=2 * delta)  # per-axis budget: delta
        low, high = sorted((sigma_a, sigma_b))
        assume(interval_probability(0.0, epsilon, high) >= 1.0 - delta)
        wide = model.tolerance_interval(mean=0.0, sigma=low)
        narrow = model.tolerance_interval(mean=0.0, sigma=high)
        assert (narrow.high - narrow.low) / 2.0 <= (wide.high - wide.low) / 2.0 + 1e-9


@st.composite
def random_walk_measurements(draw):
    """A random walk with bounded per-step displacement, as a list of timepoints."""
    n = draw(st.integers(min_value=2, max_value=30))
    x, y = 0.0, 0.0
    measurements = [TimePoint(Point(0.0, 0.0), 0)]
    for t in range(1, n):
        x += draw(st.floats(min_value=-5.0, max_value=5.0))
        y += draw(st.floats(min_value=-5.0, max_value=5.0))
        measurements.append(TimePoint(Point(x, y), t))
    return measurements


class TestRayTraceProperties:
    @given(random_walk_measurements(), st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_reported_states_admit_fitting_paths(self, measurements, epsilon):
        """For every reported state, the segment from start to the FSA centre fits all processed measurements.

        This is the paper's central correctness claim for RayTrace (Section 4):
        a motion path ``s -> e`` exists for every ``e`` in the FSA.  We replay
        the measurements, capture each emitted state together with the
        measurements it covered and check the proximity bound timestamp by
        timestamp.
        """
        filt = RayTraceFilter(0, measurements[0], RayTraceConfig(epsilon))
        covered = []  # measurements covered by the current SSA
        for measurement in measurements[1:]:
            state = filt.observe(measurement)
            if state is None:
                covered.append(measurement)
                continue
            self._check_state_fits(state, covered, epsilon)
            # Hand the filter the FSA centre as its next start, as the
            # coordinator would, and continue.
            from repro.client.state import CoordinatorResponse

            filt.receive_response(
                CoordinatorResponse(0, state.fsa.center, state.t_end)
            )
            covered = [measurement]
        final_state = filt.current_state()
        self._check_state_fits(final_state, covered, epsilon)

    @staticmethod
    def _check_state_fits(state, covered, epsilon):
        span = state.t_end - state.t_start
        if span <= 0:
            return
        endpoint = state.fsa.center
        for measurement in covered:
            if not (state.t_start <= measurement.timestamp <= state.t_end):
                continue
            fraction = (measurement.timestamp - state.t_start) / span
            on_path = Point(
                state.start.x + fraction * (endpoint.x - state.start.x),
                state.start.y + fraction * (endpoint.y - state.start.y),
            )
            assert max_distance(on_path, measurement.point) <= epsilon + 1e-6

    @given(random_walk_measurements(), st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_filter_state_is_constant_size(self, measurements, epsilon):
        """The filter never stores more than the O(1) SSA state plus the waiting buffer."""
        filt = RayTraceFilter(0, measurements[0], RayTraceConfig(epsilon))
        for measurement in measurements[1:]:
            filt.observe(measurement)
            if not filt.waiting:
                assert filt.buffered_measurements == 0


class TestDouglasPeuckerProperties:
    @given(random_walk_measurements(), st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_opening_window_segments_are_chained(self, measurements, tolerance):
        simplifier = OpeningWindowSimplifier(tolerance)
        segments = [s for s in map(simplifier.observe, measurements) if s is not None]
        for previous, following in zip(segments, segments[1:]):
            assert previous.end.timestamp <= following.start.timestamp
        if segments:
            assert segments[0].start.timestamp == measurements[0].timestamp
            assert segments[-1].end.timestamp <= measurements[-1].timestamp


class TestHotnessProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=100)),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_hotness_matches_brute_force_window_count(self, crossings, window):
        """The tracker's hotness equals a brute-force count of unexpired crossings."""
        tracker = HotnessTracker(window)
        crossings = sorted(crossings, key=lambda item: item[1])
        recorded = []
        now = 0
        for path_id, t_end in crossings:
            now = max(now, t_end)
            tracker.record_crossing(path_id, t_end)
            recorded.append((path_id, t_end))
            tracker.advance_time(now)
            expected = {}
            for pid, end in recorded:
                if end + window > now:
                    expected[pid] = expected.get(pid, 0) + 1
            for pid in {pid for pid, _ in recorded}:
                assert tracker.hotness(pid) == expected.get(pid, 0)
