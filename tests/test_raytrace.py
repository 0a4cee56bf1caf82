"""Unit tests for :mod:`repro.client.raytrace` and :mod:`repro.client.state`."""

from __future__ import annotations

import math
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import (
    ConfigurationError,
    CoordinatorError,
    InvalidGeometryError,
    ReproError,
)
from repro.core.geometry import Point, Rectangle, max_distance
from repro.core.trajectory import TimePoint, UncertainTimePoint
from repro.client.raytrace import RayTraceConfig, RayTraceFilter
from repro.client.state import CoordinatorResponse, ObjectState
from repro.client.uncertainty import NormalToleranceModel, UnsatisfiableTolerancePolicy
from repro.extensions.feedback import FeedbackRayTraceFilter, FeedbackResponse, HotVertexHint

from raytrace_oracle import ReferenceFeedbackRayTraceFilter, ReferenceRayTraceFilter


def make_filter(epsilon: float = 1.0, start: Point = Point(0.0, 0.0), t0: int = 0) -> RayTraceFilter:
    return RayTraceFilter(7, TimePoint(start, t0), RayTraceConfig(epsilon))


class TestRayTraceConfig:
    def test_invalid_epsilon(self):
        with pytest.raises(ConfigurationError):
            RayTraceConfig(epsilon=0.0)

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            RayTraceConfig(epsilon=1.0, delta=1.5)


class TestObjectState:
    def test_fsa_and_duration(self):
        state = ObjectState(1, Point(0.0, 0.0), 0, Point(1.0, 1.0), Point(3.0, 3.0), 10)
        assert state.fsa == Rectangle(Point(1.0, 1.0), Point(3.0, 3.0))

    def test_message_size_is_fixed(self):
        state = ObjectState(1, Point(0.0, 0.0), 0, Point(1.0, 1.0), Point(3.0, 3.0), 10)
        assert state.message_size_bytes() == 36

    def test_as_tuple_roundtrip(self):
        state = ObjectState(2, Point(1.0, 2.0), 3, Point(4.0, 5.0), Point(6.0, 7.0), 8)
        assert state.as_tuple() == (2, 1.0, 2.0, 3, 4.0, 5.0, 6.0, 7.0, 8)

    def test_response_message_size(self):
        response = CoordinatorResponse(1, Point(0.0, 0.0), 5)
        assert response.message_size_bytes() == 16


class TestInitialState:
    def test_initial_ssa_is_degenerate(self):
        filt = make_filter()
        assert filt.ssa_start == TimePoint(Point(0.0, 0.0), 0)
        assert filt.fsa.is_degenerate()
        assert not filt.waiting

    def test_first_measurement_sets_fsa_to_tolerance_square(self):
        filt = make_filter(epsilon=2.0)
        assert filt.observe(TimePoint(Point(1.0, 0.0), 1)) is None
        assert filt.fsa == Rectangle(Point(-1.0, -2.0), Point(3.0, 2.0))
        assert filt.fsa_timestamp == 1


class TestSsaGrowth:
    def test_straight_motion_never_reports(self):
        """An object moving in a straight line at constant speed stays inside the SSA."""
        filt = make_filter(epsilon=1.0)
        for t in range(1, 50):
            emitted = filt.observe(TimePoint(Point(float(t), 0.0), t))
            assert emitted is None
        assert filt.statistics.states_sent == 0

    def test_fsa_shrinks_monotonically_in_relative_terms(self):
        """Each intersection can only keep or reduce the projected extent."""
        filt = make_filter(epsilon=1.0)
        filt.observe(TimePoint(Point(1.0, 0.0), 1))
        area_after_first = filt.fsa.area
        filt.observe(TimePoint(Point(2.0, 0.3), 2))
        # The FSA at t=2 is the intersection of the projected SSA (which grows
        # to roughly double the size) with the new tolerance square; it can
        # never exceed the tolerance square's area.
        assert filt.fsa.area <= 4.0 + 1e-9
        assert area_after_first == pytest.approx(4.0)

    def test_sharp_turn_triggers_state(self):
        filt = make_filter(epsilon=1.0)
        filt.observe(TimePoint(Point(1.0, 0.0), 1))
        filt.observe(TimePoint(Point(2.0, 0.0), 2))
        emitted = filt.observe(TimePoint(Point(2.0, 10.0), 3))
        assert emitted is not None
        assert filt.waiting
        assert emitted.object_id == 7
        assert emitted.t_start == 0
        assert emitted.t_end == 2

    def test_state_reports_last_valid_fsa(self):
        filt = make_filter(epsilon=1.0)
        filt.observe(TimePoint(Point(1.0, 0.0), 1))
        fsa_before = filt.fsa
        emitted = filt.observe(TimePoint(Point(50.0, 50.0), 2))
        assert emitted is not None
        assert emitted.fsa == fsa_before

    def test_statistics_track_messages(self):
        filt = make_filter(epsilon=1.0)
        filt.observe(TimePoint(Point(1.0, 0.0), 1))
        filt.observe(TimePoint(Point(100.0, 0.0), 2))
        stats = filt.statistics
        assert stats.measurements_processed == 2
        assert stats.states_sent == 1


class TestWaitingMode:
    def _filter_in_waiting(self) -> RayTraceFilter:
        filt = make_filter(epsilon=1.0)
        filt.observe(TimePoint(Point(1.0, 0.0), 1))
        emitted = filt.observe(TimePoint(Point(100.0, 0.0), 2))
        assert emitted is not None
        return filt

    def test_measurements_buffered_while_waiting(self):
        filt = self._filter_in_waiting()
        assert filt.observe(TimePoint(Point(101.0, 0.0), 3)) is None
        assert filt.observe(TimePoint(Point(102.0, 0.0), 4)) is None
        # Buffer holds the violating measurement plus the two new ones.
        assert filt.buffered_measurements == 3

    def test_response_resets_ssa_and_replays_buffer(self):
        filt = self._filter_in_waiting()
        filt.observe(TimePoint(Point(101.0, 0.0), 3))
        response = CoordinatorResponse(7, Point(99.0, 0.0), 2)
        emitted = filt.receive_response(response)
        assert emitted is None
        assert not filt.waiting
        assert filt.ssa_start.timestamp >= 2
        assert filt.buffered_measurements == 0

    def test_response_replay_can_trigger_new_state(self):
        filt = self._filter_in_waiting()
        # While waiting, the object jumps far from the coordinator-assigned endpoint.
        filt.observe(TimePoint(Point(100.0, 0.0), 3))
        filt.observe(TimePoint(Point(-100.0, 0.0), 4))
        response = CoordinatorResponse(7, Point(1.0, 0.0), 2)
        emitted = filt.receive_response(response)
        assert emitted is not None
        assert filt.waiting

    def test_response_while_not_waiting_rejected(self):
        filt = make_filter()
        with pytest.raises(CoordinatorError):
            filt.receive_response(CoordinatorResponse(7, Point(0.0, 0.0), 0))

    def test_response_for_wrong_object_rejected(self):
        filt = self._filter_in_waiting()
        with pytest.raises(CoordinatorError):
            filt.receive_response(CoordinatorResponse(8, Point(0.0, 0.0), 2))

    def test_covering_set_chaining(self):
        """The next SSA starts exactly at the endpoint assigned by the coordinator."""
        filt = self._filter_in_waiting()
        endpoint = Point(42.0, 24.0)
        filt.receive_response(CoordinatorResponse(7, endpoint, 2))
        assert filt.ssa_start.point == endpoint
        assert filt.ssa_start.timestamp == 2


class TestMotionPathGuarantee:
    def test_reported_state_admits_a_fitting_motion_path(self):
        """Any endpoint inside the reported FSA yields a motion path that fits the data.

        This is the core invariant of RayTrace: the SSA is constructed so that
        the segment from the start point to any point of the FSA, travelled
        uniformly over [t_start, t_end], stays within epsilon of every
        measurement processed.
        """
        epsilon = 1.5
        filt = RayTraceFilter(0, TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(epsilon))
        measurements = [
            TimePoint(Point(1.0, 0.2), 1),
            TimePoint(Point(2.1, 0.4), 2),
            TimePoint(Point(3.0, 0.2), 3),
            TimePoint(Point(4.2, -0.3), 4),
        ]
        for measurement in measurements:
            assert filt.observe(measurement) is None
        state = filt.current_state()
        # Check the centre of the FSA as a representative endpoint.
        endpoint = state.fsa.center
        span = state.t_end - state.t_start
        for measurement in measurements:
            fraction = (measurement.timestamp - state.t_start) / span
            on_path = Point(
                state.start.x + fraction * (endpoint.x - state.start.x),
                state.start.y + fraction * (endpoint.y - state.start.y),
            )
            assert max_distance(on_path, measurement.point) <= epsilon + 1e-9


class TestUncertaintyIntegration:
    def test_uncertain_measurements_use_shrunken_squares(self):
        """With delta > 0 the tolerance squares shrink, so violations come earlier."""
        path = [
            TimePoint(Point(0.0, 0.0), 0),
            TimePoint(Point(1.0, 0.9), 1),
            TimePoint(Point(2.0, -0.9), 2),
            TimePoint(Point(3.0, 0.9), 3),
            TimePoint(Point(4.0, -0.9), 4),
            TimePoint(Point(5.0, 0.9), 5),
        ]
        plain = RayTraceFilter(0, path[0], RayTraceConfig(epsilon=1.0))
        plain_messages = sum(1 for tp in path[1:] if plain.observe(tp) is not None)

        uncertain_path = [
            UncertainTimePoint(tp.point, tp.timestamp, 0.4, 0.4) for tp in path
        ]
        noisy = RayTraceFilter(0, uncertain_path[0], RayTraceConfig(epsilon=1.0, delta=0.1))
        noisy_messages = 0
        for measurement in uncertain_path[1:]:
            if noisy.observe(measurement) is not None:
                noisy_messages += 1
                break
        assert noisy_messages >= plain_messages

    def test_mixed_measurement_types_accepted(self):
        filt = RayTraceFilter(0, TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(1.0, 0.1))
        assert filt.observe(UncertainTimePoint(Point(0.5, 0.0), 1, 0.1, 0.1)) is None
        assert filt.observe(TimePoint(Point(1.0, 0.0), 2)) is None


class TestOutOfOrderMeasurements:
    def test_regressing_timestamp_rejected(self):
        filt = make_filter(epsilon=1.0)
        filt.observe(TimePoint(Point(1.0, 0.0), 5))
        with pytest.raises(CoordinatorError):
            filt.observe(TimePoint(Point(2.0, 0.0), 3))


# -- the scalar filter against the object-geometry oracle ---------------------------
#
# ``RayTraceFilter`` runs Algorithm 1 on floats; ``tests/raytrace_oracle.py`` keeps
# the Point/Rectangle formulation it replaced.  Both are driven with the same calls
# and must agree bit for bit after every one of them.


def clamped(rect, x, y):
    """The point of ``rect`` nearest to ``(x, y)``."""
    return Point(min(max(x, rect.low.x), rect.high.x), min(max(y, rect.low.y), rect.high.y))


def shifted(point, dx, dy):
    return Point(point.x + dx, point.y + dy)


def _observable(filt):
    """Everything a caller can see of a filter; ``repr`` so that ``-0.0 != 0.0``."""
    stats = filt.statistics
    return repr(
        (
            filt.fsa.as_bounds(),
            filt.ssa_start,
            filt.fsa_timestamp,
            filt.waiting,
            filt.buffered_measurements,
            filt.current_state().as_tuple(),
            stats.measurements_processed,
            stats.states_sent,
            stats.responses_received,
            stats.buffered_high_watermark,
            getattr(filt, "snapped_reports", None),
        )
    )


class FilterPair:
    """The filter under test and the reference filter, driven in lockstep."""

    def __init__(self, initial, config, tolerance_model=None, feedback=False):
        new_cls = FeedbackRayTraceFilter if feedback else RayTraceFilter
        ref_cls = ReferenceFeedbackRayTraceFilter if feedback else ReferenceRayTraceFilter
        self.new = new_cls(7, initial, config, tolerance_model)
        self.ref = ref_cls(7, initial, config, tolerance_model)
        assert _observable(self.new) == _observable(self.ref)

    def call(self, method, argument):
        """Apply one call to both filters; outcomes and visible state must be identical."""
        outcomes = []
        for filt in (self.new, self.ref):
            try:
                emitted = getattr(filt, method)(argument)
                outcomes.append(None if emitted is None else repr(emitted.as_tuple()))
            except ReproError as error:
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1], (method, argument, outcomes)
        assert _observable(self.new) == _observable(self.ref), (method, argument)
        return outcomes[0]


_GRID = st.sampled_from([k * 0.5 for k in range(-12, 13)])
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 3.0, 1e308, -1e308, 1.7e308]
_COORDINATE = st.one_of(
    _GRID,
    st.integers(-6, 6),  # an int bound that ties a float one shows which of the two was kept
    st.sampled_from(_EDGE_VALUES),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
_STEP = st.fixed_dictionaries(
    {
        # Mostly motion; a respond step delivers a response whether or not one is due.
        "kind": st.sampled_from(
            ["run"] * 6 + ["turn", "jump", "absolute", "respond", "respond", "respond_wrong_object"]
        ),
        # 0 repeats a timestamp, large gaps push the projection fraction far
        # past 1, negative values regress.
        "dt": st.sampled_from([1] * 6 + [0, 2, 3, 7, 50, -1, -4]),
        "absolute": st.tuples(_COORDINATE, _COORDINATE),
        "velocity": st.tuples(_GRID, _GRID),
        # In units of epsilon: whole and half multiples put measurements exactly
        # on a tolerance bound of their predecessor.
        "jitter": st.tuples(*[st.sampled_from([0.0] * 3 + [0.25, -0.5, 1.0, -1.0, 2.0, -2.0])] * 2),
        "sigma": st.sampled_from([None] * 3 + [0.0, 0.1, 0.4, 5.0]),  # None: a plain TimePoint
        "endpoint": st.sampled_from(["inside", "low", "high", "absolute"]),
        "at": st.sampled_from(["t_end", "t_end", "now", "later"]),
        "hints": st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.integers(1, 3)),
            max_size=3,
        ),
    }
)
_SCRIPT = st.fixed_dictionaries(
    {
        "epsilon": st.sampled_from([0.5, 1.0, 2.0, 10.0, 1, 2]),
        "delta": st.sampled_from([0.0, 0.0, 0.1, 0.3]),
        "own_model": st.sampled_from([None, None, "minimal", "raise"]),
        "origin": st.tuples(_COORDINATE, _COORDINATE, st.integers(-3, 3)),
        "steps": st.lists(_STEP, min_size=1, max_size=40),
    }
)


def _measurement(x, y, t, sigma):
    if sigma is None:
        return TimePoint(Point(x, y), t)
    return UncertainTimePoint(Point(x, y), t, sigma, sigma)


def run_script(script, feedback=False):
    """Interpret a drawn script against a :class:`FilterPair`."""
    epsilon = script["epsilon"]
    model = None
    if script["own_model"] is not None:
        policy = UnsatisfiableTolerancePolicy(script["own_model"])
        model = NormalToleranceModel(epsilon, script["delta"] or 0.2, policy=policy)
    x, y, t = script["origin"]
    vx = vy = 0.0
    pair = FilterPair(
        TimePoint(Point(x, y), t), RayTraceConfig(epsilon, script["delta"]), model, feedback
    )
    for step in script["steps"]:
        kind = step["kind"]
        if kind.startswith("respond"):
            reference = pair.ref
            endpoint = {
                "inside": clamped(reference.fsa, *step["absolute"]),
                "low": reference.fsa.low,
                "high": reference.fsa.high,
                "absolute": Point(*step["absolute"]),
            }[step["endpoint"]]
            timestamp = {"t_end": reference.fsa_timestamp, "now": t, "later": t + 2}[step["at"]]
            object_id = 7 if kind == "respond" else 8
            response = CoordinatorResponse(object_id, endpoint, timestamp)
            if not feedback:
                pair.call("receive_response", response)
                continue
            hints = tuple(
                HotVertexHint(
                    shifted(clamped(reference.fsa, x, y), vx * ahead + offset * epsilon, vy * ahead),
                    hotness,
                )
                for ahead, offset, hotness in step["hints"]
            )
            pair.call("receive_feedback", FeedbackResponse(response, hints))
            continue
        dt = step["dt"]
        if kind == "turn":
            vx, vy = step["velocity"]
        if kind == "absolute":
            x, y = step["absolute"]
        else:
            reach = 40.0 if kind == "jump" else 1.0
            moved_x = x + (vx * max(dt, 1) + step["jitter"][0] * epsilon) * reach
            moved_y = y + (vy * max(dt, 1) + step["jitter"][1] * epsilon) * reach
            if math.isfinite(moved_x) and math.isfinite(moved_y):  # else: stay at the edge
                x, y = moved_x, moved_y
        t += dt
        pair.call("observe", _measurement(x, y, t, step["sigma"]))


class TestScalarFilterEqualsOracle:
    @settings(max_examples=400, deadline=None)
    @given(_SCRIPT)
    def test_plain_filter(self, script):
        run_script(script)

    @settings(max_examples=250, deadline=None)
    @given(_SCRIPT)
    def test_feedback_filter_with_hints(self, script):
        run_script(script, feedback=True)

    def test_regressing_timestamp_raises_the_same_error(self):
        pair = FilterPair(TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(1.0))
        assert pair.call("observe", TimePoint(Point(1.0, 0.0), 5)) is None
        assert pair.call("observe", TimePoint(Point(2.0, 0.0), 3)) is CoordinatorError

    def test_unexpected_responses_raise_the_same_error(self):
        pair = FilterPair(TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(1.0))
        not_waiting = CoordinatorResponse(7, Point(0.0, 0.0), 0)
        assert pair.call("receive_response", not_waiting) is CoordinatorError
        pair.call("observe", TimePoint(Point(1.0, 0.0), 1))
        assert pair.call("observe", TimePoint(Point(100.0, 0.0), 2)) is not None
        wrong_object = CoordinatorResponse(8, Point(1.0, 0.0), 1)
        assert pair.call("receive_response", wrong_object) is CoordinatorError

    def test_overflowing_projection_raises_at_that_measurement(self):
        pair = FilterPair(TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(1.0))
        assert pair.call("observe", TimePoint(Point(1e308, 0.0), 1)) is None
        # fraction 2 doubles the FSA's offset from the start: past the float range.
        assert pair.call("observe", TimePoint(Point(1e308, 0.0), 2)) is InvalidGeometryError
        # Nothing was adopted from the failed measurement; the filter carries on.
        assert pair.call("observe", TimePoint(Point(1e308, 0.0), 1)) is None

    def test_overflowing_tolerance_square_raises_even_on_a_duplicate_start(self):
        pair = FilterPair(TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(1e308))
        assert pair.call("observe", TimePoint(Point(1.7e308, 0.0), 0)) is InvalidGeometryError

    def test_projection_wins_ties_against_the_tolerance_square(self):
        """``max(projection, tolerance)`` / ``min(...)`` keep their first argument on a tie.

        Which of two equal bounds survives is visible whenever they are not the
        same object: here the projection is a float and the tolerance square of
        integer coordinates an ``int``, so the report reads ``4.0`` where the
        other choice would read ``4`` (as ``0.0`` / ``-0.0`` would on the wire).
        """
        pair = FilterPair(TimePoint(Point(0, 0), 0), RayTraceConfig(1))
        pair.call("observe", TimePoint(Point(1, 1), 1))  # FSA [0, 2] x [0, 2], all int
        # High side: the projection [0.0, 4.0] ties the tolerance square [2, 4] at 4.
        pair.call("observe", TimePoint(Point(3, 3), 2))
        assert repr(pair.new.fsa.as_bounds()) == "(2, 2, 4.0, 4.0)"
        # Low side: the projection 0 + 1.5 * (2 - 0) = 3.0 ties the tolerance bound 3.
        pair.call("observe", TimePoint(Point(4, 4), 3))
        assert repr(pair.new.fsa.as_bounds()) == "(3.0, 3.0, 5, 5)"

    def test_buffers_replay_and_re_emit(self):
        pair = FilterPair(TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(1.0))
        pair.call("observe", TimePoint(Point(1.0, 0.0), 1))
        assert pair.call("observe", TimePoint(Point(100.0, 0.0), 2)) is not None
        pair.call("observe", TimePoint(Point(100.0, 0.0), 3))
        pair.call("observe", TimePoint(Point(-100.0, 0.0), 4))
        assert pair.new.buffered_measurements == 3
        # The replay adopts the first buffered measurement and breaks again on the second.
        assert pair.call("receive_response", CoordinatorResponse(7, Point(1.0, 0.0), 1)) is not None
        assert pair.new.waiting and pair.new.buffered_measurements == 2

    def test_snapped_report_is_compared(self):
        pair = FilterPair(
            TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(1.0), feedback=True
        )
        pair.call("observe", TimePoint(Point(1.0, 0.0), 1))
        assert pair.call("observe", TimePoint(Point(100.0, 0.0), 2)) is not None
        hints = (HotVertexHint(Point(100.5, -0.0), 3), HotVertexHint(Point(0.0, 0.0), 9))
        response = CoordinatorResponse(7, Point(1.0, 0.0), 1)
        pair.call("receive_feedback", FeedbackResponse(response, hints))
        # The replayed measurement opened an FSA of [99, 101] x [-1, 1] at t=2.
        snapped = pair.call("observe", TimePoint(Point(0.0, 50.0), 3))
        assert pair.new.snapped_reports == 1 and "100.5, -0.0, 100.5, -0.0" in snapped
        # The filter's own FSA collapsed onto the hinted vertex, sign of zero included.
        assert repr(pair.new.fsa.as_bounds()) == "(100.5, -0.0, 100.5, -0.0)"


class TestObjectsOnlyAtTheBoundary:
    """Exact construction counts (no wall clock): the filter's work is scalar.

    Absorbing or buffering a measurement builds no ``Point`` and no
    ``Rectangle``; a report builds the two FSA corners of its ``ObjectState``
    and nothing else.  (The object-geometry formulation built 8 validated
    points and 3 rectangles per absorbed measurement.)
    """

    @staticmethod
    def _seeded_walk(seed: int, length: int):
        rng = random.Random(seed)
        x = y = 0.0
        vx, vy = 3.0, 1.0
        for t in range(1, length + 1):
            if rng.random() < 0.08:
                vx, vy = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
            x += vx + rng.uniform(-1.0, 1.0)
            y += vy + rng.uniform(-1.0, 1.0)
            yield TimePoint(Point(x, y), t)

    def test_constructions_per_call(self, monkeypatch):
        """A replay (``receive_response``) builds no ``TimePoint`` either:
        the buffer holds each measurement's scalars."""
        measurements = list(self._seeded_walk(seed=11, length=1500))
        filt = RayTraceFilter(7, TimePoint(Point(0.0, 0.0), 0), RayTraceConfig(4.0))

        built = Counter()
        for cls in (Point, Rectangle, TimePoint):
            def counted_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)

        tally = Counter()  # (entry point, emitted a report?) -> calls

        def counted(call, argument):
            built.clear()
            emitted = call(argument)
            tally[call.__name__, emitted is not None] += 1
            expected = {} if emitted is None else {"Point": 2}
            assert built == expected
            return emitted

        buffered = 0
        reply = None  # the response owed to the latest report
        for measurement in measurements:
            buffered += filt.waiting
            emitted = counted(filt.observe, measurement)
            # "Epoch boundary": three measurements arrived behind the violating one.
            if filt.waiting and filt.buffered_measurements == 4:
                emitted = counted(filt.receive_response, reply)
            if emitted is not None:
                # The reply reuses the report's own corner, outside the counted calls.
                reply = CoordinatorResponse(7, emitted.fsa_low, emitted.t_end)
        # The stream takes every path (absorb, buffer, report from observe and
        # from a replay), and the counts repeat exactly.
        assert buffered == 407
        assert tally == {
            ("observe", False): 1376,
            ("observe", True): 124,
            ("receive_response", False): 124,
            ("receive_response", True): 13,
        }
        assert filt.statistics.states_sent == 137


class _WeakPoint(Point):
    __slots__ = ("__weakref__",)


class _WeakTimePoint(TimePoint):
    __slots__ = ("__weakref__",)


class _WeakUncertainTimePoint(UncertainTimePoint):
    __slots__ = ("__weakref__",)


class TestBufferHoldsScalars:
    """A waiting filter keeps no measurement object alive: each buffered
    measurement, and the one that broke the SSA, is released when
    ``observe`` returns, with its ``Point``."""

    @pytest.mark.parametrize("uncertain", [False, True], ids=["TimePoint", "UncertainTimePoint"])
    def test_a_buffered_measurement_is_released_when_observe_returns(self, uncertain):
        config = RayTraceConfig(1.0, delta=0.2 if uncertain else 0.0)
        filt = RayTraceFilter(7, TimePoint(Point(0.0, 0.0), 0), config)
        assert filt._tolerance_model is not None if uncertain else filt._tolerance_model is None

        def measurement(x, t):
            point = _WeakPoint(x, 0.0)
            if uncertain:
                return _WeakUncertainTimePoint(point, t, 0.3, 0.0), point
            return _WeakTimePoint(point, t), point

        references = []

        def observe(x, t):
            made = measurement(x, t)
            references.extend(weakref.ref(obj) for obj in made)
            return filt.observe(made[0])

        assert observe(1.0, 1) is None
        assert observe(100.0, 2) is not None  # breaks the SSA: buffered again, then waiting
        assert observe(101.0, 3) is None and observe(-100.0, 4) is None  # buffered
        assert filt.waiting and filt.buffered_measurements == 3
        assert [reference() for reference in references] == [None] * 8
        # The replay answers from the scalars as the oracle does from the objects.
        emitted = filt.receive_response(CoordinatorResponse(7, Point(1.0, 0.0), 1))
        assert emitted is not None and filt.buffered_measurements == 2
