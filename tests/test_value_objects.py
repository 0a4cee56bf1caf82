"""The value-object contract: each slotted class equals its frozen-dataclass twin.

``Point``, ``Rectangle``, ``MotionPath``, ``MotionPathRecord``,
``TimePoint``, ``UncertainTimePoint``, ``ObjectState``,
``CoordinatorResponse``, ``ScoredPath``, ``CorridorSegment`` and
``CompositeCorridor`` are hand-written ``__slots__`` classes (``repro.core.value``); ``tests/value_twins.py`` keeps the
``@dataclass`` definitions they replaced.  On hypothesis-drawn fields —
``-0.0``, ``int`` coordinates beyond 2**53, the ``2`` / ``2.0`` pair — both
must print the same ``repr``, compare and hash alike, survive a pickle round
trip, refuse assignment and deletion with the same
``FrozenInstanceError`` (``MotionPathRecord`` is mutable and unhashable in
both), and reject the same invalid fields with the same error and message.
"""

from __future__ import annotations

import dataclasses
import pickle
from types import SimpleNamespace
from typing import Any, Callable, Dict, Tuple

import pytest
from hypothesis import given, strategies as st

import value_twins
from repro.client.state import CoordinatorResponse, ObjectState
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath, MotionPathRecord
from repro.core.scoring import ScoredPath
from repro.core.trajectory import TimePoint, UncertainTimePoint
from repro.core.value import FrozenValue
from repro.coordinator.stitching import CompositeCorridor, CorridorSegment

REAL = SimpleNamespace(
    Point=Point,
    Rectangle=Rectangle,
    MotionPath=MotionPath,
    MotionPathRecord=MotionPathRecord,
    TimePoint=TimePoint,
    UncertainTimePoint=UncertainTimePoint,
    ObjectState=ObjectState,
    CoordinatorResponse=CoordinatorResponse,
    ScoredPath=ScoredPath,
    CorridorSegment=CorridorSegment,
    CompositeCorridor=CompositeCorridor,
)
NAMES = tuple(vars(REAL))
MUTABLE = ("MotionPathRecord",)


@dataclasses.dataclass(frozen=True)
class Spec:
    """A construction, ``name(*args)``, buildable from either namespace."""

    name: str
    args: Tuple[Any, ...]

    def build(self, namespace) -> Any:
        return getattr(namespace, self.name)(*map(lambda arg: _build(arg, namespace), self.args))


def _build(arg: Any, namespace) -> Any:
    """A ``Spec`` built, a tuple of them built member by member, else as is."""
    if isinstance(arg, Spec):
        return arg.build(namespace)
    if isinstance(arg, tuple):
        return tuple(_build(member, namespace) for member in arg)
    return arg


# Coordinates: any finite float (``-0.0`` included) or an int beyond 2**53.
WIDE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0.0, -0.0, 2, 2.0, 2**53 + 1]),
)
# A small pool, so that two independent draws often compare equal.
NARROW = st.sampled_from([0.0, -0.0, 2, 2.0, 1.5])
INTS = st.one_of(st.integers(-5, 5), st.integers(min_value=-(2**64), max_value=2**64))


def specs(coordinate: st.SearchStrategy, integer: st.SearchStrategy) -> Dict[str, st.SearchStrategy]:
    """One ``Spec`` strategy per class, over the given field values."""
    point = st.builds(lambda x, y: Spec("Point", (x, y)), coordinate, coordinate)

    @st.composite
    def rectangle(draw):
        xs = sorted((draw(coordinate), draw(coordinate)))
        ys = sorted((draw(coordinate), draw(coordinate)))
        return Spec("Rectangle", (Spec("Point", (xs[0], ys[0])), Spec("Point", (xs[1], ys[1]))))

    path = st.builds(lambda a, b: Spec("MotionPath", (a, b)), point, point)
    segment = st.builds(lambda *args: Spec("CorridorSegment", args), integer, path, integer)
    sigma = st.one_of(st.floats(min_value=0.0, allow_nan=False), st.integers(0, 2**60), st.just(-0.0))

    def state(object_id, start, t_start, fsa, t_end):
        return Spec("ObjectState", (object_id, start, t_start, *fsa.args, t_end))

    return {
        "Point": point,
        "Rectangle": rectangle(),
        "MotionPath": path,
        "MotionPathRecord": st.one_of(
            st.builds(lambda *args: Spec("MotionPathRecord", args), integer, path),
            st.builds(lambda *args: Spec("MotionPathRecord", args), integer, path, integer),
        ),
        "TimePoint": st.builds(lambda *args: Spec("TimePoint", args), point, integer),
        "UncertainTimePoint": st.builds(
            lambda *args: Spec("UncertainTimePoint", args), point, integer, sigma, sigma
        ),
        "ObjectState": st.builds(state, integer, point, integer, rectangle(), integer),
        "CoordinatorResponse": st.builds(
            lambda *args: Spec("CoordinatorResponse", args), integer, point, integer
        ),
        "ScoredPath": st.one_of(
            st.builds(lambda *args: Spec("ScoredPath", args), path, integer),
            st.builds(lambda *args: Spec("ScoredPath", args), path, integer, integer),
        ),
        "CorridorSegment": segment,
        "CompositeCorridor": st.lists(segment, min_size=1, max_size=4).map(
            lambda segments: Spec("CompositeCorridor", (tuple(segments),))
        ),
    }


WIDE_SPECS = specs(WIDE, INTS)
NARROW_SPECS = specs(NARROW, st.sampled_from([0, 1]))
by_name = pytest.mark.parametrize("name", NAMES)


def twins(spec: Spec) -> Tuple[Any, Any]:
    return spec.build(REAL), spec.build(value_twins)


def outcome(call: Callable[[], Any]) -> Tuple[str, Any]:
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return ("value", call())
    except Exception as error:  # noqa: BLE001 - the error is what is compared
        return (type(error).__name__, str(error))


@by_name
def test_match_args_are_the_twins_fields(name):
    fields = tuple(field.name for field in dataclasses.fields(getattr(value_twins, name)))
    assert getattr(REAL, name).__match_args__ == fields
    assert getattr(value_twins, name).__match_args__ == fields


def test_a_class_whose_fields_and_init_parameters_differ_is_refused():
    """The field list is written once, in ``__slots__``; ``__init__`` must
    take the fields first, in that order, since pickling calls it with the
    field tuple."""
    with pytest.raises(TypeError, match=r"takes \('y', 'x'\), not its fields \('x', 'y'\)"):

        class Swapped(FrozenValue):
            __slots__ = ("x", "y")

            def __init__(self, y: float, x: float) -> None:
                pass

    class Ordered(FrozenValue):
        __slots__ = ("x", "y")

        def __init__(self, x: float, y: float) -> None:
            Ordered.x.__set__(self, x)
            Ordered.y.__set__(self, y)

    assert Ordered.__match_args__ == ("x", "y")
    assert Ordered(1.0, -0.0).__reduce__() == (Ordered, (1.0, -0.0))


@by_name
@given(data=st.data())
def test_repr_hash_and_equality_match_the_twin(name, data):
    spec = data.draw(WIDE_SPECS[name])
    value, twin = twins(spec)
    assert repr(value) == repr(twin)
    assert outcome(lambda: hash(value)) == outcome(lambda: hash(twin))
    rebuilt = spec.build(REAL)
    assert rebuilt == value and not rebuilt != value
    # ``==`` only against the same class: the twin is a different class.
    assert value.__eq__(twin) is NotImplemented
    assert not value == twin and value != twin
    assert not twin == value and twin != value


@by_name
@given(data=st.data())
def test_equality_matches_the_twins_on_colliding_fields(name, data):
    """Independent draws from a small pool (``0.0`` / ``-0.0``, ``2`` /
    ``2.0``): two values compare as their twins do, and equal values hash
    alike."""
    spec_a, spec_b = data.draw(NARROW_SPECS[name]), data.draw(NARROW_SPECS[name])
    (a, twin_a), (b, twin_b) = twins(spec_a), twins(spec_b)
    assert (a == b) == (twin_a == twin_b)
    assert (a != b) == (twin_a != twin_b)
    if a == b and name not in MUTABLE:
        assert hash(a) == hash(b)


@given(data=st.data())
def test_equality_across_classes_matches_the_twins(data):
    """``==`` holds only within a class: a ``Rectangle`` and a
    ``MotionPath`` over the same two points — the same field tuple — are
    unequal both ways, as their twins are, and neither class's ``__eq__``
    answers for the other."""
    corners = data.draw(WIDE_SPECS["Rectangle"]).args
    for namespace in (REAL, value_twins):
        low, high = (corner.build(namespace) for corner in corners)
        box, path = namespace.Rectangle(low, high), namespace.MotionPath(low, high)
        assert box.__eq__(path) is NotImplemented and path.__eq__(box) is NotImplemented
        assert not box == path and box != path
        assert not path == box and path != box


@by_name
@given(data=st.data())
def test_pickle_round_trip(name, data):
    value, twin = twins(data.draw(WIDE_SPECS[name]))
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is type(value)
    assert restored == value
    assert repr(restored) == repr(value) == repr(pickle.loads(pickle.dumps(twin)))
    for aggregate in ("length", "hotness", "score"):
        if hasattr(twin, aggregate):
            assert repr(getattr(restored, aggregate)) == repr(getattr(twin, aggregate))


@pytest.mark.parametrize("name", [name for name in NAMES if name not in MUTABLE])
@given(data=st.data())
def test_assignment_and_deletion_raise_frozen_instance_error(name, data):
    value, twin = twins(data.draw(WIDE_SPECS[name]))
    attributes = (*value.__match_args__, "length", "not_a_field")
    for attribute in attributes:
        for target in (value, twin):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, attribute, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(target, attribute)
        assert outcome(lambda: setattr(value, attribute, 1)) == outcome(
            lambda: setattr(twin, attribute, 1)
        )
        assert outcome(lambda: delattr(value, attribute)) == outcome(
            lambda: delattr(twin, attribute)
        )
    assert repr(value) == repr(twin)  # nothing changed


@given(spec=WIDE_SPECS["MotionPathRecord"], path_id=INTS)
def test_the_record_is_mutable_and_unhashable(spec, path_id):
    record, twin = twins(spec)
    record.path_id = twin.path_id = path_id
    record.created_at += 1
    twin.created_at += 1
    assert repr(record) == repr(twin)
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(twin))
    assert outcome(lambda: hash(record))[0] == "TypeError"


REJECTED = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400])


@given(x=st.one_of(WIDE, REJECTED), y=st.one_of(WIDE, REJECTED))
def test_point_validation_matches_the_twin(x, y):
    assert outcome(lambda: repr(Point(x, y))) == outcome(lambda: repr(value_twins.Point(x, y)))


def test_point_rejects_nan_and_infinity_as_the_twin_does():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for x, y in ((bad, 0.0), (0.0, bad)):
            real = outcome(lambda: Point(x, y))
            assert real[0] == "InvalidGeometryError"
            assert real == outcome(lambda: value_twins.Point(x, y))


@given(x0=WIDE, y0=WIDE, x1=WIDE, y1=WIDE)
def test_rectangle_validation_matches_the_twin(x0, y0, x1, y1):
    """Any corner pair, inverted on one axis, both or neither."""
    real = outcome(lambda: repr(Rectangle(Point(x0, y0), Point(x1, y1))))
    twin = outcome(
        lambda: repr(value_twins.Rectangle(value_twins.Point(x0, y0), value_twins.Point(x1, y1)))
    )
    assert real == twin
    assert (real[0] == "value") == (x0 <= x1 and y0 <= y1)


def test_rectangle_rejects_an_inversion_on_either_axis():
    for low, high in (((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0))):
        real = outcome(lambda: Rectangle(Point(*low), Point(*high)))
        assert real[0] == "InvalidGeometryError"
        assert real == outcome(
            lambda: value_twins.Rectangle(value_twins.Point(*low), value_twins.Point(*high))
        )


SIGMAS = st.one_of(st.floats(allow_nan=False), st.integers(-3, 3), st.just(-0.0))


@given(sigma_x=SIGMAS, sigma_y=SIGMAS)
def test_uncertain_time_point_validation_matches_the_twin(sigma_x, sigma_y):
    real = outcome(lambda: repr(UncertainTimePoint(Point(1.0, 2.0), 3, sigma_x, sigma_y)))
    twin = outcome(
        lambda: repr(
            value_twins.UncertainTimePoint(value_twins.Point(1.0, 2.0), 3, sigma_x, sigma_y)
        )
    )
    assert real == twin


@given(spec=WIDE_SPECS["CompositeCorridor"])
def test_the_corridor_aggregates_equal_the_twins(spec):
    """``length``, ``hotness`` and ``score`` — slots outside ``repr``, ``==``
    and the hash — hold the twin's ``sum`` / ``min`` values bit for bit."""
    corridor, twin = twins(spec)
    for aggregate in ("length", "hotness", "score"):
        assert repr(getattr(corridor, aggregate)) == repr(getattr(twin, aggregate))
    for segment, twin_segment in zip(corridor.segments, twin.segments):
        assert repr(segment.score) == repr(twin_segment.score)


def test_the_corridor_sums_are_the_builtin_sum_on_every_python():
    """Lengths whose sequential and compensated sums differ (CPython 3.12+
    compensates ``sum``): the slots hold whatever the builtin gives the twin."""
    a, b, c, d = (0.0, 0.0), (0.0, 1e16), (1.0, 1e16), (2.0, 1e16)
    for namespace in (REAL, value_twins):
        points = [namespace.Point(*xy) for xy in (a, b, c, d)]
        segments = tuple(
            namespace.CorridorSegment(i, namespace.MotionPath(points[i], points[i + 1]), 1)
            for i in range(3)
        )
        corridor = namespace.CompositeCorridor(segments)
        assert repr(corridor.length) == repr(corridor.score) == repr(sum([1e16, 1.0, 1.0]))


def test_an_empty_corridor_is_refused_as_the_twin_refuses_it():
    real = outcome(lambda: CompositeCorridor(()))
    assert real[0] == "ConfigurationError"
    assert real == outcome(lambda: value_twins.CompositeCorridor(()))
