"""Base of the hand-written ``__slots__`` value classes.

``Point``, ``Rectangle``, ``MotionPath``, ``TimePoint``,
``UncertainTimePoint``, ``ObjectState``, ``CoordinatorResponse``,
``ScoredPath``, ``CorridorSegment`` and ``CompositeCorridor`` are built in
every decision, report and query, so they are slotted classes rather than
dataclasses.  Each keeps the exact contract of the frozen dataclass it
replaced (``docs/ARCHITECTURE.md``, "Value objects"): the constructor's
validation, the generated ``repr``, ``==`` only against the same class, a
hash over the field tuple, ``__match_args__``, a pickle round trip and
``dataclasses.FrozenInstanceError`` on assignment and deletion.

A class lists its fields once, in ``__slots__``, in the order of its
``__init__`` parameters (checked when the class is made); only a class with
a slot that is not a field (``MotionPath``'s ``length``, ``path_id`` and
``created_at``) declares its own ``__match_args__``.  The base derives
``repr``, ``==``, the hash and pickling from ``__match_args__``, through an
``attrgetter`` of the fields
(the field tuple itself for two or more; a one-field class,
``CompositeCorridor``, wraps its field in a 1-tuple, as a dataclass's
field tuple is).  ``Point`` writes its own ``==``, which runs in the index's
exact-match lookups.  A class sets its slots in ``__init__`` through each
slot descriptor's ``__set__`` (``_set_x = Point.x.__set__``), which
bypasses the refusing ``__setattr__`` and is the cheapest way in.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Any, Callable, Tuple

__all__ = ["FrozenValue"]


class FrozenValue:
    """``repr``, ``==``, the hash and pickling from ``__match_args__`` (the
    fields); refuses assignment and deletion, as a frozen dataclass does."""

    __slots__ = ()
    __match_args__: Tuple[str, ...] = ()
    #: The field tuple of an instance.
    _fields: Callable[[Any], Tuple[Any, ...]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" not in cls.__dict__:
            return  # no constructor of its own: it keeps its base's fields
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = cls.__slots__
        fields = cls.__match_args__
        # ``__reduce__`` calls the constructor with the field tuple.
        parameters = cls.__init__.__code__.co_varnames[1 : 1 + len(fields)]
        if parameters != fields:
            raise TypeError(
                f"{cls.__qualname__}.__init__ takes {parameters}, not its fields {fields}"
            )
        if len(fields) == 1:
            field = attrgetter(fields[0])
            cls._fields = staticmethod(lambda value: (field(value),))
        else:
            cls._fields = attrgetter(*fields)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        # Rebuilt through the constructor, which validates again.
        return (self.__class__, self._fields(self))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
