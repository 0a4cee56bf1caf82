"""Lazy package exports (PEP 562), shared by :mod:`repro` and :mod:`repro.serving`."""

import importlib
from typing import Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, object], exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """A package's ``__getattr__`` and ``__dir__`` for ``exports``.

    ``exports`` maps each exported name to the module defining it and
    ``namespace`` is the package's ``globals()``.  The first access to a name
    imports its module alone and caches the value in ``namespace``, so
    ``from package import X`` loads only what ``X`` needs.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *namespace["__all__"]})

    return __getattr__, __dir__
