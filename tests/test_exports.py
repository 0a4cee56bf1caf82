"""Every exported name resolves.

A name listed in a module's ``__all__`` or in a package's lazy ``_EXPORTS``
table that no longer exists fails only when someone accesses it; this walks
them all so a deleted definition cannot leave its export behind.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
import repro.serving

MODULES = sorted(
    ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.name != "repro.__main__"]
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        getattr(module, name)


@pytest.mark.parametrize("package", (repro, repro.serving), ids=lambda package: package.__name__)
def test_every_lazy_export_resolves_to_its_module(package):
    for name, module_name in package._EXPORTS.items():
        assert getattr(package, name) is getattr(importlib.import_module(module_name), name)
