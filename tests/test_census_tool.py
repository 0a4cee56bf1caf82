"""``tools.census`` on a synthetic ``src/repro`` in a temporary directory: both
passes, the keeper files and ``--check``'s exit status."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from tools.census import EntryPoint, entered_functions, main, unreached_functions, unset_knobs

MODULE = '''\
import functools
from dataclasses import dataclass, replace


def reached(x, knob=1):
    def inner():
        return x
    return inner()


def unreached():
    def nested():
        return 0
    return nested


def in_a_worker():
    return 1


def expanded(a, b=1, c=2):
    return a + b + c


def partly(a, b=1):
    return a + b


class Box:
    def __init__(self, size, scale=2):
        self.size = size * scale

    def grow(self, by=1):
        self.size += by


@dataclass(frozen=True)
class ThingConfig:
    a: int = 1
    b: int = 2
    c: int = 3
'''

#: The one entry point: calls ``reached``, forks a worker that enters
#: ``in_a_worker`` and leaves through ``os._exit``.
RUN = '''\
import functools
import os
from dataclasses import replace

from repro.mod import Box, ThingConfig, expanded, in_a_worker, partly, reached

reached(1)
expanded(1, **{"c": 3})
functools.partial(partly, 1, b=2)()
Box(3, scale=4).grow(2)
replace(ThingConfig(a=2), c=4)
pid = os.fork()
if pid == 0:
    in_a_worker()
    os._exit(0)
os.waitpid(pid, 0)
'''

#: Calls that do not count: a test may set what no one else does.
TEST = '''\
from repro.mod import ThingConfig, reached, unreached

def test_seams():
    reached(1, knob=2)
    unreached()
    ThingConfig(b=5)
'''

ENTRY_POINTS = (EntryPoint(("{python}", "{root}/examples/run.py")),)

UNREACHED = ["repro/mod.py::unreached"]
UNSET = ["repro/mod.py::ThingConfig.b", "repro/mod.py::reached(knob)"]


@pytest.fixture
def tree(tmp_path: Path) -> Path:
    for relative, text in {
        "src/repro/__init__.py": "",
        "src/repro/mod.py": MODULE,
        "examples/run.py": RUN,
        "tests/test_mod.py": TEST,
    }.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def write_keepers(tree: Path, functions, knobs) -> None:
    census = tree / "tools" / "census"
    census.mkdir(parents=True, exist_ok=True)
    (census / "functions.txt").write_text("".join(f"{name} a reason\n" for name in functions))
    (census / "knobs.txt").write_text("# a comment line\n" + "".join(f"{name} a reason\n" for name in knobs))


def check(tree: Path) -> tuple:
    out = io.StringIO()
    status = main(["--check"], root=tree, entry_points=ENTRY_POINTS, out=out)
    return status, out.getvalue()


class TestFunctionPass:
    def test_only_the_unreached_top_def_is_flagged(self, tree):
        """``nested`` sits under the unreached ``unreached``: listed once,
        through its parent; ``inner`` under a reached one is reached."""
        errors = []
        entered = entered_functions(tree, ENTRY_POINTS, errors=errors)
        assert errors == []
        assert unreached_functions(tree, entered) == UNREACHED

    def test_an_added_unreached_def_is_flagged(self, tree):
        with (tree / "src" / "repro" / "mod.py").open("a") as module:
            module.write("\n\ndef added():\n    return 2\n")
        entered = entered_functions(tree, ENTRY_POINTS)
        assert unreached_functions(tree, entered) == ["repro/mod.py::added", *UNREACHED]

    def test_an_entry_point_with_the_wrong_exit_status_is_reported(self, tree):
        errors = []
        entered_functions(tree, (EntryPoint(ENTRY_POINTS[0].argv, status=3),), errors=errors)
        assert len(errors) == 1 and "exit status 0, expected 3" in errors[0]


class TestKnobPass:
    def test_only_knobs_no_call_outside_tests_sets_are_flagged(self, tree):
        """Set by keyword (``scale``, ``by``), by position (``b`` through
        ``partial``), through ``**`` (``b``, ``c`` of ``expanded``) or through
        ``replace`` (``c``); ``knob`` and ``b`` are set by the test alone."""
        assert unset_knobs(tree) == UNSET

    def test_an_added_knob_no_caller_sets_is_flagged(self, tree):
        module = tree / "src" / "repro" / "mod.py"
        module.write_text(module.read_text().replace("def in_a_worker():", "def in_a_worker(spare=0):"))
        assert unset_knobs(tree) == [UNSET[0], "repro/mod.py::in_a_worker(spare)", UNSET[1]]


class TestCheck:
    def test_green_when_every_finding_is_a_keeper(self, tree):
        write_keepers(tree, UNREACHED, UNSET)
        status, output = check(tree)
        assert status == 0, output
        assert "0 findings differ" in output

    @pytest.mark.parametrize(
        "functions, knobs",
        [
            ([], UNSET),  # an unreached def that is not a keeper
            (UNREACHED, UNSET[:1]),  # an unset knob that is not a keeper
            ([*UNREACHED, "repro/mod.py::reached"], UNSET),  # a keeper that is reached
            (UNREACHED, [*UNSET, "repro/mod.py::Box.__init__(scale)"]),  # a keeper that is set
        ],
        ids=["unreached_def", "unset_knob", "stale_function_keeper", "stale_knob_keeper"],
    )
    def test_fails_when_the_result_differs_from_a_keeper_file(self, tree, functions, knobs):
        write_keepers(tree, functions, knobs)
        status, output = check(tree)
        assert status == 1, output
        assert "1 findings differ" in output

    def test_a_keeper_needs_a_reason(self, tree):
        write_keepers(tree, UNREACHED, UNSET)
        (tree / "tools" / "census" / "functions.txt").write_text(f"{UNREACHED[0]}\n")
        status, output = check(tree)
        assert status == 1 and "without a reason" in output

    def test_without_check_the_status_is_zero(self, tree):
        out = io.StringIO()
        assert main([], root=tree, entry_points=ENTRY_POINTS, out=out) == 0
        assert out.getvalue().count("(not a keeper)") == len(UNREACHED) + len(UNSET)
