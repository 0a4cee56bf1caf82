"""``tools.mutants`` on a two-file tree: one mutant caught, one surviving, one stale."""

from __future__ import annotations

import io

import pytest

from tools.mutants import Mutant, main

SOURCE = "def add(a, b):\n    return a + b\n"
TEST = "from calc import add\n\n\ndef test_add():\n    assert add(2, 3) == 5\n"


def mutant(name: str, old: str, new: str) -> Mutant:
    return Mutant(name, "src/calc.py", old, new, ("tests/test_calc.py::test_add",))


@pytest.mark.parametrize(
    "case, status, verdict",
    [
        (mutant("subtracts", "a + b", "a - b"), 0, "caught"),
        (mutant("default_argument", "def add(a, b):", "def add(a, b=0):"), 1, "SURVIVED"),
        (mutant("moved_hunk", "a * b", "a / b"), 1, "STALE"),
    ],
    ids=lambda value: value.name if isinstance(value, Mutant) else None,
)
def test_each_verdict_and_its_exit_status(tmp_path, case, status, verdict):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "calc.py").write_text(SOURCE)
    (tmp_path / "tests" / "test_calc.py").write_text(TEST)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

    out = io.StringIO()
    assert main([], root=tmp_path, mutants=[case], out=out) == status
    first = out.getvalue().splitlines()[0].split()
    assert first[:2] == [verdict, case.name]

    after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert after == before
