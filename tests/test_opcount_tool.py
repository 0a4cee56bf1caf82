"""``tools.opcount``: exact opcode and call counts inside named functions.

A fake module pins the extent rule (a nested target counts in both extents,
its calls in its caller's), and two runs of ``repro run --seed 11 --objects
40`` print identical reports.  The collection report (``--gc``) repeats too,
on a small script that keeps lists alive.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from tools.opcount import Target, main, report_collections

ROOT = Path(__file__).resolve().parents[1]

FAKE_WORK = (
    "def inner():\n"
    "    return sum(range(3))\n"
    "\n"
    "def outer():\n"
    "    return inner() + inner()\n"
)
FAKE_MAIN = "import fake_work\nfake_work.outer()\nfake_work.outer()\n"

FAKE_KEEPER = (
    "def churn(n):\n"
    "    return [[i] for i in range(n)]\n"
    "\n"
    "def outer():\n"
    "    return [churn(500) for _ in range(5)]\n"
)
FAKE_KEEPER_MAIN = "import fake_keeper\nkept = [fake_keeper.outer() for _ in range(3)]\n"


def _report(arguments: Sequence[str], path: str = "") -> List[str]:
    """The report lines (from ``opcount:`` on) of one run of the tool."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (path, str(ROOT / "src")) if p)}
    env.pop("PYTHONHASHSEED", None)  # the tool sets it itself
    run = subprocess.run(
        [sys.executable, "-m", "tools.opcount", *arguments],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    return lines[next(i for i, line in enumerate(lines) if line.startswith("opcount:")):]


def _per_call(report: List[str]) -> Dict[str, List[List[int]]]:
    """Target name -> ``[opcodes, calls]`` of each call."""
    counts: Dict[str, List[List[int]]] = {}
    for line in report[1:]:
        if not line.startswith(" "):
            counts[line.split(": calls")[0]] = current = []
        elif line.lstrip().startswith("#"):
            current.append([int(cell) for cell in line.split()[1:]])
    return counts


def test_a_nested_target_counts_in_both_extents(tmp_path):
    (tmp_path / "fake_work.py").write_text(FAKE_WORK)
    (tmp_path / "fake_main.py").write_text(FAKE_MAIN)
    report = _report(
        ["--function", "fake_work:outer", "--function", "fake_work:inner", "--", "-m", "fake_main"],
        str(tmp_path),
    )
    assert report[0].startswith("opcount: PYTHONHASHSEED=0 ")
    counts = _per_call(report)
    outer, inner = counts["fake_work:outer"], counts["fake_work:inner"]
    assert len(outer) == 2 and len(inner) == 4
    assert all(calls == 0 for _opcodes, calls in inner)
    # Each outer call enters inner twice and counts inner's opcodes too.
    assert [calls for _opcodes, calls in outer] == [2, 2]
    assert outer[0][0] > inner[0][0] + inner[1][0]
    assert outer[0] == outer[1] and len({tuple(call) for call in inner}) == 1


def test_two_runs_print_identical_counts():
    """The ruler repeats: the same command, run twice, counts the same."""
    arguments = [
        "--function", "repro.coordinator.coordinator:Coordinator.run_epoch",
        "--function", "repro.coordinator.coordinator:Coordinator.top_k",
        "--function", "repro.coordinator.coordinator:Coordinator.top_k_corridors",
        "--", "-m", "repro", "run", "--seed", "11", "--objects", "40",
    ]
    first = _report(arguments)
    assert first == _report(arguments)
    counts = _per_call(first)
    assert len(counts["repro.coordinator.coordinator:Coordinator.run_epoch"]) > 10
    assert sum(opcodes for opcodes, _calls in counts[
        "repro.coordinator.coordinator:Coordinator.top_k"
    ]) > 0


def test_two_runs_print_identical_collection_reports(tmp_path):
    """``--gc``: collections and net allocations per call, from runs
    without ``sys.settrace``, the same on every run."""
    (tmp_path / "fake_keeper.py").write_text(FAKE_KEEPER)
    (tmp_path / "fake_keeper_main.py").write_text(FAKE_KEEPER_MAIN)
    arguments = [
        "--gc", "--function", "fake_keeper:outer", "--function", "fake_keeper:churn",
        "--", "-m", "fake_keeper_main",
    ]
    first = _report(arguments, str(tmp_path))
    assert first == _report(arguments, str(tmp_path))
    assert first[0].startswith("opcount: PYTHONHASHSEED=0 ") and "gc thresholds" in first[0]
    assert "; wrapped fake_keeper:outer fake_keeper:churn; " in first[0]
    counts = _per_call(first)
    outer, churn = counts["fake_keeper:outer"], counts["fake_keeper:churn"]
    assert len(outer) == 3 and len(churn) == 15
    assert all(len(row) == 4 for row in outer + churn)  # gen0 gen1 gen2 allocated
    # Each churn call keeps 500 new lists alive (a few may come off a free
    # list, which the collector does not count), and an outer call counts
    # its five churn calls' allocations.
    assert all(400 <= row[3] <= 501 for row in churn)
    for call, row in enumerate(outer):
        inner = churn[5 * call : 5 * call + 5]
        assert row[3] >= sum(allocated for *_collections, allocated in inner)
        assert row[0] >= sum(collections[0] for collections in inner)
    # 7 500 lists kept alive start young collections inside the extents.
    assert sum(row[0] for row in churn) > 0


def test_the_collection_report_names_the_wrapped_functions():
    """Net allocations move with the set of wrapped targets, so the ``--gc``
    header lists them, in ``--function`` order."""
    names = ["repro.core.scoring:rank_top_k", "repro.core.geometry:interpolate_point"]
    out = io.StringIO()
    report_collections([Target(name) for name in names], None, out)
    header = out.getvalue().splitlines()[0]
    assert header.startswith("opcount: ")
    assert f"; wrapped {names[0]} {names[1]}; per call: gen0 gen1 gen2 allocated" in header


def test_a_bad_command_line_is_a_usage_error(capsys):
    assert main(["--function", "repro.core.scoring:rank_top_k"]) == 2
    assert main(["--", "-m", "repro"]) == 2
    assert main(["--function", "no_colon", "--", "-m", "repro"]) == 2
    assert main(["--function", "a:b", "--calls", "x", "--", "-m", "repro"]) == 2
    assert main(["--calls", "3:1", "--function", "a:b", "--", "-m", "repro"]) == 2
    assert "usage: python3 -m tools.opcount" in capsys.readouterr().err
