"""Exact opcode and call counts inside named functions: a ruler that repeats.

Usage, from the repository root::

    python3 -m tools.opcount --function MODULE:QUALNAME [--function ...] \\
        [--calls FIRST:LAST] -- -m MODULE [ARGS ...]

e.g. ``python3 -m tools.opcount --function
repro.coordinator.coordinator:Coordinator.run_epoch -- -m repro run --seed
11``.  ``-- SCRIPT [ARGS ...]`` runs a script instead of a module.

The tool runs itself again, in a child process, under ``PYTHONHASHSEED=0``
(string hashes, and so set and dict orders over strings, repeat), puts the
repository's ``src`` on ``sys.path``, imports every target and runs the
module in that process, as ``python -m`` would, under ``sys.settrace``.  From a target's call to its
return — its dynamic extent — every Python frame entered traces opcodes
(``f_trace_opcodes``): the tool counts the opcodes executed and the Python
calls made (frames entered, generator resumptions included, the target's
own call not), nothing done in C.  A target re-entered inside its own
extent counts once, in the outer extent; a target called inside another's
extent counts in both.

After the run it prints a report, from its ``opcount:`` line on: per
target, one line per call (``#i opcodes calls``) and the total and mean
over the calls in ``--calls FIRST:LAST`` (1-based, inclusive; default every
call).  Counts are a property of the code and its input alone: two runs
print the same report (wall time is never read), but another CPython
version counts other opcodes.  A count ratio says how much Python work
changed, never how much time.
"""

from __future__ import annotations

import os
import platform
import runpy
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Tuple

__all__ = ["Target", "main"]

ROOT = Path(__file__).resolve().parents[1]

USAGE = (
    "usage: python3 -m tools.opcount --function MODULE:QUALNAME [--function ...] "
    "[--calls FIRST:LAST] -- (-m MODULE | SCRIPT) [ARGS ...]"
)


class Target:
    """One named function: its code object and the counts of each call."""

    def __init__(self, name: str) -> None:
        self.name = name
        module_name, _, qualname = name.partition(":")
        if not module_name or not qualname:
            raise ValueError(f"{name!r} is not MODULE:QUALNAME")
        owner = __import__(module_name, fromlist=["_"])
        for part in qualname.split("."):
            owner = getattr(owner, part)
        code = getattr(owner, "__code__", None)
        if code is None:
            raise ValueError(f"{name!r} is not a Python function")
        self.code = code
        #: ``[opcodes, calls]`` per call, in call order.
        self.counts: List[List[int]] = []


class _Tracer:
    """The ``sys.settrace`` hook: opens an extent at a target's call, closes
    it at that frame's return, and counts while any extent is open."""

    def __init__(self, targets: Sequence[Target]) -> None:
        self._targets = {target.code: target for target in targets}
        #: Open extents: ``(frame, target, counts)``, innermost last.
        self._open: List[Tuple[object, Target, List[int]]] = []

    def on_call(self, frame, event, arg):
        open_extents = self._open
        for _frame, _target, counts in open_extents:
            counts[1] += 1
        target = self._targets.get(frame.f_code)
        if target is not None and all(entry[1] is not target for entry in open_extents):
            counts = [0, 0]
            target.counts.append(counts)
            open_extents.append((frame, target, counts))
        if not open_extents:
            return None
        frame.f_trace_opcodes = True
        return self.on_event

    def on_event(self, frame, event, arg):
        open_extents = self._open
        if event == "opcode":
            for _frame, _target, counts in open_extents:
                counts[0] += 1
        elif event == "return" and open_extents:
            self._open = [entry for entry in open_extents if entry[0] is not frame]
        return self.on_event


def _parse(args: List[str]) -> Tuple[List[str], Optional[Tuple[int, int]], List[str]]:
    if "--" not in args:
        raise ValueError("no command after --")
    cut = args.index("--")
    args, command = args[:cut], args[cut + 1:]
    functions: List[str] = []
    calls = None
    while args:
        arg = args.pop(0)
        if arg in ("--function", "--calls") and args:
            value = args.pop(0)
            if arg == "--function":
                if ":" not in value.strip(":"):
                    raise ValueError(f"{value!r} is not MODULE:QUALNAME")
                functions.append(value)
            else:
                first, _, last = value.partition(":")
                calls = (int(first), int(last))
                if not 1 <= calls[0] <= calls[1]:
                    raise ValueError(f"--calls {value} is not FIRST:LAST with 1 <= FIRST <= LAST")
        else:
            raise ValueError(f"unknown option {arg}")
    if not functions:
        raise ValueError("no --function")
    if not command or command == ["-m"]:
        raise ValueError("no command after --")
    return functions, calls, command


def _run(command: List[str]) -> int:
    """Run ``command`` as ``python`` would run it; its exit status."""
    if command[0] == "-m":
        sys.argv = command[1:]
        run = lambda: runpy.run_module(command[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(command)
        run = lambda: runpy.run_path(command[0], run_name="__main__")
    try:
        run()
    except SystemExit as exit:
        if exit.code is None or isinstance(exit.code, int):
            return exit.code or 0
        print(exit.code, file=sys.stderr)
        return 1
    return 0


def report(targets: Sequence[Target], calls: Optional[Tuple[int, int]], out: TextIO) -> None:
    """The per-call lines and the totals of each target."""
    print(f"opcount: PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')} "
          f"{platform.python_implementation()} {platform.python_version()}", file=out)
    for target in targets:
        first, last = calls if calls is not None else (1, len(target.counts))
        chosen = list(enumerate(target.counts, start=1))[first - 1:last]
        opcodes = sum(counts[0] for _i, counts in chosen)
        python_calls = sum(counts[1] for _i, counts in chosen)
        span = f"{first}-{first + len(chosen) - 1}" if chosen else "none"
        print(f"{target.name}: calls {span} of {len(target.counts)}", file=out)
        for index, (count_opcodes, count_calls) in chosen:
            print(f"  #{index} {count_opcodes} {count_calls}", file=out)
        mean = (opcodes / len(chosen), python_calls / len(chosen)) if chosen else (0.0, 0.0)
        print(f"  total opcodes {opcodes} calls {python_calls}; "
              f"per call opcodes {mean[0]:.1f} calls {mean[1]:.1f}", file=out)


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        functions, calls, command = _parse(list(args))
    except ValueError as error:
        print(f"{USAGE}\n{error}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        path = os.pathsep.join(
            entry for entry in (str(ROOT), os.environ.get("PYTHONPATH")) if entry
        )
        env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path}
        sys.stdout.flush()
        return subprocess.call([sys.executable, "-m", "tools.opcount", *args], env=env)
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    try:
        targets = [Target(name) for name in functions]
    except (ImportError, AttributeError, ValueError) as error:
        print(f"{USAGE}\n{error}", file=sys.stderr)
        return 2
    tracer = _Tracer(targets)
    sys.settrace(tracer.on_call)
    try:
        status = _run(command)
    finally:
        sys.settrace(None)
    sys.stdout.flush()
    report(targets, calls, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
