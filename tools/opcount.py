"""Exact opcode and call counts inside named functions: a ruler that repeats.

Usage, from the repository root::

    python3 -m tools.opcount --function MODULE:QUALNAME [--function ...] \\
        [--calls FIRST:LAST] [--gc] -- -m MODULE [ARGS ...]

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

``--gc`` prints the collection report instead, from runs without
``sys.settrace`` (a traced frame is an object the collector counts): each
target is replaced on its class or module by a wrapper that opens and closes
its extent.  Per call (``#i gen0 gen1 gen2 allocated``) it gives the
collections of each generation that started inside the extent
(``gc.callbacks``, the command run as it is), and the net allocations the
collector counts there (the change of ``gc.get_count()[0]`` from the
extent's start to its end, in a second run of the command, whose output is
discarded, with the collector off inside every extent, so no collection
resets the count; CPython never lets a deallocation take it below zero).
The bookkeeping allocates no object the collector counts inside an extent.
Under ``PYTHONHASHSEED=0`` two runs print the same report.  The net
allocations move with the set of wrapped targets, though: CPython does not
count an object taken from or put back on a free list, and each wrapper
call's transient argument tuple passes through one.  The report's header
names the wrapped ``--function`` list, in order, and only reports whose
lists are the same compare.  A target bound
before the tool wraps it (a name imported into another module before the
command runs) is missed: compare the report's call counts with the opcode
report's.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import platform
import runpy
import subprocess
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, TextIO, Tuple

__all__ = ["Target", "main"]

ROOT = Path(__file__).resolve().parents[1]

USAGE = (
    "usage: python3 -m tools.opcount --function MODULE:QUALNAME [--function ...] "
    "[--calls FIRST:LAST] [--gc] -- (-m MODULE | SCRIPT) [ARGS ...]"
)

#: Set in the environment of the ``--gc`` report's second run (collector off
#: inside the extents), which prints its counts after this marker.
_ALLOCATIONS_RUN = "OPCOUNT_ALLOCATIONS_RUN"
_ALLOCATIONS_MARKER = "opcount-allocated: "


class Target:
    """One named function: its code object and the counts of each call."""

    def __init__(self, name: str) -> None:
        self.name = name
        module_name, _, qualname = name.partition(":")
        if not module_name or not qualname:
            raise ValueError(f"{name!r} is not MODULE:QUALNAME")
        owner = __import__(module_name, fromlist=["_"])
        for part in qualname.split("."):
            self.owner, self.attribute = owner, part
            owner = getattr(owner, part)
        code = getattr(owner, "__code__", None)
        if code is None:
            raise ValueError(f"{name!r} is not a Python function")
        self.code = code
        #: ``[opcodes, calls]`` per call, in call order.
        self.counts: List[List[int]] = []
        #: ``--gc``: collections of generations 0, 1 and 2, three per call.
        self.collections: List[int] = []
        #: ``--gc``: net allocations the collector counted, one per call.
        self.allocated: List[int] = []
        #: ``--gc``: how deep the target is inside its own extent.
        self.depth = 0

    def collections_per_call(self) -> List[Tuple[int, ...]]:
        flat = self.collections
        return [tuple(flat[i:i + 3]) for i in range(0, len(flat), 3)]

    def wrap(self, enter: Callable[["Target"], None], leave: Callable[["Target"], None]) -> None:
        """Replace the function, where it is defined, by a wrapper calling
        ``enter`` and ``leave`` around each call."""
        owner = self.owner
        if isinstance(owner, type):
            owner = next(cls for cls in owner.__mro__ if self.attribute in vars(cls))
        raw = vars(owner)[self.attribute]
        binding = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if binding else raw

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            enter(self)
            try:
                return function(*args, **kwargs)
            finally:
                leave(self)

        setattr(owner, self.attribute, binding(wrapper) if binding else wrapper)


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


class _Extents:
    """The ``--gc`` hooks: open a target's extent at its outermost call,
    close it at that call's return, and count collections (or, with
    ``collector_off``, net allocations) while it is open.

    Extents nest as calls do, so the one that closes is always the last
    opened.  Every list written inside an extent holds ints only, which the
    collector does not count."""

    def __init__(self, collector_off: bool) -> None:
        self.collector_off = collector_off
        self._open: List[Target] = []
        #: ``gc.get_count()[0]`` at the start of each open extent.
        self._starts: List[int] = []
        self._was_enabled = False

    def enter(self, target: Target) -> None:
        target.depth += 1
        if target.depth > 1:
            return
        if not self.collector_off:
            target.collections.extend((0, 0, 0))
            self._open.append(target)
            return
        if not self._open:
            self._was_enabled = gc.isenabled()
            gc.disable()
        self._open.append(target)
        self._starts.append(gc.get_count()[0])  # last: the bookkeeping is outside

    def leave(self, target: Target) -> None:
        target.depth -= 1
        if target.depth:
            return
        if not self.collector_off:
            self._open.pop()
            return
        end = gc.get_count()[0]  # first: the bookkeeping is outside
        self._open.pop()
        target.allocated.append(end - self._starts.pop())
        if not self._open and self._was_enabled:
            gc.enable()

    def on_collection(self, phase: str, info: dict) -> None:
        if phase == "start":
            generation = info["generation"] - 3
            for target in self._open:
                target.collections[generation] += 1


def _count_extents(targets: Sequence[Target], command: List[str], collector_off: bool) -> int:
    """Run ``command`` with every target wrapped; its exit status."""
    extents = _Extents(collector_off)
    for target in targets:
        target.wrap(extents.enter, extents.leave)
    gc.callbacks.append(extents.on_collection)
    try:
        return _run(command)
    finally:
        gc.callbacks.remove(extents.on_collection)


def _allocations_run(args: List[str], targets: Sequence[Target]) -> Optional[str]:
    """The second ``--gc`` run, in a child: fills each target's
    ``allocated``; an error message, or ``None``."""
    env = {**os.environ, _ALLOCATIONS_RUN: "1"}
    run = subprocess.run(
        [sys.executable, "-m", "tools.opcount", *args], env=env, stdout=subprocess.PIPE, text=True
    )
    lines = [line for line in run.stdout.splitlines() if line.startswith(_ALLOCATIONS_MARKER)]
    if run.returncode != 0 or len(lines) != 1:
        return f"the allocations run ended with status {run.returncode}"
    for target, allocated in zip(targets, json.loads(lines[0][len(_ALLOCATIONS_MARKER):])):
        if len(allocated) != len(target.collections_per_call()):
            return (
                f"{target.name}: {len(allocated)} calls in the allocations run, "
                f"{len(target.collections_per_call())} in the collections run"
            )
        target.allocated = allocated
    return None


def _parse(args: List[str]) -> Tuple[List[str], Optional[Tuple[int, int]], bool, List[str]]:
    if "--" not in args:
        raise ValueError("no command after --")
    cut = args.index("--")
    args, command = args[:cut], args[cut + 1:]
    functions: List[str] = []
    calls = None
    collections = False
    while args:
        arg = args.pop(0)
        if arg == "--gc":
            collections = True
        elif arg in ("--function", "--calls") and args:
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
    return functions, calls, collections, command


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


def _chosen(counts: list, calls: Optional[Tuple[int, int]]) -> list:
    """``(index, counts)`` of the calls in ``FIRST:LAST`` (every call by default)."""
    first, last = calls if calls is not None else (1, len(counts))
    return list(enumerate(counts, start=1))[first - 1:last]


def _header() -> str:
    return (f"opcount: PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')} "
            f"{platform.python_implementation()} {platform.python_version()}")


def report(targets: Sequence[Target], calls: Optional[Tuple[int, int]], out: TextIO) -> None:
    """The per-call lines and the totals of each target."""
    print(_header(), file=out)
    for target in targets:
        first = calls[0] if calls is not None else 1
        chosen = _chosen(target.counts, calls)
        opcodes = sum(counts[0] for _i, counts in chosen)
        python_calls = sum(counts[1] for _i, counts in chosen)
        span = f"{first}-{first + len(chosen) - 1}" if chosen else "none"
        print(f"{target.name}: calls {span} of {len(target.counts)}", file=out)
        for index, (count_opcodes, count_calls) in chosen:
            print(f"  #{index} {count_opcodes} {count_calls}", file=out)
        mean = (opcodes / len(chosen), python_calls / len(chosen)) if chosen else (0.0, 0.0)
        print(f"  total opcodes {opcodes} calls {python_calls}; "
              f"per call opcodes {mean[0]:.1f} calls {mean[1]:.1f}", file=out)


def report_collections(
    targets: Sequence[Target], calls: Optional[Tuple[int, int]], out: TextIO
) -> None:
    """The ``--gc`` report: a header naming every wrapped target, then per
    call ``#i gen0 gen1 gen2 allocated`` and the totals."""
    print(f"{_header()} gc thresholds {' '.join(map(str, gc.get_threshold()))}; "
          f"wrapped {' '.join(target.name for target in targets)}; "
          f"per call: gen0 gen1 gen2 allocated", file=out)
    for target in targets:
        first = calls[0] if calls is not None else 1
        rows = [
            (*collected, allocated)
            for collected, allocated in zip(target.collections_per_call(), target.allocated)
        ]
        chosen = _chosen(rows, calls)
        span = f"{first}-{first + len(chosen) - 1}" if chosen else "none"
        print(f"{target.name}: calls {span} of {len(rows)}", file=out)
        for index, row in chosen:
            print(f"  #{index} {' '.join(map(str, row))}", file=out)
        totals = [sum(row[column] for _i, row in chosen) for column in range(4)]
        per_call = totals[3] / len(chosen) if chosen else 0.0
        print(f"  total gen0 {totals[0]} gen1 {totals[1]} gen2 {totals[2]} "
              f"allocated {totals[3]}; per call allocated {per_call:.2f}", file=out)


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        functions, calls, collections, command = _parse(list(args))
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
    if collections:
        return _collection_report(args, targets, calls, command, out)
    tracer = _Tracer(targets)
    sys.settrace(tracer.on_call)
    try:
        status = _run(command)
    finally:
        sys.settrace(None)
    sys.stdout.flush()
    report(targets, calls, out)
    return status


def _collection_report(
    args: List[str],
    targets: Sequence[Target],
    calls: Optional[Tuple[int, int]],
    command: List[str],
    out: TextIO,
) -> int:
    """``--gc``: count collections here, net allocations in a child; report."""
    if os.environ.get(_ALLOCATIONS_RUN):
        status = _count_extents(targets, command, collector_off=True)
        sys.stdout.flush()
        print(_ALLOCATIONS_MARKER + json.dumps([target.allocated for target in targets]), file=out)
        return status
    status = _count_extents(targets, command, collector_off=False)
    sys.stdout.flush()
    error = _allocations_run(args, targets)
    if error is not None:
        print(f"opcount: {error}", file=sys.stderr)
        return status or 1
    report_collections(targets, calls, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
