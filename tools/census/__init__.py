"""The reachability census: which functions of ``src/repro`` no user entry
point enters, and which defaulted parameters no caller outside ``tests/``
sets.

Usage, from the repository root::

    python3 -m tools.census            # both passes, every finding with its reason
    python3 -m tools.census --check    # exit 1 when a pass differs from its keeper file

**Function pass** (runtime).  Every entry point of :data:`ENTRY_POINTS` runs
as its own process, two at a time, with ``tools/census/hook`` first on the
``PYTHONPATH`` and ``CENSUS_OUT`` naming a scratch directory: the hook's
``sitecustomize`` writes one line per ``src/repro`` code object the first
time it is entered, in that process and in every process it forks or starts.
An ``ast`` walk of ``src/repro`` lists every ``def``; the unreached ones are
the difference.  A ``def`` nested in an unreached one is not listed again.

**Knob pass** (static).  A knob is a defaulted parameter of a ``def`` in
``src/repro`` or a defaulted field of a ``*Config`` dataclass.  It counts as
set when a call in ``src/``, ``bench/``, ``benchmarks/`` or ``examples/``
passes it — by keyword, by position, or through ``*``/``**`` expansion —
where calls are matched to definitions by name (the callee's last name; a
class name for ``__init__`` and for the fields of a ``*Config``;
``replace(config, field=...)`` and ``partial(f, ...)`` are seen through).  A
name shared by two definitions can only make a knob count as set, never
unset.

Each pass is compared with its keeper file (:data:`FUNCTION_KEEPERS`,
:data:`KNOB_KEEPERS`): one finding a line, then its reason.  A finding that is
not a keeper (``+``) or a keeper that is no longer a finding (``-``) fails
``--check``, and so does a keeper without a reason or an entry point that
ends with an exit status other than its own.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, TextIO, Tuple

__all__ = [
    "ENTRY_POINTS", "EntryPoint", "Knob", "entered_functions", "functions", "knobs",
    "main", "unreached_functions", "unset_knobs",
]

ROOT = Path(__file__).resolve().parents[2]
HOOK = Path(__file__).resolve().parent / "hook"
FUNCTION_KEEPERS = Path("tools/census/functions.txt")
KNOB_KEEPERS = Path("tools/census/knobs.txt")

#: Where the knob pass looks for calls (never ``tests/``).
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

#: Entry points run this many at a time.
WORKERS = 2

#: An entry point still running after this many seconds is stopped and fails the census.
TIMEOUT = 300


@dataclass(frozen=True)
class EntryPoint:
    """One command; ``{python}``, ``{root}`` and ``{tmp}`` (a fresh scratch
    directory, also its working directory) are filled in when it runs."""

    argv: Tuple[str, ...]
    #: The exit status the command must end with.
    status: int = 0
    #: Run from the repository root (pytest needs its rootdir configuration).
    in_root: bool = False


def _repro(*argv: str, status: int = 0) -> EntryPoint:
    return EntryPoint(("{python}", "-m", "repro", *argv), status)


def _bench(workload: str, trace: str) -> EntryPoint:
    return EntryPoint(("{python}", "-m", "bench", "--workload", workload, "--smoke",
                       "--trace", trace, "--out", "{tmp}"), in_root=True)


_WORKLOADS = ("sim_paper", "fleet_dense", "fleet_steady", "fleet_procs", "serve_closed")
_FAULTS = ("drop_batch", "duplicate_batch", "reorder_batch", "stall_epoch")
_EXAMPLES = ("evacuation_monitoring", "network_discovery", "quickstart", "targeted_advertising")

#: Every user entry point: each CLI command and flag family, a live server
#: driven over every op, the bench smoke traced and untraced, the
#: ``benchmarks/`` suite and every example.  Longest first.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint(("{python}", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--benchmark-disable", "benchmarks"), in_root=True),
    _repro("figure7", "--scale", "0.002", "--seed", "3", "--csv", "{tmp}/figure7"),
    _repro("figure8", "--scale", "0.002", "--seed", "3", "--csv", "{tmp}/figure8"),
    _repro("ablations", "--scale", "0.002", "--seed", "3", "--csv", "{tmp}/ablations"),
    *(_bench(workload, trace) for workload in _WORKLOADS for trace in ("0", "1")),
    _repro("run", "--seed", "11"),
    _repro("run", "--seed", "11", "--kernel", "object"),
    _repro("run", "--seed", "11", "--epoch-mode", "full"),
    _repro("run", "--seed", "11", "--shards", "16"),
    _repro("run", "--seed", "11", "--shards", "4", "--backend", "processes"),
    _repro("run", "--seed", "11", "--delta", "0.1"),
    _repro("run", "--objects", "1", "--duration", "11"),
    _repro("figure9", "--scale", "0.002"),
    _repro("figure10", "--scale", "0.002"),
    *(_repro("serve", "--scenario", "bursty_downtown", "--seed", "42", "--chaos", fault,
             "--chaos-seed", "7") for fault in _FAULTS),
    _repro("serve", "--scenario", "bursty_downtown", "--seed", "42", "--chaos", "kill_worker",
           "--chaos-seed", "7", "--shards", "16", "--backend", "processes"),
    _repro("serve", "--scenario", "uniform_trickle", "--seed", "42", "--concurrent"),
    _repro("serve", "--scenario", "ramp", "--seed", "42"),
    _repro("serve", "--scenario", "ramp", "--max-pending", "3", status=1),
    _repro("serve", "--scenario", "thundering_herd", "--seed", "42"),
    _repro("serve", "--list-scenarios"),
    EntryPoint(("{python}", "-m", "tools.census.live_server")),
    EntryPoint(("{python}", "-m", "tools.census.live_server", "--epoch-seconds", "0.2")),
    *(EntryPoint(("{python}", f"{{root}}/examples/{name}.py")) for name in _EXAMPLES),
    _repro("run", "--help"),
    _repro("serve", "--help"),
    _repro("run", "--objects", "0", status=2),
    _repro("serve", "--scenario", "nope", status=2),
)


# -- the function pass ---------------------------------------------------------


@dataclass(frozen=True)
class Function:
    """One ``def``: ``name`` is ``<module path>::<qualified name>``."""

    name: str
    #: The line a code object gives as its first: the first decorator's.
    line: int
    #: The enclosing ``def``'s name, for a nested one.
    parent: Optional[str]


def _modules(root: Path) -> Iterator[Tuple[Path, str]]:
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        yield path, path.relative_to(root / "src").as_posix()


def functions(root: Path = ROOT) -> Dict[Tuple[str, int], Function]:
    """Every ``def`` of ``src/repro``, keyed by ``(real file path, first line)``."""
    found: Dict[Tuple[str, int], Function] = {}
    for path, module in _modules(root):
        filename = os.path.realpath(path)
        names: Set[str] = set()

        def walk(node: ast.AST, prefix: str, parent: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{module}::{prefix}{child.name}"
                    while name in names:  # a property's setter, an overload
                        name += "'"
                    names.add(name)
                    line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[filename, line] = Function(name, line, parent)
                    walk(child, f"{prefix}{child.name}.", name)
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", parent)
                else:
                    walk(child, prefix, parent)

        walk(ast.parse(path.read_text(), str(path)), "", None)
    return found


def _run(entry: EntryPoint, root: Path, out: str) -> Tuple[Optional[int], str]:
    """``(exit status, output)``; the status is None when it timed out."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        argv = [arg.format(python=sys.executable, root=root, tmp=tmp) for arg in entry.argv]
        paths = [str(HOOK), str(root / "src"), str(root)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "CENSUS_OUT": out}
        try:
            completed = subprocess.run(
                argv, cwd=root if entry.in_root else tmp, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired as exc:
            return None, (exc.output or b"").decode(errors="replace")
    return completed.returncode, completed.stdout.decode(errors="replace")


def entered_functions(
    root: Path = ROOT,
    entry_points: Sequence[EntryPoint] = ENTRY_POINTS,
    *,
    errors: Optional[List[str]] = None,
) -> Set[Tuple[str, int]]:
    """``(real file path, first line)`` of every code object the entry points
    entered; an entry point that ends with another status than its own is
    described in ``errors``."""
    entered: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="census-out-") as out:
        with ThreadPoolExecutor(WORKERS) as pool:
            runs = pool.map(lambda entry: _run(entry, root, out), entry_points)
            for entry, (status, output) in zip(entry_points, runs):
                if status != entry.status and errors is not None:
                    tail = "\n".join(output.splitlines()[-5:])
                    errors.append(f"{' '.join(entry.argv)}: exit status {status}, "
                                  f"expected {entry.status}\n{tail}")
        for record in Path(out).iterdir():
            for line in record.read_text().splitlines():
                filename, first, _ = line.split("\t")
                entered.add((os.path.realpath(filename), int(first)))
    return entered


def unreached_functions(root: Path, entered: Set[Tuple[str, int]]) -> List[str]:
    """The unreached ``def``s, a nested one only under a reached parent."""
    defs = functions(root)
    reached = {defs[key].name for key in entered if key in defs}
    return sorted(
        function.name for function in defs.values()
        if function.name not in reached and (function.parent is None or function.parent in reached)
    )


# -- the knob pass ---------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One defaulted parameter or ``*Config`` field."""

    name: str
    #: The call names that reach it.
    callees: Tuple[str, ...]
    keyword: str
    #: Its index among the positional arguments of a call; None when keyword-only.
    position: Optional[int]
    #: A ``*Config`` field, which ``replace(config, field=...)`` also sets.
    field: bool = False


def _decorator_names(node: ast.AST) -> Set[str]:
    names = set()
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", ""))
    return names


def _def_knobs(module: str, node: ast.AST, owner: Optional[ast.ClassDef]) -> Iterator[Knob]:
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    if owner is not None and "staticmethod" not in _decorator_names(node):
        positional = positional[1:]  # self / cls
    if node.name == "__init__" and owner is not None:
        callees: Tuple[str, ...] = (owner.name,)
        label = f"{owner.name}.__init__"
    else:
        callees = (node.name,)
        label = f"{owner.name}.{node.name}" if owner is not None else node.name
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            keyword = None if arg in args.posonlyargs else arg.arg
            yield Knob(f"{module}::{label}({arg.arg})", callees, keyword or "", index)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield Knob(f"{module}::{label}({arg.arg})", callees, arg.arg, None)


def _config_knobs(module: str, node: ast.ClassDef) -> Iterator[Knob]:
    if not node.name.endswith("Config") or "dataclass" not in _decorator_names(node):
        return
    index = 0
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)):
            continue
        if "ClassVar" in ast.dump(statement.annotation):
            continue
        if statement.value is not None:
            name = statement.target.id
            yield Knob(f"{module}::{node.name}.{name}", (node.name,), name, index, field=True)
        index += 1


def knobs(root: Path = ROOT) -> List[Knob]:
    """Every knob of ``src/repro``."""
    found: List[Knob] = []
    for path, module in _modules(root):

        def walk(node: ast.AST, owner: Optional[ast.ClassDef]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.extend(_def_knobs(module, child, owner))
                    walk(child, None)
                elif isinstance(child, ast.ClassDef):
                    found.extend(_config_knobs(module, child))
                    walk(child, child)
                else:
                    walk(child, owner)

        walk(ast.parse(path.read_text(), str(path)), None)
    return found


@dataclass
class _Calls:
    """What the calls of one name pass."""

    keywords: Set[str]
    positional: int = 0  # the most positional arguments any call passes
    star: bool = False  # some call expands ``*args``
    double_star: bool = False  # some call expands ``**kwargs``


def _callees(func: ast.AST, classes: List[ast.ClassDef]) -> List[str]:
    """The names a call reaches: ``super().__init__`` reaches the enclosing
    class's bases, ``cls(...)`` the enclosing class."""
    if isinstance(func, ast.Attribute):
        value = func.value
        if func.attr == "__init__" and classes and isinstance(value, ast.Call) \
                and getattr(value.func, "id", None) == "super":
            return [base.id for base in classes[-1].bases if isinstance(base, ast.Name)]
        return [func.attr]
    if isinstance(func, ast.Name):
        return [classes[-1].name if func.id == "cls" and classes else func.id]
    if isinstance(func, ast.IfExp):
        return [*_callees(func.body, classes), *_callees(func.orelse, classes)]
    return []


def _calls(root: Path) -> Dict[str, _Calls]:
    """Per call name, what its calls outside ``tests/`` pass."""
    calls: Dict[str, _Calls] = {}
    paths = [path for directory in CALLER_DIRS for path in sorted((root / directory).rglob("*.py"))]
    for path in paths:

        # A name bound to a callable (``run = f if ... else g``) calls what it names.
        aliases: Dict[str, List[str]] = {}

        def walk(node: ast.AST, classes: List[ast.ClassDef]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                        and isinstance(child.targets[0], ast.Name):
                    aliases.setdefault(child.targets[0].id, []).extend(_callees(child.value, classes))
                elif isinstance(child, ast.Call):
                    record(child, classes)
                walk(child, [*classes, child] if isinstance(child, ast.ClassDef) else classes)

        def record(call: ast.Call, classes: List[ast.ClassDef]) -> None:
            names, args = _callees(call.func, classes), list(call.args)
            if names == ["partial"] and args:
                names, args = _callees(args[0], classes), args[1:]
            names = [alias for name in names for alias in [name, *aliases.get(name, ())]]
            for name in names:
                entry = calls.setdefault(name, _Calls(set()))
                entry.keywords.update(k.arg for k in call.keywords if k.arg is not None)
                entry.double_star |= any(k.arg is None for k in call.keywords)
                entry.star |= any(isinstance(arg, ast.Starred) for arg in args)
                entry.positional = max(entry.positional, len(args))

        walk(ast.parse(path.read_text(), str(path)), [])
    return calls


def _is_set(knob: Knob, calls: Dict[str, _Calls]) -> bool:
    names = [*knob.callees, "replace"] if knob.field else list(knob.callees)
    for name in names:
        entry = calls.get(name)
        if entry is None:
            continue
        if entry.double_star or knob.keyword in entry.keywords:
            return True
        if name == "replace" or knob.position is None:
            continue
        if entry.star or entry.positional > knob.position:
            return True
    return False


def unset_knobs(root: Path = ROOT) -> List[str]:
    """The knobs no call outside ``tests/`` sets."""
    calls = _calls(root)
    return sorted({knob.name for knob in knobs(root) if not _is_set(knob, calls)})


# -- keeper files and the report -------------------------------------------------


def read_keepers(path: Path) -> Dict[str, str]:
    """``name -> reason`` of a keeper file (``#`` starts a comment line)."""
    keepers: Dict[str, str] = {}
    if path.is_file():
        for line in path.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                name, _, reason = line.strip().partition(" ")
                keepers[name] = reason.strip()
    return keepers


def _report(title: str, findings: Iterable[str], keepers: Dict[str, str], out: TextIO) -> int:
    """Print one pass; return how many lines differ from its keeper file."""
    findings = sorted(findings)
    kept = [name for name in findings if name in keepers]
    print(f"{title}: {len(findings)} found, {len(kept)} of them keepers", file=out)
    bad = 0
    for name in findings:
        if name not in keepers:
            print(f"  + {name}  (not a keeper)", file=out)
            bad += 1
        elif not keepers[name]:
            print(f"  ! {name}  (a keeper without a reason)", file=out)
            bad += 1
        else:
            print(f"    {name}  {keepers[name]}", file=out)
    for name in sorted(set(keepers) - set(findings)):
        print(f"  - {name}  (a keeper that is no longer found)", file=out)
        bad += 1
    return bad


def main(
    argv: Optional[Sequence[str]] = None,
    *,
    root: Path = ROOT,
    entry_points: Sequence[EntryPoint] = ENTRY_POINTS,
    out: TextIO = sys.stdout,
) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args not in ([], ["--check"]):
        print("usage: python3 -m tools.census [--check]", file=sys.stderr)
        return 2
    started = time.monotonic()
    errors: List[str] = []
    entered = entered_functions(root, entry_points, errors=errors)
    bad = _report("unreached functions", unreached_functions(root, entered),
                  read_keepers(root / FUNCTION_KEEPERS), out)
    bad += _report("knobs no caller outside tests/ sets", unset_knobs(root),
                   read_keepers(root / KNOB_KEEPERS), out)
    for error in errors:
        print(f"entry point failed: {error}", file=out)
    print(f"{len(entry_points)} entry points in {time.monotonic() - started:.0f} s; "
          f"{bad} findings differ from the keeper files", file=out)
    return 1 if args == ["--check"] and (bad or errors) else 0
