"""A/B ruler: one command run on two trees in ABBA order, compared per metric.

Usage::

    python3 -m tools.ab TREE_A TREE_B [--pairs N] [--workload W] [-- COMMAND ...]

Each pass is one subprocess of ``COMMAND``, run in the tree's root with the
tree's own ``src`` (and nothing else) on ``PYTHONPATH``.  Passes alternate
A B B A A B ..., so pair ``i`` is the ``i``-th run of each tree and a drift of
the box over time hits both sides alike.  The default command is
``python3 -m bench --workload W --trace 0`` (``--workload`` picks ``W``,
default ``sim_paper``); any other command follows ``--``, e.g. ``-- python3
-m repro run --objects 3000``.

A pass's metrics are the last stdout line when it is a JSON object: either a
bench result (``{"metrics": {name: {"value": v}}}``) or a flat object of
numbers.  Otherwise they are its wall time (``wall_s``) and peak resident
set (``peak_rss_mb``, the child's ``VmHWM``).  Per metric the report prints
each side's median and interquartile range, B/A, B's wins out of the pairs
and the verdict of the claim rule: a difference is claimed only when one
side wins at least nine pairs in ten and the medians differ by more than
A's interquartile range.  Whether lower or higher is better comes from tree
A's ``BENCHMARK.json`` (lower when a metric is not listed there).  The
report starts with the box: ``nproc``, the CPU model and the Python version.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

__all__ = ["main"]

USAGE = "usage: python3 -m tools.ab TREE_A TREE_B [--pairs N] [--workload W] [-- COMMAND ...]"

#: The claim rule: the winner takes at least this share of the pairs.
WIN_SHARE = 0.9


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metrics_of(stdout: str) -> Optional[Dict[str, float]]:
    """The metrics of the last stdout line, or ``None`` when it is no JSON object."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    if not isinstance(result, dict):
        return None
    if isinstance(result.get("metrics"), dict):
        result = result["metrics"]
    metrics = {}
    for name, value in result.items():
        if isinstance(value, dict):
            value = value.get("value")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[name] = float(value)
    return metrics


def _run_pass(tree: Path, command: Sequence[str]) -> Tuple[int, Dict[str, float], str]:
    """``(exit status, metrics, stderr)`` of one run of ``command`` in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        process = subprocess.Popen(command, cwd=tree, env=env, stdout=out, stderr=err)
        _pid, status, usage = os.wait4(process.pid, 0)
        wall_s = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(errors="replace"), err.read().decode(errors="replace")
    metrics = _metrics_of(stdout)
    if metrics is None:
        metrics = {"wall_s": wall_s, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    return process.returncode, metrics, stderr


def _directions(tree: Path) -> Dict[str, str]:
    """Metric -> ``"lower"`` / ``"higher"`` from ``tree``'s ``BENCHMARK.json``."""
    try:
        spec = json.loads((tree / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {
        entry["name"]: entry["better"]
        for section in ("end_to_end", "per_layer")
        for entry in spec.get(section, [])
    }


def _iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _median, high = statistics.quantiles(values, n=4)
    return high - low


def verdict(a: Sequence[float], b: Sequence[float], better: str) -> Tuple[int, str]:
    """B's wins over the pairs ``zip(a, b)`` and the claim rule's verdict."""
    sign = 1.0 if better == "higher" else -1.0
    b_wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    a_wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
    needed = math.ceil(WIN_SHARE * len(a))
    apart = abs(statistics.median(b) - statistics.median(a)) > _iqr(a)
    if apart and b_wins >= needed:
        return b_wins, "B better"
    if apart and a_wins >= needed:
        return b_wins, "B worse"
    return b_wins, "no difference"


def _parse(args: List[str]) -> Tuple[Path, Path, int, List[str]]:
    command: List[str] = []
    if "--" in args:
        cut = args.index("--")
        args, command = args[:cut], args[cut + 1:]
    pairs, workload, trees = 10, "sim_paper", []
    while args:
        arg = args.pop(0)
        if arg in ("--pairs", "--workload") and args:
            value = args.pop(0)
            if arg == "--pairs":
                pairs = int(value)
            else:
                workload = value
        elif arg.startswith("-"):
            raise ValueError(f"unknown option {arg}")
        else:
            trees.append(Path(arg).resolve())
    if len(trees) != 2 or pairs < 1:
        raise ValueError("two trees and a positive --pairs are needed")
    if not command:
        command = [sys.executable, "-m", "bench", "--workload", workload, "--trace", "0"]
    return trees[0], trees[1], pairs, command


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    try:
        tree_a, tree_b, pairs, command = _parse(list(sys.argv[1:] if argv is None else argv))
    except ValueError as error:
        print(f"{USAGE}\n{error}", file=sys.stderr)
        return 2
    print(f"box: nproc={os.cpu_count()} cpu={_cpu_model()} python={platform.python_version()}",
          file=out)
    print(f"A: {tree_a}\nB: {tree_b}\ncommand: {' '.join(command)}\n"
          f"pairs: {pairs}, order ABBA", file=out, flush=True)
    runs: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
    failed = 0
    for pair in range(pairs):
        for side in ("AB" if pair % 2 == 0 else "BA"):
            status, metrics, stderr = _run_pass(tree_a if side == "A" else tree_b, command)
            runs[side].append(metrics)
            if status != 0:
                failed += 1
                tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
                print(f"pair {pair + 1} {side}: exit status {status}: {tail[0]}", file=out)
    directions = _directions(tree_a)
    names = [name for name in runs["A"][0] if all(name in run for run in runs["A"] + runs["B"])]
    width = max([len(name) for name in names] + [6])
    print(f"{'metric':<{width}}  {'median A':>12}  {'IQR A':>10}  {'median B':>12}  "
          f"{'IQR B':>10}  {'B/A':>7}  {'B wins':>7}  verdict", file=out)
    for name in names:
        a = [run[name] for run in runs["A"]]
        b = [run[name] for run in runs["B"]]
        median_a, median_b = statistics.median(a), statistics.median(b)
        ratio = f"{median_b / median_a:.3f}" if median_a else "-"
        wins, says = verdict(a, b, directions.get(name, "lower"))
        print(f"{name:<{width}}  {median_a:>12.4f}  {_iqr(a):>10.4f}  {median_b:>12.4f}  "
              f"{_iqr(b):>10.4f}  {ratio:>7}  {f'{wins}/{pairs}':>7}  {says}", file=out)
    if failed:
        print(f"{failed} of {2 * pairs} passes failed", file=out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
