"""Command line of the benchmark.

``python3 -m bench --workload NAME --seed N --seconds S --trace 0|1`` is one
run in the form ``BENCHMARK.json``'s contract asks for: it prints every metric
of the run by name with its unit, and a JSON result object as the last line.
Without ``--workload`` it runs every workload (each run a child process of the
form above, so ``peak_rss_mb`` is per run) ``--repeats`` times untraced and
once traced, and writes the result record — environment, sizes, every run —
to ``--out``; ``python3 -m bench.compare`` reads two such records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench.spec import REPO_ROOT, load_spec, metric_table

__all__ = ["main", "environment_problem", "environment_record"]

DEFAULT_SEED = 11


def environment_problem() -> Optional[str]:
    """Why this interpreter must not produce benchmark numbers, or ``None``.

    Without numpy ``--kernel columnar`` silently runs the object kernel, so
    every "columnar" number would be an object-kernel number; refuse instead.
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        return "numpy is not importable: 'columnar' would silently run the object kernel"
    try:
        from repro.coordinator.columnar import resolve_kernel
    except ImportError as error:
        return f"the repro package is not importable ({error}); is src/ next to bench/?"
    if resolve_kernel("columnar") != "columnar":
        return "resolve_kernel('columnar') degrades to the object kernel on this interpreter"
    return None


def _git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_record(seed: int, seconds: float) -> Dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "load_average_1m": os.getloadavg()[0],
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
    }


def _print_run(name: str, seed: int, traced: bool, result: Dict[str, Any], units: Dict[str, str]) -> None:
    info = result["info"]
    print(
        f"workload {name} seed {seed} trace {int(traced)}: "
        f"{info['timed_epochs']} timed epochs, {info['ack_samples']} ack samples, "
        f"{result['attempted']} operations attempted, {result['failed']} failed, "
        f"oracle {'ok' if result['correct'] else 'FAILED'}"
    )
    for metric, value in result["metrics"].items():
        print(f"  {metric:<34s} {value:>14.4f} {units[metric]}")
    for note in result["notes"]:
        print(f"  INVALID: {note}", file=sys.stderr)


@contextmanager
def _one_resource_tracker():
    """Run under one ``multiprocessing`` resource tracker, stopped and waited for on the way out.

    The processes backend's shared-memory shipments start a tracker in
    whichever process first touches a segment: the parent, and — when it has
    none yet at the fork — every worker, whose tracker is orphaned when the
    worker stops and that nobody waits for.  Started here, before any fork,
    the one tracker is this process's child and the workers inherit its pipe.
    Left alone it would still exit only after this process has, so the pipe
    is shut and the tracker waited for: by then every ring is unlinked and
    every worker joined, so it holds nothing.  A run leaves no process behind.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker.ensure_running()
    try:
        yield
    finally:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def _run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    from bench.harness import run_workload

    traced = bool(args.trace)
    table = metric_table(spec, "per_layer" if traced else "end_to_end")
    with _one_resource_tracker():
        result = run_workload(args.workload, args.seed, args.seconds, traced, args.smoke, args.out)
    unknown = set(result["metrics"]) - set(table)
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # Every metric of the section is printed on every workload; a layer the
    # workload bypasses reads 0.
    result["metrics"] = {name: float(result["metrics"].get(name, 0.0)) for name in table}
    units = {name: entry["unit"] for name, entry in table.items()}
    _print_run(args.workload, args.seed, traced, result, units)
    print("info " + json.dumps(result["info"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] and not result["failed"] else 1


def _child(args: argparse.Namespace, workload: str, seed: int, traced: bool) -> Optional[Dict[str, Any]]:
    """One run in a child process; its parsed result, or ``None`` when it failed."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(int(traced)), "--out", str(args.out),
    ]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    sys.stdout.flush()
    if completed.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("info "):
        print(f"run failed: {workload} seed {seed} trace {int(traced)} "
              f"(exit {completed.returncode})", file=sys.stderr)
        return None
    run = {"seed": seed, **json.loads(lines[-1])}
    run["info"] = json.loads(lines[-2][len("info "):])
    return run


def _run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    record: Dict[str, Any] = {
        "schema": 1,
        "environment": environment_record(args.seed, args.seconds),
        "workloads": {},
        "claim": None,
    }
    failures = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        runs: List[Dict[str, Any]] = []
        for repeat in range(args.repeats):
            run = _child(args, name, args.seed + repeat, traced=False)
            failures += run is None
            if run is not None:
                runs.append(run)
        layers = _child(args, name, args.seed, traced=True)
        failures += layers is None
        # The sizes are the same in every run of a workload: record them once.
        sizes = [run["info"].pop("sizes") for run in (*runs, layers) if run is not None]
        record["workloads"][name] = {
            "why": workload["why"], "sizes": sizes[0] if sizes else None,
            "runs": runs, "traced": layers,
        }
    args.out.mkdir(parents=True, exist_ok=True)
    destination = args.out / "result.json"
    destination.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result record written to {destination}" + (f"; {failures} runs FAILED" if failures else ""))
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    problem = environment_problem()
    if problem is not None:
        print(f"bench: refusing to run: {problem}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run this workload once (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="the only input to the workload generators")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long the timed region measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics; 0: end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes through the same code path (what the tier-1 smoke test runs)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload without --workload (seeds seed..seed+N-1)")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "bench" / "out",
                        help="directory for result records and span files")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    if args.workload is not None:
        return _run_one(args, spec)
    return _run_all(args, spec)
