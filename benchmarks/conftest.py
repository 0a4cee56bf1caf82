"""Shared fixtures and reporting helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at a reduced
scale (see ``repro.experiments.config.ExperimentScale``); set the
``REPRO_SCALE`` environment variable to ``1.0`` to run the paper-size
experiments instead.  Each benchmark prints the series it produced and writes
it to ``benchmarks/out/<name>.txt`` (ignored by git) so the numbers survive
pytest's output capture; the tracked copies under ``benchmarks/results/`` —
the ones compared against the paper (see EXPERIMENTS.md) — carry wall-clock
figures, so they are rewritten only when asked to: ``pytest benchmarks
--update-results``.  A plain tier-1 run leaves ``git status`` clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.config import ExperimentScale

RESULTS_DIR = Path(__file__).parent / "results"
SCRATCH_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def experiment_scale() -> ExperimentScale:
    """The scale shared by every benchmark (controlled by REPRO_SCALE)."""
    return ExperimentScale.from_environment()


@pytest.fixture(scope="session")
def results_dir(request) -> Path:
    """Where result tables go: the tracked directory only under ``--update-results``."""
    directory = RESULTS_DIR if request.config.getoption("--update-results") else SCRATCH_DIR
    directory.mkdir(exist_ok=True)
    return directory


@pytest.fixture()
def record_result(results_dir):
    """Print a benchmark's human-readable result table and write it to ``results_dir``."""

    def _record(name: str, content: str) -> Path:
        destination = results_dir / f"{name}.txt"
        destination.write_text(content + "\n")
        print(f"\n[{name}]\n{content}")
        return destination

    return _record
