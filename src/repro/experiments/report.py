"""CSV reporting for experiment sweeps and ablations.

The figure runners return in-memory report objects; this module serialises
them to CSV so results can be archived, diffed across runs and plotted with
any external tool.  :func:`write_experiment_bundle` produces one directory
with a file per experiment — the machine-readable counterpart of the
printed tables (``EXPERIMENTS.md``).
"""

from __future__ import annotations

import csv
from dataclasses import astuple, fields
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.experiments.sweeps import SweepRow

__all__ = ["write_experiment_bundle"]

PathLike = Union[str, Path]


def write_experiment_bundle(
    destination_dir: PathLike,
    figure7_rows: Sequence[SweepRow] = (),
    figure8_rows: Sequence[SweepRow] = (),
    ablations: Dict[str, Sequence[object]] = None,
) -> List[Path]:
    """Write one CSV per experiment into ``destination_dir``.

    Returns the list of files written.  Empty inputs are skipped, so callers
    can pass whatever subset of experiments they actually ran.
    """
    destination_dir = Path(destination_dir)
    destination_dir.mkdir(parents=True, exist_ok=True)
    experiments = {"figure7": figure7_rows, "figure8": figure8_rows}
    experiments.update((f"ablation_{name}", rows) for name, rows in (ablations or {}).items())
    written: List[Path] = []
    for name, rows in experiments.items():
        rows = list(rows)
        if rows:
            path = destination_dir / f"{name}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(field.name for field in fields(rows[0]))
                writer.writerows(astuple(row) for row in rows)
            written.append(path)
    return written
