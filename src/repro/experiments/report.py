"""CSV reporting for experiment sweeps and ablations.

The figure runners return in-memory report objects; this module serialises
them to CSV so results can be archived, diffed across runs and plotted with
any external tool.  Every writer returns the path it wrote, and the combined
:func:`write_experiment_bundle` produces one directory with a file per
experiment — the machine-readable counterpart of ``benchmarks/results``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import astuple, fields
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.experiments.ablations import (
    CommunicationAblationRow,
    GridResolutionAblationRow,
    UncertaintyAblationRow,
)
from repro.experiments.sweeps import SweepRow

__all__ = [
    "sweep_rows_to_csv",
    "write_sweep_csv",
    "ablation_rows_to_csv",
    "write_experiment_bundle",
]

PathLike = Union[str, Path]


def _rows_to_csv(rows: Sequence[object], row_type: type) -> str:
    """CSV text of dataclass rows: a header of ``row_type``'s fields, then one line per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(field.name for field in fields(row_type))
    writer.writerows(astuple(row) for row in rows)
    return buffer.getvalue()


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Serialise Figure 7/8 sweep rows to CSV text."""
    return _rows_to_csv(rows, SweepRow)


def write_sweep_csv(rows: Sequence[SweepRow], destination: PathLike) -> Path:
    """Write sweep rows to ``destination`` and return the written path."""
    destination = Path(destination)
    destination.write_text(sweep_rows_to_csv(rows))
    return destination


def ablation_rows_to_csv(
    rows: Sequence[Union[CommunicationAblationRow, UncertaintyAblationRow, GridResolutionAblationRow]],
) -> str:
    """Serialise any ablation's rows to CSV text (columns follow the dataclass fields)."""
    return _rows_to_csv(rows, type(rows[0])) if rows else ""


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
            path.write_text(_rows_to_csv(rows, type(rows[0])))
            written.append(path)
    return written
