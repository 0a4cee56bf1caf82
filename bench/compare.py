"""``python3 -m bench.compare A.json B.json`` — did B get worse than A?

Reads two result records written by ``python3 -m bench`` and prints one row per
workload x end-to-end metric: both medians, the ratio B / A (A is the base),
the metric's bound from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the run-to-run spread of either side (interquartile range over
                median) is wider than the bound, so the medians cannot tell —
                unless every run of B reads better than every run of A.

Exit status is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Sequence

from bench.spec import load_spec

__all__ = ["main", "verdict", "spread"]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 with fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    low, _middle, high = quantiles(values, n=4)
    return (high - low) / median(values)


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(base), spread(change)) > bound:
        wins = all(sign * c < sign * b for c in change for b in base)
        return "ok" if wins else "unresolved"
    worsening = sign * (median(change) - median(base)) / median(base)
    return "worse" if worsening > bound else "ok"


def _values(record: Dict[str, Any], workload: str, metric: str) -> List[float]:
    runs = record["workloads"].get(workload, {}).get("runs", [])
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if len(arguments) != 2:
        print("usage: python3 -m bench.compare A.json B.json", file=sys.stderr)
        return 2
    base_record, change_record = (json.loads(Path(path).read_text()) for path in arguments)
    spec = load_spec()
    print(f"{'workload':<14s}{'metric':<16s}{'A median':>14s}{'B median':>14s}"
          f"{'B/A':>8s}{'bound':>7s}  verdict")
    worse = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            base = _values(base_record, workload, metric["name"])
            change = _values(change_record, workload, metric["name"])
            if not base or not change:
                print(f"{workload:<14s}{metric['name']:<16s}{'missing from a record':>43s}  unresolved")
                continue
            outcome = verdict(base, change, metric["better"], metric["bound"])
            worse += outcome == "worse"
            print(
                f"{workload:<14s}{metric['name']:<16s}{median(base):>14.4f}{median(change):>14.4f}"
                f"{median(change) / median(base):>8.3f}{metric['bound']:>7.2f}  {outcome}"
                f" ({metric['unit']}, {metric['better']} is better, n={len(base)}/{len(change)})"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
