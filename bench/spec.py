"""``BENCHMARK.json`` is the one list of workloads and metrics; this loads it."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

__all__ = ["REPO_ROOT", "load_spec", "metric_table"]

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> Dict[str, Any]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def metric_table(spec: Dict[str, Any], section: str) -> Dict[str, Dict[str, Any]]:
    """``{metric name: its BENCHMARK.json entry}`` of ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry for entry in spec[section]}
