"""The fleet's topology knobs, declared once.

The paper's coordinator has three parameters — the window ``W``, the grid and
the epoch ``Lambda``.  Everything this module declares sits on top of them
and may never change an answer: how many shards label the records (a fixed
R x C grid, for the diagnostics only), which backend and epoch pipeline run
the one coordinator, and how its index stores endpoints.

:class:`FleetConfig` is the only place a knob's name, type, default, choices,
help text and validation appear.  Every other layer carries one value of it
(``SimulationConfig.fleet``, ``ScenarioRunner.fleet``,
``replay_accepted_log(..., fleet=...)``) or extends it
(:class:`~repro.coordinator.coordinator.CoordinatorConfig`), and the CLI
generates the fleet flags of ``repro run`` and ``repro serve`` from
``dataclasses.fields(FleetConfig)`` — so adding or deleting a knob is a change
to this file.  ``docs/ARCHITECTURE.md`` ("Fleet knobs") tabulates who consults
each knob and what it does to exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.core.errors import ConfigurationError
from repro.coordinator.columnar import KERNELS
from repro.coordinator.delta import EPOCH_MODES
from repro.coordinator.execution import BACKEND_NAMES

__all__ = ["FleetConfig"]


def _knob(default: Any, help: str, **flag: Any):
    """A :class:`FleetConfig` field plus what its command-line flag needs.

    ``flag`` holds argparse keywords beyond the field itself (``choices``,
    ``metavar``) and optionally ``flag``, the flag's name when it is not the
    field name with dashes.  The flag's type is the field's annotation.
    """
    return field(default=default, metadata={"help": help, **flag})


@dataclass(frozen=True)
class FleetConfig:
    """Topology of the coordinator fleet (validated; see the module docstring)."""

    num_shards: int = _knob(
        1,
        "label records with an R x C grid of N shards for the diagnostics "
        "(e.g. 4 -> 2x2, 16 -> 4x4); every value runs one index, the paper's "
        "central coordinator, so results are bit-for-bit identical.",
        flag="--shards",
        metavar="N",
    )
    backend: str = _knob(
        "serial",
        "where the coordinator builds the epoch's cache-missed overlap "
        "components: 'serial' builds them inline; 'processes' builds them in "
        "stateless worker processes. Candidate passes, decisions and every "
        "index read and mutation run in the parent, in submission order, on "
        "both backends, so both return identical results.",
        choices=BACKEND_NAMES,
    )
    epoch_mode: str = _knob(
        "delta",
        "epoch pipeline: 'delta' (default) makes epoch cost proportional to "
        "what changed — unchanged overlap components are reused across epochs, "
        "corridor chains are maintained incrementally, and only dirtied components "
        "are shipped to process workers; 'full' rebuilds everything per epoch "
        "(the pre-incremental pipeline). Both modes are bit-for-bit identical "
        "on every result.",
        choices=EPOCH_MODES,
    )
    kernel: str = _knob(
        "columnar",
        "how the grid index stores path endpoints: 'columnar' (default) keeps "
        "one endpoint table, ends sorted by x; 'object' keeps the paper's "
        "per-cell hash tables. Both run the same SinglePath epoch pass and are "
        "bit-for-bit identical on every result (without numpy, 'columnar' "
        "degrades to 'object' and says so).",
        choices=KERNELS,
    )

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError(f"num_shards must be positive, got {self.num_shards}")
        for knob in fields(self):
            choices = knob.metadata.get("choices")
            if choices is not None and getattr(self, knob.name) not in choices:
                raise ConfigurationError(
                    f"{knob.name} must be one of {', '.join(choices)}, "
                    f"got {getattr(self, knob.name)!r}"
                )
