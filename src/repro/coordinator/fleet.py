"""The fleet's topology knobs, declared once.

The paper's coordinator has three parameters — the window ``W``, the grid and
the epoch ``Lambda``.  Everything this module declares sits on top of them
and may never change an answer: how many shards hold the state, how they are
laid out, which backend, kernel and epoch pipeline run them, and whether the
shard count is elastic.

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
from typing import Any, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.coordinator.columnar import KERNELS
from repro.coordinator.delta import EPOCH_MODES
from repro.coordinator.execution import BACKEND_NAMES
from repro.coordinator.partition import PARTITION_KINDS

__all__ = ["ELASTIC_MODES", "FleetConfig"]

#: Values of the ``elastic`` knob: ``off`` keeps the fleet size fixed at
#: construction; ``auto`` enables the cost-model-driven controller of
#: :mod:`repro.coordinator.sharding`.
ELASTIC_MODES: Tuple[str, ...] = ("off", "auto")


def _knob(default: Any, help: str, **flag: Any):
    """A :class:`FleetConfig` field plus what its command-line flag needs.

    ``flag`` holds argparse keywords beyond the field itself (``choices``,
    ``metavar``) and optionally ``flag``, the flag's name when it is not the
    field name with dashes.  The flag's type is the field's annotation
    (``Optional[int]`` parses as ``int``; omitted = ``None``).
    """
    return field(default=default, metadata={"help": help, **flag})


@dataclass(frozen=True)
class FleetConfig:
    """Topology of the coordinator fleet (validated; see the module docstring)."""

    num_shards: int = _knob(
        1,
        "partition the coordinator into N spatial shards arranged in an R x C grid "
        "(e.g. 4 -> 2x2, 16 -> 4x4); 1 = the paper's central coordinator. "
        "Results are bit-for-bit identical for every value.",
        flag="--shards",
        metavar="N",
    )
    backend: str = _knob(
        "serial",
        "where a sharded coordinator builds the epoch's cache-missed overlap "
        "components: 'serial' builds them inline; 'processes' builds them in "
        "stateless worker processes. Candidate passes, decisions and every "
        "index read and mutation run in the parent, in submission order, on "
        "both backends, so both return identical results. Ignored when "
        "--shards is 1.",
        choices=BACKEND_NAMES,
    )
    partition: str = _knob(
        "uniform",
        "spatial partition of a sharded coordinator: 'uniform' (default) is the "
        "fixed R x C shard grid; 'kd' fits kd splits to endpoint density and "
        "rebalances at epoch boundaries whenever the max/mean shard-load ratio "
        "exceeds --rebalance-threshold, migrating shard state onto the new "
        "splits. Both partitions produce bit-for-bit identical results — 'kd' "
        "only evens out *where* the load lives (see the shard statistics line). "
        "Ignored when --shards is 1.",
        choices=PARTITION_KINDS,
    )
    rebalance_threshold: float = _knob(
        2.0,
        "load-imbalance ratio (must exceed 1.0; default 2.0) consulted by two "
        "rules: a kd partition refits and migrates at the next epoch boundary "
        "when max/mean shard records exceed it (--partition kd, or any elastic "
        "fleet once its first split converted it to kd), and --elastic auto "
        "splits the hottest shard when its load exceeds it times the fleet mean.",
        metavar="R",
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
        "coordinator geometry kernels: 'columnar' (default) runs the "
        "vectorized numpy hot path — one endpoint table per index, pre-ranked "
        "region tables, one batched geometry pass per epoch, and shared-memory "
        "epoch shipments to process workers; 'object' is the scalar per-object "
        "reference. Both kernels are bit-for-bit identical on every result "
        "(without numpy, 'columnar' degrades to 'object' and says so).",
        choices=KERNELS,
    )
    elastic: str = _knob(
        "off",
        "elastic shard fleet: 'auto' lets the router's cost model grow and "
        "shrink the shard count at epoch boundaries — splitting hot shards, "
        "merging cold sibling shards — between --min-shards and --max-shards; "
        "'off' (default) keeps the fixed --shards count. Elastic runs stay "
        "bit-for-bit identical to the central coordinator. Ignored when "
        "--shards is 1.",
        choices=ELASTIC_MODES,
    )
    migration_budget: int = _knob(
        0,
        "cap the records any one epoch boundary migrates during a rebalance: "
        "0 (default) migrates stop-the-world; N > 0 warms at most N backfill "
        "records per boundary onto the incoming fleet (plus the epoch's new "
        "inserts) while the outgoing fleet stays authoritative, spreading the "
        "migration over ~records/N boundaries and bounding the per-epoch "
        "latency spike.",
        metavar="N",
    )
    min_shards: Optional[int] = _knob(
        None, "elastic floor for the shard count (default 1)", metavar="N"
    )
    max_shards: Optional[int] = _knob(
        None,
        "elastic cap for the shard count (default: uncapped; with --elastic auto "
        "it may not be below --shards)",
        metavar="N",
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
        if self.rebalance_threshold <= 1.0:
            raise ConfigurationError(
                "rebalance_threshold must exceed 1.0 (max/mean shard load), "
                f"got {self.rebalance_threshold}"
            )
        if self.migration_budget < 0:
            raise ConfigurationError(
                f"migration_budget must be >= 0 (0 = stop-the-world), got {self.migration_budget}"
            )
        if self.min_shards is not None and self.min_shards < 1:
            raise ConfigurationError(f"min_shards must be at least 1, got {self.min_shards}")
        if self.max_shards is not None and self.max_shards < (self.min_shards or 1):
            raise ConfigurationError(
                f"max_shards must be >= min_shards, got {self.max_shards}"
            )
        if (
            self.elastic == "auto"
            and self.max_shards is not None
            and self.max_shards < self.num_shards
        ):
            # The controller grows toward min_shards but has no
            # shrink-toward-cap rule, so a cap below the starting count would
            # be accepted and then never enforced.
            raise ConfigurationError(
                f"max_shards ({self.max_shards}) must be >= num_shards "
                f"({self.num_shards}) with elastic='auto'"
            )
