"""The shard grid: an ownership label over the coordinator's one index.

The paper's coordinator (Section 5) is one grid index, one hotness tracker
and one sequential Algorithm 2 pass, and that is what every ``num_shards``
runs: :class:`~repro.coordinator.coordinator.Coordinator` builds the same
:class:`~repro.coordinator.grid_index.GridIndex`,
:class:`~repro.coordinator.hotness.HotnessTracker` and
:class:`~repro.coordinator.single_path.SinglePathStrategy` whatever the knob
says.  ``num_shards`` only lays a fixed uniform R x C grid
(:class:`~repro.coordinator.partition.ShardGrid`) over the plane, and a
record's *shard label* is the shard owning its **start** vertex.  The grid
is total over the plane (points outside the monitored area land in border
shards), so every record has exactly one label.

No epoch stage reads a label.  They feed two diagnostics, computed on demand
from the one index:

* :meth:`ShardRouter.shard_statistics` — records per shard (min / mean /
  max), ``imbalance`` (max / mean records per shard, 1.0 = even) and
  ``straddling_paths`` (records whose end vertex has another owner than
  their start vertex);
* the ``boundary_welds`` entry of :attr:`ShardRouter.stitch_stats` — welds
  of the latest corridor report whose two fragments carry different labels
  (:func:`~repro.coordinator.stitching.corridor_stats`).

The execution backend belongs to the overlap stage, not to the layout
(:attr:`SinglePathStrategy.backend`, :mod:`repro.coordinator.execution`).

**Exactness.**  Every shard count executes the 1-shard code path, so its
answers equal the seed coordinator's by construction; the exactness harness
(``tests/test_differential.py``) keeps a 16-shard dimension as a cheap
guard.
"""

from __future__ import annotations

from typing import Dict

from repro.core.geometry import Rectangle
from repro.coordinator.grid_index import GridIndex
from repro.coordinator.partition import ShardGrid, shard_layout

# Vestiges: no stage calls these through this module any more, but
# bench/trace.py (which does not change with src/) rebinds each name here.
from repro.coordinator.execution import conflict_groups  # noqa: F401
from repro.coordinator.overlaps import plan_shard_overlaps  # noqa: F401
from repro.coordinator.single_path import apply_co_occurrence_boost  # noqa: F401

__all__ = ["shard_layout", "ShardGrid", "ShardRouter", "ShardedSinglePath"]


class ShardedSinglePath:
    """Vestige: no epoch runs through this class.

    ``bench/trace.py`` (which does not change with ``src/``) imports the name
    and rebinds ``process_epoch`` on it; delete the class with that import.
    """

    #: Never called: bench/ looks it up here.
    process_epoch = None


class ShardRouter:
    """The fixed shard grid plus the ownership diagnostics it labels records with."""

    #: Never called: bench/ (which does not change with src/) looks these up
    #: here.  Corridors are stitched by ``Coordinator.hot_corridors``.
    stitch_epoch = None
    finish_parallel_commit = None
    maybe_rebalance = None

    def __init__(self, bounds: Rectangle, num_shards: int, index: GridIndex, pipeline) -> None:
        #: The fixed R x C shard grid (never replaced).
        self.grid = ShardGrid(bounds, *shard_layout(num_shards))
        #: The coordinator's one index, which every label is read from.
        self.index = index
        #: Vestige: the coordinator's strategy, so that the
        #: ``router.pipeline.backend`` that ``bench/`` reads resolves to the
        #: backend every epoch uses.
        self.pipeline = pipeline
        #: Diagnostics of the most recent corridor report (``{}`` before the
        #: first ``hot_corridors()``; see
        #: :func:`~repro.coordinator.stitching.corridor_stats`).
        self.stitch_stats: Dict[str, int] = {}

    def owner_of(self, path_id: int) -> int:
        """A record's shard label: the shard owning its start vertex."""
        return self.grid.shard_id_of(self.index.get(path_id).start)

    def shard_statistics(self) -> Dict[str, float]:
        """How the index's records spread over the shard labels.

        A record counts once, for the owner of its start vertex;
        ``straddling_paths`` counts the records whose end vertex has another
        owner, each once.
        """
        shard_id_of = self.grid.shard_id_of
        sizes = [0] * self.grid.num_shards
        straddling = 0
        for path in self.index.records:
            start_owner = shard_id_of(path.start)
            sizes[start_owner] += 1
            straddling += shard_id_of(path.end) != start_owner
        total = sum(sizes)
        mean = total / len(sizes)
        return {
            "num_shards": len(sizes),
            "total_records": total,
            "max_shard_records": max(sizes),
            "min_shard_records": min(sizes),
            "mean_shard_records": mean,
            "imbalance": (max(sizes) / mean) if total else 1.0,
            "straddling_paths": straddling,
        }
