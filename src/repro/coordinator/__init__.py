"""Coordinator tier: motion-path storage, hotness maintenance and SinglePath.

Scaling
-------
The tier runs in two layouts behind one interface:

* **Single shard** (``num_shards=1``, the paper's architecture): one
  :class:`GridIndex`, one :class:`HotnessTracker` and one
  :class:`SinglePathStrategy` own the whole monitored area.
* **Sharded** (``num_shards>1``): the area is partitioned into a shard fleet
  — a uniform R x C grid or a load-adaptive kd-split layout rebalanced at
  epoch boundaries (see :mod:`repro.coordinator.partition`) — and every
  shard owns the full coordinator state for its cell
  (see :mod:`repro.coordinator.sharding`).  Object state messages are routed
  to the shard owning their SSA start; motion paths straddling a shard
  boundary are split by *endpoint-owner routing* — each endpoint entry lives
  with the shard owning its location while the record and hotness stay with
  the start owner.  Epochs run as a batched pipeline (group-by-shard intake,
  one candidate pass per shard, one FSA overlap structure per epoch,
  deferred per-shard expiry drains) and the global top-k is an exact merge
  of the per-shard hot paths.  Hot paths welded end-to-start are stitched
  into cross-shard *composite corridors*
  (:mod:`repro.coordinator.stitching`) — recomputed lazily after each
  epoch's commit — and reported through the corridor-aware top-k merge.

The sharded layout is behaviour-identical to the single-shard one — the
differential harness in ``tests/test_sharding_equivalence.py`` asserts
bit-for-bit equality — so scale-out never changes the discovered paths.
"""

from repro.coordinator.grid_index import GridIndex, GridConfig
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.overlaps import OverlapRegion, FsaOverlapStructure
from repro.coordinator.partition import (
    PARTITION_KINDS,
    KdSplitPartition,
    Partition,
    UniformGridPartition,
)
from repro.coordinator.sharding import (
    Shard,
    ShardGrid,
    ShardRouter,
    ShardedGridIndex,
    ShardedHotnessTracker,
    ShardedSinglePath,
    shard_layout,
)
from repro.coordinator.single_path import SinglePathStrategy
from repro.coordinator.stitching import (
    CompositeCorridor,
    CorridorSegment,
    select_top_k_corridors,
    stitch_paths,
)
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig, EpochOutcome

__all__ = [
    "GridIndex",
    "GridConfig",
    "HotnessTracker",
    "OverlapRegion",
    "FsaOverlapStructure",
    "SinglePathStrategy",
    "PARTITION_KINDS",
    "Partition",
    "UniformGridPartition",
    "KdSplitPartition",
    "Shard",
    "ShardGrid",
    "ShardRouter",
    "ShardedGridIndex",
    "ShardedHotnessTracker",
    "ShardedSinglePath",
    "shard_layout",
    "CompositeCorridor",
    "CorridorSegment",
    "select_top_k_corridors",
    "stitch_paths",
    "FleetConfig",
    "Coordinator",
    "CoordinatorConfig",
    "EpochOutcome",
]
