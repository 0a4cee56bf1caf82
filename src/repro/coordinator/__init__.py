"""Coordinator tier: motion-path storage, hotness maintenance and SinglePath.

Shards
------
The tier is the paper's: one :class:`GridIndex`, one :class:`HotnessTracker`
and one :class:`SinglePathStrategy` own the whole monitored area, whatever
``num_shards`` says.  ``num_shards`` lays a fixed R x C grid over the plane
(see :mod:`repro.coordinator.partition`) that labels each record with the
shard owning its start vertex, for diagnostics only
(:mod:`repro.coordinator.sharding`); the epoch's cache-missed overlap
components are built by the strategy's execution backend
(:mod:`repro.coordinator.execution`).  Hot paths welded end-to-start are
stitched into *composite corridors* (:mod:`repro.coordinator.stitching`) and
reported through the corridor-aware top-k merge.
"""

from repro.coordinator.grid_index import GridIndex, GridConfig
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.overlaps import OverlapRegion, FsaOverlapStructure
from repro.coordinator.sharding import ShardGrid, ShardRouter, shard_layout
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
    "ShardGrid",
    "ShardRouter",
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
