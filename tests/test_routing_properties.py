"""Property suite for :class:`ShardRouter` endpoint-owner routing.

PRs 1–3 covered the routing invariants only indirectly, through the
end-to-end differential harness; the corridor-stitching merge now *depends*
on them directly (each shard welds at the vertices it owns, trusting that it
holds every endpoint entry there and that the boundary ledgers name every
straddling path), so they are pinned here explicitly:

* every inserted path lands on exactly one owner shard — the shard owning
  its start vertex — and the fleet's records partition the path set;
* the start entry lives with the owner, the end entry with the shard owning
  the end vertex (clamped for points outside the monitored area);
* a path is in the boundary ledger iff its endpoints are owned by different
  shards, recorded under that boundary with its true (start, end) owner pair
  and visible from **both** shards' ledger views;
* deletion keeps the ledger exact.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.coordinator.coordinator import CoordinatorConfig
from repro.coordinator.sharding import ShardRouter

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))

# Endpoints collide with the 4x4 and 2x3 shard borders (multiples of 250,
# thirds) and the 1x7 stripe borders (sevenths), and fall outside the bounds,
# so paths routinely straddle shards and clamp in.
coordinate_pool = st.sampled_from(
    [-60.0, 0.0, 100.0, 1000.0 / 7, 249.9, 250.0, 1000.0 / 3, 3000.0 / 7, 500.0, 501.0,
     625.0, 2000.0 / 3, 750.0, 999.0, 1000.0, 1080.0]
)
points = st.builds(Point, coordinate_pool, coordinate_pool)


@st.composite
def motion_paths(draw) -> MotionPath:
    start = draw(points)
    end = draw(points)
    return MotionPath(start, end)


path_lists = st.lists(motion_paths(), min_size=1, max_size=25)


#: 1x3 and 1x7 column stripes, 2x3 and 4x4.
SHARD_COUNTS = (3, 6, 7, 16)


def make_router(num_shards: int) -> ShardRouter:
    return ShardRouter(
        CoordinatorConfig(bounds=BOUNDS, window=50, cells_per_axis=32, num_shards=num_shards)
    )


class TestEndpointOwnerRouting:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @settings(max_examples=150, deadline=None)
    @given(paths=path_lists)
    def test_every_path_lands_on_exactly_one_owner(self, paths: List[MotionPath], num_shards):
        router = make_router(num_shards)
        records = [router.insert(path) for path in paths]
        assert len(router.owners) == len(records)
        # The owner is the shard of the start vertex, and per-shard record
        # counts partition the insertions (no duplication, no loss).
        for record in records:
            owner = router.owners[record.path_id]
            assert owner is router.shard_of(record.path.start)
        assert sum(len(shard.index) for shard in router.shards) == len(records)
        owning_shards = [router.owners[r.path_id].shard_id for r in records]
        for record, shard_id in zip(records, owning_shards):
            for shard in router.shards:
                holds = record.path_id in shard.index
                assert holds == (shard.shard_id == shard_id)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @settings(max_examples=150, deadline=None)
    @given(paths=path_lists)
    def test_endpoint_entries_live_with_their_vertex_owners(self, paths, num_shards):
        router = make_router(num_shards)
        records = [router.insert(path) for path in paths]
        for record in records:
            start, end = record.path.start, record.path.end
            start_owner = router.shard_of(start)
            end_owner = router.shard_of(end)
            starting = start_owner.index.paths_starting_at(
                start, Rectangle.degenerate(end)
            )
            assert any(r.path_id == record.path_id for r in starting)
            ends = end_owner.index.end_vertices_in(Rectangle.degenerate(end))
            assert record.path_id in ends.get(end, [])


class TestBoundaryLedger:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @settings(max_examples=150, deadline=None)
    @given(paths=path_lists)
    def test_straddling_paths_are_on_both_boundary_ledgers(self, paths, num_shards):
        router = make_router(num_shards)
        records = [router.insert(path) for path in paths]
        ledgered = {
            path_id
            for entries in router.boundary_ledger.values()
            for path_id in entries
        }
        for record in records:
            start_shard = router.shard_of(record.path.start).shard_id
            end_shard = router.shard_of(record.path.end).shard_id
            if start_shard == end_shard:
                assert record.path_id not in ledgered
                continue
            key = (min(start_shard, end_shard), max(start_shard, end_shard))
            assert router.boundary_ledger[key][record.path_id] == (
                start_shard,
                end_shard,
            )
            # Both endpoint owners see the straddling path in their view.
            assert record.path_id in router.boundary_ledger_of(start_shard)
            assert record.path_id in router.boundary_ledger_of(end_shard)
            # A third shard does not.
            for shard in router.shards:
                if shard.shard_id not in (start_shard, end_shard):
                    assert record.path_id not in router.boundary_ledger_of(
                        shard.shard_id
                    )

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @settings(max_examples=150, deadline=None)
    @given(paths=path_lists)
    def test_ledger_counts_match_geometry(self, paths, num_shards):
        router = make_router(num_shards)
        records = [router.insert(path) for path in paths]
        straddling = sum(
            1
            for record in records
            if router.shard_of(record.path.start)
            is not router.shard_of(record.path.end)
        )
        assert router.shard_statistics()["straddling_paths"] == straddling
        # Ledgers never hold empty boundary buckets.
        for entries in router.boundary_ledger.values():
            assert entries

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @settings(max_examples=100, deadline=None)
    @given(paths=path_lists)
    def test_delete_drains_the_ledger(self, paths, num_shards):
        router = make_router(num_shards)
        records = [router.insert(path) for path in paths]
        for record in records:
            router.delete(record.path_id)
        assert router.boundary_ledger == {}
        assert router.owners == {}
        assert sum(len(shard.index) for shard in router.shards) == 0
