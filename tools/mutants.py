"""The committed mutant set: named one-hunk patches of ``src/``, each listed
with the tests that must catch it.

Usage, from the repository root::

    python3 -m tools.mutants              # every mutant, against its listed tests
    python3 -m tools.mutants NAME ...     # the named mutants only
    python3 -m tools.mutants --full       # the whole tier-1 per mutant

The tree is copied to a temporary directory (without ``.git``,
``__pycache__`` and ``.hypothesis``), so the checkout is never written.  For
each mutant the copy's ``src`` file gets the one hunk — ``old`` must occur
in it exactly once — and ``pytest`` runs on the mutant's test ids with a
fixed hypothesis seed and an empty example database; then the file is put
back.  One line per mutant:

* ``caught`` — a listed test failed;
* ``SURVIVED`` — every listed test passed;
* ``STALE`` — ``old`` is not in the file exactly once, or a listed test id
  no longer exists: a refactor moved the hunk or renamed the test, so the
  mutant must be updated with it.

The exit status is 0 only when every mutant is caught.  ``--full`` runs the
whole tier-1 instead of the listed ids and prints every failing id under its
mutant: that is the parity table a change that deletes tests is judged by
(every mutant the parent's tier-1 caught must still be caught).
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Tuple

__all__ = ["Mutant", "MUTANTS", "main"]

ROOT = Path(__file__).resolve().parents[1]

#: ``--hypothesis-seed`` of every run, so a verdict does not depend on luck.
SEED = 0

#: A hung mutant counts as caught once its run takes this long (seconds).
TIMEOUT = 1800

#: A plugin loaded into every run: hypothesis reports the first failing
#: example it finds instead of shrinking it, since a verdict needs a failure,
#: not a minimal one (shrinking a broken state machine can take minutes).
_PLUGIN = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
"""


@dataclass(frozen=True)
class Mutant:
    """One named hunk: ``old`` (exactly once in ``src``) becomes ``new``."""

    name: str
    src: str
    old: str
    new: str
    #: Test ids (as pytest prints them) of which at least one must fail.
    tests: Tuple[str, ...]


_BATCHER = "src/repro/serving/batcher.py"
_COORDINATOR = "src/repro/coordinator/coordinator.py"
_COLUMNAR = "src/repro/coordinator/columnar.py"
_DP_HOT = "src/repro/baselines/dp_hot.py"
_GRID_INDEX = "src/repro/coordinator/grid_index.py"
_OVERLAPS = "src/repro/coordinator/overlaps.py"
_QUERY_VIEW = "src/repro/coordinator/query_view.py"
_RAYTRACE = "src/repro/client/raytrace.py"
_GEOMETRY = "src/repro/core/geometry.py"
_VALUE = "src/repro/core/value.py"
_SCORING = "src/repro/core/scoring.py"
_SERVER = "src/repro/serving/server.py"
_SINGLE_PATH = "src/repro/coordinator/single_path.py"
_STITCHING = "src/repro/coordinator/stitching.py"

_MATRIX = "tests/test_differential.py::test_every_configuration_answers_as_the_reference"
_ORACLE = "tests/test_single_path_oracle.py::test_the_shipped_configuration_answers_as_the_oracle"
_DP_ORACLE = "tests/test_dp_oracle.py"
_ORACLE_BUILD = "tests/test_overlap_properties.py::TestScalarBuildEqualsOracle"
_OVERLAP_PROPERTIES = "tests/test_overlap_properties.py"
_EQUAL_X_REMOVAL = "tests/test_columnar.py::TestEndpointTableKernels::test_removal_among_equal_x_takes_its_own_path"
_WELD_CYCLE = "tests/test_stitching_properties.py::TestWeldCycles::test_cross_shard_cycle_weld_accounting"
_POOL_CACHE = "tests/test_delta_properties.py::TestPoolCacheBitIdentity"
_STITCHER = "tests/test_delta_properties.py::TestIncrementalStitcherProperties"
_STEADY = "tests/test_delta_properties.py::TestSteadyRosterAnswers::test_every_answer_equals_the_oracle"
_STEADY_WORK = "tests/test_coordinator.py::TestSteadyQueryWork"
_KEPT = "tests/test_delta_properties.py::TestKeptTopK::test_every_answer_equals_a_rank_of_the_live_keys"
_ALTERNATING = "tests/test_delta_properties.py::TestKeptSetOnAStream::test_alternating_orders_each_read_their_own_kept_set"
_GRID = "tests/test_grid_index.py"
_SEQ_RUNS = "tests/test_batcher_properties.py::TestRunLengthDedupe"
_HISTOGRAM = "tests/test_batcher_properties.py::TestLatencyHistogram"
_ENVELOPE = "tests/test_serving_protocol.py::TestEnvelopeIntegers"
_VALUE_TWINS = "tests/test_value_objects.py"
_WORKLOAD = "src/repro/workload/moving_objects.py"
_WORKLOAD_PIN = "tests/test_workload.py::TestStreamPin::test_the_stream_is_the_recorded_one"
_WORKLOAD_ORACLE = "tests/test_workload.py::TestOracle"


MUTANTS: List[Mutant] = [
    # -- SinglePath's shared rules: no configuration differs, so the oracle catches --
    Mutant("boost_counts_a_candidate_twice", _SINGLE_PATH,
           "occurrences[path_id] += 1", "occurrences[path_id] += 2",
           (f"{_ORACLE}[co_occurrence]",)),
    Mutant("boost_counts_a_twice_reporting_object_twice", _SINGLE_PATH,
           "if holder not in held:", "if True:",
           (
               "tests/test_single_path.py::TestTwiceReportingObjects::test_a_twice_reporting_object_never_boosts_its_own_candidate",
           )),
    Mutant("case_1_tie_goes_to_the_higher_id", _SINGLE_PATH,
           "(hotness(path_id) + occurrences[path_id], -path_id)",
           "(hotness(path_id) + occurrences[path_id], path_id)",
           (f"{_ORACLE}[co_occurrence]",)),
    Mutant("a_contested_state_takes_its_first_candidate", _SINGLE_PATH,
           "if len(ids) > 1:", "if len(ids) > 2:",
           (f"{_ORACLE}[co_occurrence]",)),
    # -- the overlap structure (R_all) ---------------------------------------------
    Mutant("overlap_high_x_tie_takes_the_fsa_bound", _OVERLAPS,
           "if fsa_high_x < high_x:", "if fsa_high_x <= high_x:",
           (
               f"{_ORACLE_BUILD}::test_direct_adds[built]",
               f"{_ORACLE_BUILD}::test_epoch_builds[built]",
           )),
    Mutant("overlap_low_x_tie_takes_the_fsa_bound", _OVERLAPS,
           "if fsa_low_x > low_x:", "if fsa_low_x >= low_x:",
           (
               f"{_ORACLE_BUILD}::test_direct_adds[built]",
               f"{_ORACLE_BUILD}::test_epoch_builds[built]",
           )),
    Mutant("overlap_add_keeps_zero_height_regions", _OVERLAPS,
           "if high_y - low_y > 0.0:", "if high_y - low_y >= 0.0:",
           (
               f"{_OVERLAP_PROPERTIES}::TestAgainstAllSubsetsReference::test_regions_match_reference",
               f"{_OVERLAP_PROPERTIES}::TestHardCapProperties::test_capped_regions_are_a_reference_subset",
           )),
    Mutant("overlap_derivation_cap_is_strict", _OVERLAPS,
           "if len(new_regions) >= room:", "if len(new_regions) > room:",
           (f"{_ORACLE_BUILD}::test_direct_adds",)),
    Mutant("overlap_add_keeps_the_table", _OVERLAPS,
           "self._table = None  # derived query table no longer matches the dict", "pass",
           (f"{_ORACLE_BUILD}::test_direct_adds[interleaved]",)),
    Mutant("overlap_refinement_keeps_the_larger_box", _OVERLAPS,
           "if _area(box) < _area(current):", "if _area(box) > _area(current):",
           (f"{_ORACLE_BUILD}::test_direct_adds",)),
    Mutant("smallest_region_count_tie_prefers_fewer_members", _OVERLAPS,
           "area == best_area and len(members) > best_count",
           "area == best_area and len(members) < best_count",
           (f"{_ORACLE}[border]", f"{_ORACLE}[served]")),
    Mutant("hottest_region_area_tie_prefers_the_larger", _OVERLAPS,
           "count == best_count and area < best_area", "count == best_count and area > best_area",
           (
               f"{_ORACLE}[border]",
               f"{_OVERLAP_PROPERTIES}::TestComponentAnswers::test_each_fsa_is_answered_where_its_component_lies[numpy]",
           )),
    Mutant("region_table_ranked_with_the_index_reversed", _COLUMNAR,
           "self._smallest = self._ranked(np.lexsort((index, neg_count, area)), bounds)",
           "self._smallest = self._ranked(np.lexsort((-index, neg_count, area)), bounds)",
           (
               "tests/test_columnar.py::TestRegionTableKernels::test_preranked_ties_fall_to_insertion_order",
               "tests/test_columnar.py::TestRegionTableKernels::test_raw_table_matches_scalar_loops",
           )),
    # -- the overlap plan and its components -------------------------------------------
    Mutant("sweep_closed_y_test_is_strict", _COLUMNAR,
           "            if top > bottom:\n                continue\n",
           "            if top >= bottom:\n                continue\n",
           (
               "tests/test_columnar.py::TestTouchingPairs::test_sweep_equals_the_reference",
               f"{_MATRIX}[equal_ends-1-serial-full-columnar]",
           )),
    Mutant("lone_test_is_strict_in_x", _COLUMNAR,
           "bisect_right(lows, high_x, slot + 1)", "bisect_left(lows, high_x, slot + 1)",
           (
               "tests/test_columnar.py::TestTouchingPairs::test_sweep_equals_the_reference",
               f"{_MATRIX}[equal_ends-1-serial-full-columnar]",
           )),
    Mutant("lone_vertex_bonus_is_zero", _SINGLE_PATH,
           "bonus = 1 if bonus_of is None else bonus_of.get(coordinates)",
           "bonus = 0 if bonus_of is None else bonus_of.get(coordinates)",
           (
               "tests/test_epoch_pass_work.py::TestEpochPassDifferential::test_random_streams_with_duplicate_reporters[31]",
               "tests/test_epoch_pass_work.py::TestEpochPassDifferential::test_crafted_stream_hits_every_merge_case",
           )),
    Mutant("saturate_on_the_epoch_sum", _OVERLAPS,
           "            structures[index] = structure\n",
           "            structures[index] = structure\n"
           "        if len(self.singletons) + sum(map(len, structures)) >= 10000:\n"
           "            self.components = {}\n"
           "            self._merged = FsaOverlapStructure.build(self.fsas)\n",
           (
               "tests/test_isolated_fsas.py::TestIsolatedFsasNeverTipTheCap::test_the_last_state_is_answered_inside_its_own_fsa",
           )),
    Mutant("drop_a_lone_singleton_beside_a_pool", _OVERLAPS,
           "            if box is not None:\n",
           "            if box is not None and not blocks:\n",
           (
               f"{_OVERLAP_PROPERTIES}::TestMergedEpochStructure::test_merged_regions_equal_the_sequential_build_in_order",
               f"{_OVERLAP_PROPERTIES}::TestMergedEpochStructure::test_singletons_never_tip_the_cap",
           )),
    # -- the pool cache (delta mode) ------------------------------------------------
    Mutant("pool_fingerprint_sorts_the_pool", _OVERLAPS,
           "for object_id, fsa in pool.items()", "for object_id, fsa in sorted(pool.items())",
           (
               f"{_OVERLAP_PROPERTIES}::TestMergedEpochStructure::test_cached_components_merge_to_the_same_structure",
           )),
    Mutant("pool_fingerprint_folds_ints_into_floats", _OVERLAPS,
           "(object_id, fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y)",
           "(object_id, *map(float, (fsa.low.x, fsa.low.y, fsa.high.x, fsa.high.y)))",
           (f"{_POOL_CACHE}::test_equal_but_differently_printed_pools_do_not_share_an_entry",)),
    Mutant("pool_cache_bounds_entries_not_regions", _OVERLAPS,
           "while self._regions_held > self._capacity:", "while len(self._table) > self._capacity:",
           (f"{_POOL_CACHE}::test_the_lru_is_bounded_by_regions_not_entries",)),
    Mutant("pool_cache_evicts_the_current_epoch", _OVERLAPS,
           "            if oldest in self._current:\n                break\n",
           "            if oldest in ():\n                break\n",
           (f"{_POOL_CACHE}::test_the_lru_is_bounded_by_regions_not_entries",)),
    Mutant("pool_cache_never_hits", _OVERLAPS,
           "cached = self._table.get(fingerprint)", "cached = None",
           (
               "tests/test_overlap_sharding.py::TestPlanAgainstTheCache::test_a_fresh_fsa_dirties_only_the_component_it_overlaps",
               "tests/test_differential.py::test_the_scenario_exercises_what_it_is_for[repeating]",
           )),
    Mutant("pool_cache_stores_the_misses_reversed", _OVERLAPS,
           "for fingerprint, structure in zip(misses.values(), built):",
           "for fingerprint, structure in zip(misses.values(), built[::-1]):",
           (
               "tests/test_overlap_sharding.py::TestPlanAgainstTheCache::test_a_fresh_fsa_dirties_only_the_component_it_overlaps",
           )),
    Mutant("pool_cache_fingerprints_a_pool_twice", _OVERLAPS,
           "fingerprint = pool_fingerprint(pool)",
           "fingerprint = pool_fingerprint(pool) and pool_fingerprint(pool)",
           (f"{_POOL_CACHE}::test_each_pool_is_fingerprinted_once_an_epoch",)),
    # -- the grid index and its endpoint table ----------------------------------------
    Mutant("object_cells_overlapping_drops_the_last_column", _GRID_INDEX,
           "for col in range(low_col, high_col + 1):", "for col in range(low_col, high_col):",
           (
               f"{_MATRIX}[equal_ends-1-serial-full-columnar]",
               f"{_GRID}::TestSameCellEndpoints::test_clamped_endpoints_share_border_cell_and_delete",
           )),
    # ``clamped_cell`` is the cell rule of the cell table and the shard grid alike.
    Mutant("object_cell_of_skips_the_upper_clamp", _GRID_INDEX,
           "return (min(max(col, 0), cols - 1), min(max(row, 0), rows - 1))",
           "return (min(max(col, 0), cols), min(max(row, 0), rows - 1))",
           (
               "tests/test_grid_index_properties.py::TestBoundaryCells::test_max_edge_maps_to_last_cell",
               "tests/test_shard_grid.py::TestPlaneCover::test_every_point_has_exactly_one_owner_whose_cell_contains_it",
               "tests/test_one_index.py::TestOwnerLabels::test_every_path_lands_on_exactly_one_owner[7]",
           )),
    Mutant("object_delete_keeps_empty_cells", _GRID_INDEX,
           "            if not cell:\n                del self._cells[key]\n",
           "            if not cell and False:\n                del self._cells[key]\n",
           (f"{_GRID}::TestSameCellEndpoints::test_same_cell_path_deletes_cleanly",)),
    # A stored path carries its id and creation time: the oracle's hot set
    # and the snapshot's records read both.
    Mutant("insert_gives_the_previous_id", _GRID_INDEX,
           "MotionPath(start, end, path_id, created_at)",
           "MotionPath(start, end, path_id - 1, created_at)",
           (
               f"{_GRID}::TestTheStoredPath::test_every_read_hands_out_the_object_insert_returned",
               f"{_ORACLE}[query_view]",
           )),
    Mutant("insert_drops_created_at", _GRID_INDEX,
           "MotionPath(start, end, path_id, created_at)",
           "MotionPath(start, end, path_id)",
           (
               f"{_GRID}::TestTheStoredPath::test_every_read_hands_out_the_object_insert_returned",
               f"{_ORACLE}[query_view]",
           )),
    Mutant("object_path_between_ignores_the_start", _GRID_INDEX,
           "if not is_start and other == start and endpoint == end:",
           "if not is_start and endpoint == end:",
           (
               f"{_MATRIX}[epoch_pass-1-serial-full-columnar]",
               f"{_MATRIX}[border-1-serial-full-columnar]",
           )),
    Mutant("path_between_returns_the_last_match", _COLUMNAR,
           "        while path_id is not None:\n"
           "            if end_of[path_id] == end:\n"
           "                return path_id\n"
           "            path_id = after.get(path_id)\n"
           "        return None\n",
           "        found = None\n"
           "        while path_id is not None:\n"
           "            if end_of[path_id] == end:\n"
           "                found = path_id\n"
           "            path_id = after.get(path_id)\n"
           "        return found\n",
           (_EQUAL_X_REMOVAL,)),
    Mutant("end_vertices_in_tests_y_with_lt", _COLUMNAR,
           "if low_y <= y <= high_y:", "if low_y <= y < high_y:",
           (
               _EQUAL_X_REMOVAL,
               "tests/test_one_index.py::TestOwnerLabels::test_endpoint_entries_live_in_the_one_index[7]",
           )),
    Mutant("endpoint_insert_goes_before_its_equals", _COLUMNAR,
           "row = bisect_right(self._xs, end.x)", "row = bisect_left(self._xs, end.x)",
           (_EQUAL_X_REMOVAL, f"{_MATRIX}[equal_ends-1-serial-full-columnar]",)),
    Mutant("endpoint_start_bucket_outlives_its_paths", _COLUMNAR,
           "            if successor is None:\n                del by_start[key]\n",
           "            if successor is None and False:\n                del by_start[key]\n",
           (
               "tests/test_columnar.py::TestEndpointTableKernels::test_start_hash_emptied_with_its_last_path",
           )),
    Mutant("end_table_low_bound_bisects_right", _COLUMNAR,
           "first = bisect_left(xs, low.x)", "first = bisect_right(xs, low.x)",
           (
               "tests/test_isolated_fsas.py::TestInsertProbe::test_probe_equals_a_linear_contains_point_scan",
               "tests/test_isolated_fsas.py::TestInsertProbe::test_equal_ends_are_met_in_insertion_order",
           )),
    Mutant("lone_insert_skips_probe_with_a_twice_reporter", _SINGLE_PATH,
           "lone_probe = probe if len(mapped) < len(states) else None", "lone_probe = None",
           (
               "tests/test_single_path.py::TestLoneInsertProbe::test_the_earlier_state_of_a_twice_reporter_reads_a_lone_insert",
           )),
    Mutant("probe_merge_replaces_the_prefetched_ids", _SINGLE_PATH,
           "group[1].extend(path_ids)", "group[1][:] = path_ids",
           (
               "tests/test_epoch_pass_work.py::TestEpochPassDifferential::test_crafted_stream_hits_every_merge_case",
           )),
    # -- the DP baseline's reuse rule: the oracle catches -----------------------------
    Mutant("dp_credits_the_latest_qualifying_segment", _DP_HOT,
           "path_id = min(", "path_id = max(",
           (
               f"{_DP_ORACLE}::TestCraftedStreams::test_several_qualifying_segments_credit_the_earliest",
               f"{_DP_ORACLE}::test_hypothesis_streams_answer_as_the_oracle",
           )),
    Mutant("dp_tests_only_the_end_against_the_box", _DP_HOT,
           "if inside(paths[path_id].start)", "if inside(paths[path_id].end)",
           (
               f"{_DP_ORACLE}::TestCraftedStreams::test_a_segment_with_only_its_end_in_the_box_is_not_reused",
               f"{_DP_ORACLE}::test_hypothesis_streams_answer_as_the_oracle",
           )),
    # -- corridor stitching -----------------------------------------------------------
    Mutant("weld_rule_skips_the_starter_degree", _STITCHING,
           "                if len(starters) == 1:\n"
           "                    (predecessor_id,) = enders\n"
           "                    (successor_id,) = starters\n",
           "                if starters:\n"
           "                    (predecessor_id,) = enders\n"
           "                    successor_id = min(starters)\n",
           (
               f"{_MATRIX}[feedback-1-serial-delta-columnar]",
               f"{_MATRIX}[query_view-1-serial-delta-object]",
           )),
    Mutant("reweld_never_removes_an_old_weld", _STITCHING,
           "            if old_weld is not None:\n"
           "                old_predecessor, old_successor = old_weld\n",
           "            if old_weld is not None and False:\n"
           "                old_predecessor, old_successor = old_weld\n",
           (
               f"{_MATRIX}[feedback-1-serial-delta-columnar]",
               f"{_MATRIX}[simulation-1-serial-delta-object]",
           )),
    Mutant("apply_taints_the_starters_of_a_touched_vertex", _STITCHING,
           "            old_weld = vertex.weld\n",
           "            old_weld = vertex.weld\n"
           "            dirty.update(map(head_of, vertex.starters))\n",
           (f"{_STITCHER}::test_a_weld_that_flips_back_taints_nothing",)),
    Mutant("chain_score_sums_in_sorted_order", _STITCHING,
           "keys[head] = (least, sum(scores), -head)", "keys[head] = (least, sum(sorted(scores)), -head)",
           (f"{_STITCHER}::test_the_chain_score_is_the_builtin_sum_on_every_python",)),
    Mutant("global_weld_rule_skips_the_ender_degree", _STITCHING,
           "if starters is None or len(enders) != 1 or len(starters) != 1:",
           "if starters is None or len(starters) != 1:",
           (
               f"{_MATRIX}[feedback-1-serial-delta-columnar]",
               f"{_MATRIX}[simulation-1-serial-delta-object]",
           )),
    Mutant("chain_fragments_breaks_cycles_at_the_largest_id", _STITCHING,
           "for head in sorted(ids - visited):", "for head in sorted(ids - visited, reverse=True):",
           (f"{_MATRIX}[query_view-1-serial-delta-object]",)),
    Mutant("corridor_hotness_is_the_maximum", _STITCHING,
           "_set_hotness(self, min(map(_HOTNESS, segments)))",
           "_set_hotness(self, max(map(_HOTNESS, segments)))",
           (
               f"{_MATRIX}[query_view-1-serial-delta-object]",
               "tests/test_differential.py::test_the_scenario_exercises_what_it_is_for[query_view]",
           )),
    Mutant("corridor_ranking_by_score_breaks_ties_to_the_larger_id", _STITCHING,
           "(corridor.score, corridor.hotness, -corridor.lead_path_id)",
           "(corridor.score, corridor.hotness, corridor.lead_path_id)",
           (
               f"{_MATRIX}[epoch_pass-1-serial-delta-object]",
               f"{_MATRIX}[query_view-1-serial-delta-object]",
           )),
    Mutant("refresh_ignores_index_deletions", _QUERY_VIEW,
           "deletions = self._index.deletions", "deletions = self._deletions",
           (f"{_MATRIX}[query_view-1-serial-delta-object]",)),
    Mutant("pending_map_keeps_none_for_unheld_ids", _QUERY_VIEW,
           "                if holds(path_id):\n                    pending[path_id] = None\n",
           "                if True:\n                    pending[path_id] = None\n",
           (
               "tests/test_coordinator.py::TestPathQueriesNeverStitch::test_pending_changes_stay_bounded_and_exact",
           )),
    # -- steady traffic: net-zero skips and standing top-k answers -------------------
    Mutant("net_zero_skip_tests_presence_not_count", _QUERY_VIEW,
           "if old is not None and old[0] == count and trusted:",
           "if old is not None and trusted:",
           (f"{_STEADY}[10-False]", f"{_STEADY_WORK}::test_apply_receives_only_the_ids_whose_state_changed")),
    Mutant("standing_floor_test_is_strict", _SCORING,
           "hits = list(filter(self._floor.__le__,", "hits = list(filter(self._floor.__lt__,",
           (f"{_STEADY}[1-False]", _KEPT)),
    Mutant("a_removal_keeps_the_standing_answer", _QUERY_VIEW,
           "                    del rank[path_id]\n                    edited.append(old)\n",
           "                    del rank[path_id]\n",
           (f"{_STEADY}[1-False]",)),
    Mutant("stitcher_ignores_a_rekeyed_chains_old_key", _STITCHING,
           "        edited = list(map(keys.pop, dirty))",
           "        edited = list(map(keys.pop, dirty.difference(map(chain_of.__getitem__, reheated))))",
           (f"{_STEADY}[1-False]",)),
    Mutant("view_asks_the_hotness_set_for_every_order", _QUERY_VIEW,
           "self._standing[bool(by_score)]", "self._standing[0]",
           (_ALTERNATING,)),
    Mutant("stitcher_asks_the_hotness_set_for_every_order", _STITCHING,
           "self._standing[bool(by_score)]", "self._standing[0]",
           (_ALTERNATING, f"{_STITCHER}::test_patched_report_equals_global_restitch")),
    Mutant("view_edits_only_the_hotness_set", _QUERY_VIEW,
           "            for standing in self._standing:\n",
           "            for standing in self._standing[:1]:\n",
           (_ALTERNATING, f"{_STEADY}[3-True]")),
    Mutant("kept_set_adds_a_removed_key", _SCORING,
           "            if key in kept:\n"
           "                kept.remove(key)\n"
           "            else:\n"
           "                kept.add(key)\n",
           "            kept.add(key)\n",
           (_KEPT,)),
    Mutant("trim_keeps_the_old_floor", _SCORING,
           "self._kept, self._floor = set(trimmed), trimmed[-1]",
           "self._kept = set(trimmed)",
           (_KEPT,)),
    Mutant("kept_set_reranks_one_key_too_late", _SCORING,
           "(len(kept) < k and self._floor)", "(len(kept) < k - 1 and self._floor)",
           (_KEPT,)),
    Mutant("corridor_score_is_the_maximum", _STITCHING,
           "_set_score(self, sum(map(_SCORE, segments)))",
           "_set_score(self, max(map(_SCORE, segments)))",
           (
               f"{_MATRIX}[feedback-1-serial-delta-columnar]",
               f"{_MATRIX}[query_view-1-serial-delta-object]",
           )),
    Mutant("chain_heads_count_predecessors_outside_the_subset", _STITCHING,
           "has_predecessor = {path_id for path_id in ids if predecessor.get(path_id) in ids}",
           "has_predecessor = {path_id for path_id in ids if path_id in predecessor}",
           (
               "tests/test_stitching_properties.py::TestChainHeadsFromPredecessors::test_a_predecessor_outside_the_subset_leaves_a_head",
           )),
    Mutant("rechain_breaks_cycles_at_the_largest_id", _STITCHING,
           "for head in sorted(set(members) - seen):",
           "for head in sorted(set(members) - seen, reverse=True):",
           (_WELD_CYCLE, f"{_MATRIX}[query_view-1-serial-delta-object]",)),
    Mutant("stats_count_the_cycle_closing_weld", _STITCHING,
           "        \"fragments\": welds + len(corridors),\n        \"welds\": welds,\n",
           "        \"fragments\": welds + len(corridors),\n        \"welds\": welds + 1,\n",
           (_WELD_CYCLE,)),
    Mutant("boundary_welds_count_same_owner_welds", _STITCHING,
           "owner_of(left) != owner_of(right) for left, right in zip(path_ids, path_ids[1:])",
           "owner_of(left) == owner_of(right) for left, right in zip(path_ids, path_ids[1:])",
           (
               _WELD_CYCLE,
               "tests/test_one_index.py::TestOwnerLabels::test_every_boundary_weld_follows_a_straddling_path[16]",
           )),
    Mutant("apply_skips_a_removed_fragments_vertices", _STITCHING,
           "                touch(start_vertex)\n                touch(end_vertex)\n",
           "",
           (
               f"{_MATRIX}[query_view-1-serial-delta-object]",
               f"{_MATRIX}[feedback_expiry-1-serial-delta-object]",
           )),
    Mutant("apply_rekeys_an_unchanged_hotness", _STITCHING,
           "if rank[path_id] != key:", "if True:",
           (f"{_STITCHER}::test_apply_is_idempotent",)),
    Mutant("object_starting_at_takes_end_entries", _GRID_INDEX,
           "if is_start and endpoint == start and region.contains_point(other)",
           "if endpoint == start and region.contains_point(other)",
           (
               f"{_GRID}::TestSameCellEndpoints::test_zero_length_path_round_trips",
               f"{_MATRIX}[feedback-1-serial-full-columnar]",
           )),
    Mutant("endpoint_removal_takes_the_first_equal_x", _COLUMNAR,
           "        while pids[row] != path_id:\n            row += 1\n", "",
           (_EQUAL_X_REMOVAL, f"{_MATRIX}[query_view-1-serial-full-columnar]",)),
    Mutant("shipped_regions_lose_their_high_y", _OVERLAPS,
           "structure._regions[frozenset(members)] = (low_x, low_y, high_x, high_y)",
           "structure._regions[frozenset(members)] = (low_x, low_y, high_x, high_x)",
           (
               "tests/test_overlaps.py::TestDuplicateReports::test_serialized_round_trip_preserves_region_order",
           )),
    # The column clamp of ``clamped_cell`` is ``object_cell_of_skips_the_upper_clamp``.
    Mutant("shard_rows_clamp_one_past_the_grid", _GRID_INDEX,
           "min(max(row, 0), rows - 1))", "min(max(row, 0), rows))",
           (
               "tests/test_shard_grid.py::TestPlaneCover::test_every_point_has_exactly_one_owner_whose_cell_contains_it",
               "tests/test_one_index.py::TestOwnerLabels::test_every_path_lands_on_exactly_one_owner[6]",
               "tests/test_grid_index_properties.py::TestBoundaryCells::test_max_edge_maps_to_last_cell",
           )),
    # -- the value objects: each held to its frozen-dataclass twin -------------------
    Mutant("point_accepts_nan", _GEOMETRY,
           "if not (_isfinite(x) and _isfinite(y)):",
           "if not ((_isfinite(x) or x != x) and (_isfinite(y) or y != y)):",
           (
               f"{_VALUE_TWINS}::test_point_validation_matches_the_twin",
               f"{_VALUE_TWINS}::test_point_rejects_nan_and_infinity_as_the_twin_does",
           )),
    Mutant("rectangle_accepts_an_inverted_corner_pair", _GEOMETRY,
           "if low.x > high.x or low.y > high.y:", "if low.x > high.x and low.y > high.y:",
           (
               f"{_VALUE_TWINS}::test_rectangle_validation_matches_the_twin",
               f"{_VALUE_TWINS}::test_rectangle_rejects_an_inversion_on_either_axis",
           )),
    Mutant("frozen_value_allows_assignment", _VALUE,
           "raise FrozenInstanceError(f\"cannot assign to field {name!r}\")",
           "object.__setattr__(self, name, value)",
           (f"{_VALUE_TWINS}::test_assignment_and_deletion_raise_frozen_instance_error",)),
    Mutant("value_eq_crosses_classes", _VALUE,
           "if other.__class__ is self.__class__:", "if isinstance(other, FrozenValue):",
           (f"{_VALUE_TWINS}::test_equality_across_classes_matches_the_twins",)),
    Mutant("value_fields_skip_the_init_check", _VALUE,
           "if parameters != fields:", "if False:",
           (f"{_VALUE_TWINS}::test_a_class_whose_fields_and_init_parameters_differ_is_refused",)),
    # -- the client tier: a waiting filter buffers scalars --------------------------
    Mutant("raytrace_buffers_the_measurement_object", _RAYTRACE,
           "            buffer.extend((x, y, timestamp, sigma_x, sigma_y))\n",
           "            buffer.extend((x, y, timestamp, sigma_x, sigma_y))\n"
           "            self._last_buffered = measurement\n",
           (
               "tests/test_raytrace.py::TestBufferHoldsScalars::"
               "test_a_buffered_measurement_is_released_when_observe_returns[TimePoint]",
           )),
    # -- the workload generator: held to tests/workload_oracle.py -------------------
    Mutant("noise_draws_y_before_x", _WORKLOAD,
           "point = Point(x + (low + width * random_()), y + (low + width * random_()))",
           "noise_y = low + width * random_()\n"
           "                point = Point(x + (low + width * random_()), y + noise_y)",
           (
               f"{_WORKLOAD_PIN}[MovingObjectWorkload-paper_320_seed_11]",
               f"{_WORKLOAD_ORACLE}::test_full_agility",
           )),
    Mutant("initial_noise_draws_y_before_x", _WORKLOAD,
           "                x += -err + (err - -err) * random_()\n"
           "                y += -err + (err - -err) * random_()\n",
           "                y += -err + (err - -err) * random_()\n"
           "                x += -err + (err - -err) * random_()\n",
           (
               f"{_WORKLOAD_PIN}[MovingObjectWorkload-paper_320_seed_11]",
               f"{_WORKLOAD_ORACLE}::test_every_stream_is_the_oracles",
           )),
    Mutant("link_choice_pick_is_strictly_below_the_sum", _WORKLOAD,
           "from bisect import bisect_left", "from bisect import bisect_right as bisect_left",
           (
               f"{_WORKLOAD_ORACLE}::test_picks_on_a_cumulative_probability",
               f"{_WORKLOAD_ORACLE}::test_every_scripted_stream_is_the_oracles",
           )),
    Mutant("link_choice_falls_back_to_the_first_link", _WORKLOAD,
           "choices.append(choices[-1])", "choices.append(choices[0])",
           (
               f"{_WORKLOAD_ORACLE}::test_a_pick_above_the_last_sum_takes_the_last_link",
               f"{_WORKLOAD_ORACLE}::test_every_scripted_stream_is_the_oracles",
           )),
    Mutant("arrival_is_strictly_past_the_far_node", _WORKLOAD,
           "if distance >= leg_arrival[leg]:", "if distance > leg_arrival[leg]:",
           (
               f"{_WORKLOAD_ORACLE}::test_arrivals_exactly_at_the_far_node",
               f"{_WORKLOAD_ORACLE}::test_every_stream_is_the_oracles",
           )),
    Mutant("agility_draw_equal_to_agility_stays", _WORKLOAD,
           "if random_() > agility:", "if random_() >= agility:",
           (f"{_WORKLOAD_ORACLE}::test_every_scripted_stream_is_the_oracles",)),
    # -- the serving tier -----------------------------------------------------------
    Mutant("served_corridors_ignore_by_score", _SERVER,
           "                self._requested_k(message), by_score=self._requested_by_score(message)\n",
           "                self._requested_k(message)\n",
           (
               "tests/test_serving_protocol.py::TestDispatch::"
               "test_true_and_false_each_answer_in_their_own_order[corridors-corridors]",
           )),
    Mutant("seq_runs_membership_excludes_the_run_top", _BATCHER,
           "return run >= 0 and seq <= self.highs[run]",
           "return run >= 0 and seq < self.highs[run]",
           (_SEQ_RUNS,)),
    Mutant("seq_runs_gap_fill_leaves_two_runs", _BATCHER,
           "            self.highs[below] = self.highs[above]\n"
           "            del self.lows[above], self.highs[above]\n",
           "            self.highs[below] = seq\n",
           (_SEQ_RUNS,)),
    Mutant("seq_runs_cap_admits_one_more_run", _BATCHER,
           "elif len(self.lows) >= MAX_SEQ_RUNS:", "elif len(self.lows) > MAX_SEQ_RUNS:",
           (_SEQ_RUNS,)),
    Mutant("seq_runs_cap_refuses_a_gap_fill", _BATCHER,
           "        if joins_below and joins_above:  # fills the gap between two runs\n",
           "        if len(self.lows) >= MAX_SEQ_RUNS:\n"
           "            return False\n"
           "        if joins_below and joins_above:  # fills the gap between two runs\n",
           (_SEQ_RUNS,)),
    Mutant("histogram_bucket_is_one_low", _BATCHER,
           "bucket = min(len(self.counts) - 1, 1 + int(octaves * BUCKETS_PER_OCTAVE))",
           "bucket = min(len(self.counts) - 1, int(octaves * BUCKETS_PER_OCTAVE))",
           (_HISTOGRAM,)),
    Mutant("histogram_counts_a_batch_once", _BATCHER,
           "self.counts[bucket] += count", "self.counts[bucket] += 1",
           (_HISTOGRAM,)),
    Mutant("histogram_quantile_stops_a_rank_early", _BATCHER,
           "if seen > rank:", "if seen >= rank:",
           (_HISTOGRAM,)),
    Mutant("close_epoch_accepts_a_repeated_boundary", _BATCHER,
           "if self._last_now is not None and now <= self._last_now:",
           "if self._last_now is not None and now < self._last_now:",
           (
               "tests/test_serving_protocol.py::TestDispatch::test_stale_tick_is_an_error_not_a_commit",
           )),
    Mutant("close_epoch_drops_the_last_batch", _BATCHER,
           "ordered = canonical_order(batches)", "ordered = canonical_order(batches[:-1])",
           ("tests/test_batcher_properties.py::TestBackpressure",)),
    Mutant("close_epoch_logs_arrival_order", _BATCHER,
           "[encode_update(state) for state in ordered]",
           "[encode_update(state) for batch in batches for state in batch[3]]",
           ("tests/test_batcher_properties.py::TestInterleavingIndependence",)),
    Mutant("envelope_seq_is_truncated", _SERVER,
           "seq = _wire_integer(message[\"seq\"], \"seq\")", "seq = int(message[\"seq\"])",
           (_ENVELOPE,)),
    Mutant("envelope_now_is_truncated", _SERVER,
           "now = _wire_integer(message[\"now\"], \"now\")", "now = int(message[\"now\"])",
           (_ENVELOPE,)),
    Mutant("ticker_takes_explicit_ticks", _SERVER,
           "if self._ticking:", "if False:",
           ("tests/test_serving_protocol.py::TestAutoEpochTicker",)),
    Mutant("served_loop_skips_the_idle_refresh", _SERVER,
           "                        self.coordinator.refresh_queries()\n",
           "                        pass\n",
           (
               "tests/test_serving_protocol.py::TestServedQueryRefresh::"
               "test_the_idle_turn_stitches_and_the_queries_weld_nothing",
           )),
    Mutant("refresh_queries_drops_the_pending_map", _COORDINATOR,
           "            self._view.stitched()\n",
           "            self._view.refresh()\n"
           "            self._view._pending.clear()\n",
           ("tests/test_differential.py::TestLockstep",)),
    # A corridor report cached across direct mutations: full mode keeps the
    # epoch's first report until the next epoch.
    Mutant("corridor_report_outlives_a_direct_mutation", _COORDINATOR,
           "            corridors = stitch_paths(self.hot_paths())\n"
           "            stats = corridor_stats(corridors, self.router.owner_of)\n",
           "            cached = self.__dict__.get(\"_cached_report\")\n"
           "            if cached is None or cached[0] != self._epochs_processed:\n"
           "                report = stitch_paths(self.hot_paths())\n"
           "                cached = self._cached_report = (\n"
           "                    self._epochs_processed, report, corridor_stats(report, self.router.owner_of)\n"
           "                )\n"
           "            corridors, stats = cached[1], cached[2]\n",
           ("tests/test_coordinator.py::TestCorridorsAfterDirectMutation",)),
]


def _pytest_command(ids: Sequence[str]) -> List[str]:
    return [
        sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
        "-p", "mutants_plugin", f"--hypothesis-seed={SEED}", *ids,
    ]


def _run_pytest(tree: Path, ids: Sequence[str]) -> Tuple[Optional[int], str]:
    """``(exit status, output)`` of one run; the status is ``None`` on a timeout."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no example carries over
    paths = (tree / "src", tree.parent / "plugin")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    with subprocess.Popen(
        _pytest_command(ids), cwd=tree, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    ) as run:
        try:
            output, _ = run.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            output = None
        # A mutant can make a test leave its server or workers running: stop
        # whatever is left in the run's process group.
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if output is None:
            return None, run.communicate()[0]
    return run.returncode, output


_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$")


def _failing_ids(output: str) -> List[str]:
    """The test ids of a run's short summary (``-rfE``)."""
    return [match.group(1) for match in map(_FAILURE.match, output.splitlines()) if match]


def _verdict(status: Optional[int]) -> str:
    if status is None or status in (1, 2, 3):  # failures, collection errors, a hang
        return "caught"
    if status == 0:
        return "SURVIVED"
    return "STALE"  # 4: a listed id is not found, 5: nothing collected


def main(
    argv: Optional[Sequence[str]] = None,
    *,
    root: Path = ROOT,
    mutants: Sequence[Mutant] = MUTANTS,
    out: TextIO = sys.stdout,
) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    full = "--full" in args
    names = [arg for arg in args if arg != "--full"]
    unknown = [name for name in names if name.startswith("-") or name not in {m.name for m in mutants}]
    if unknown:
        print(f"usage: python3 -m tools.mutants [--full] [NAME ...]; unknown: {' '.join(unknown)}",
              file=sys.stderr)
        return 2
    chosen = [m for m in mutants if not names or m.name in names]
    width = max(len(m.name) for m in chosen)
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        (tree.parent / "plugin").mkdir()
        (tree.parent / "plugin" / "mutants_plugin.py").write_text(_PLUGIN)
        shutil.copytree(
            root, tree, symlinks=True,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"),
        )
        for mutant in chosen:
            path = tree / mutant.src
            original = path.read_text() if path.is_file() else ""
            if original.count(mutant.old) != 1:
                status, output = 4, ""
                detail = f"'old' occurs {original.count(mutant.old)} times in {mutant.src}"
            else:
                path.write_text(original.replace(mutant.old, mutant.new))
                try:
                    status, output = _run_pytest(tree, [] if full else mutant.tests)
                finally:
                    path.write_text(original)
                detail = "timed out" if status is None else ""
                if status in (4, 5):
                    detail = "a listed test id is not collected"
            verdict = _verdict(status)
            bad += verdict != "caught"
            failed = _failing_ids(output)
            if full and verdict == "caught":
                detail = f"{len(failed)} failing"
            print(f"{verdict:<8} {mutant.name:<{width}}  {detail}".rstrip(), file=out, flush=True)
            if full:
                for test_id in failed:
                    print(f"    {test_id}", file=out, flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants caught", file=out, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
