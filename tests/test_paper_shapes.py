"""The shape of the paper's Section 6 results (and the Section 7 feedback
sketch), checked on the drivers' own output.

Every driver runs once per module at ``ExperimentScale.at(0.02)``, seed 42:
exactly what ``repro <driver> --scale 0.02 --seed 42`` prints.
``EXPERIMENTS.md`` gives each command, its output, the paper's claim and the
case below that checks it.  Each claim is one case of :func:`test_claim`,
with the id ``<driver>-<claim>``.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.experiments.ablations import (
    run_communication_ablation,
    run_feedback_ablation,
    run_grid_resolution_ablation,
    run_uncertainty_ablation,
)
from repro.experiments.config import ExperimentScale, scaled_simulation_config
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9, run_figure10
from repro.simulation.engine import HotPathSimulation

SCALE = ExperimentScale.at(0.02)
SEED = 42

#: Each driver's output, by the name of its ``repro`` command.
DRIVERS: Dict[str, Callable[[], Any]] = {
    "table2": lambda: HotPathSimulation(scaled_simulation_config(scale=SCALE, seed=SEED)).run(),
    "figure7": lambda: run_figure7(scale=SCALE, seed=SEED),
    "figure8": lambda: run_figure8(scale=SCALE, seed=SEED),
    "communication": lambda: run_communication_ablation(scale=SCALE, seed=SEED),
    "uncertainty": lambda: run_uncertainty_ablation(scale=SCALE, seed=SEED),
    "grid_resolution": lambda: run_grid_resolution_ablation(scale=SCALE, seed=SEED),
    "feedback": run_feedback_ablation,
    "figure9": lambda: run_figure9(scale=SCALE, seed=SEED, map_width=72, map_height=30),
    "figure10": lambda: run_figure10(scale=SCALE, seed=SEED, map_width=72, map_height=30),
}


@functools.lru_cache(maxsize=None)
def output_of(driver: str) -> Any:
    return DRIVERS[driver]()


CLAIMS: Dict[str, Tuple[str, Callable[[Any], None]]] = {}


def claim(driver: str):
    def register(check: Callable[[Any], None]) -> Callable[[Any], None]:
        CLAIMS[f"{driver}-{check.__name__}"] = (driver, check)
        return check

    return register


# -- Table 2: the default configuration every experiment varies around ----------


@claim("table2")
def the_default_run_indexes_hot_paths(result):
    assert result.coordinator.index_size() > 0
    assert result.summary()["mean_top_k_score"] > 0.0


# -- Figure 7: varying the number of objects ------------------------------------


@claim("figure7")
def the_index_grows_with_the_population(report):
    sizes = [row.index_size for row in report.rows]
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]


@claim("figure7")
def every_top_k_score_is_positive(report):
    assert all(row.top_k_score > 0.0 for row in report.rows)


@claim("figure7")
def more_objects_cost_more_coordinator_time(report):
    # Compare the extremes: the intermediate points are noisy.
    assert report.rows[-1].processing_seconds > report.rows[0].processing_seconds


# -- Figure 8: varying the tolerance --------------------------------------------


@claim("figure8")
def a_larger_tolerance_keeps_a_smaller_index(report):
    assert report.rows[-1].index_size < report.rows[0].index_size


@claim("figure8")
def the_loosest_tolerance_scores_above_the_tightest(report):
    scores = [row.top_k_score for row in report.rows]
    assert all(score > 0.0 for score in scores)
    # Longer paths dominate the score metric.
    assert scores[-1] > scores[0]


# -- Ablation A1: RayTrace against naive reporting -------------------------------


@claim("communication")
def raytrace_suppresses_most_updates(rows):
    for row in rows:
        assert row.raytrace_messages < row.naive_messages
        assert row.reduction > 0.25
    # At the default tolerance and above, the filter suppresses the large
    # majority of updates, and looser tolerance suppresses at least as many
    # messages as the tightest one.
    assert rows[1].reduction > 0.5
    assert rows[-1].raytrace_messages <= rows[0].raytrace_messages


# -- Ablation A2: the (epsilon, delta) uncertainty model -------------------------


@claim("uncertainty")
def a_positive_delta_reports_at_least_as_often(rows):
    assert rows[0].delta == 0.0
    # Tighter probabilistic guarantees can only increase reporting.
    assert rows[-1].uplink_messages >= rows[0].uplink_messages
    assert all(row.mean_index_size > 0 for row in rows)


# -- Ablation A3: the grid resolution --------------------------------------------


@claim("grid_resolution")
def the_grid_resolution_leaves_the_answer_alone(rows):
    sizes = [row.mean_index_size for row in rows]
    scores = [row.mean_top_k_score for row in rows]
    # The grid resolution is a performance knob: results stay (nearly) identical.
    assert max(sizes) - min(sizes) <= 0.05 * max(sizes) + 1.0
    assert max(scores) - min(scores) <= 0.10 * max(scores) + 1.0


# -- Ablation A4: coordinator-to-client feedback (Section 7) ---------------------


@claim("feedback")
def feedback_concentrates_the_index_for_downlink_bytes(rows):
    base, feedback = rows
    # Feedback must keep the protocol functional, concentrate (not fragment)
    # the index, and pay for it only with a larger downlink.
    assert feedback.max_hotness >= 1
    assert feedback.index_size <= base.index_size * 1.25 + 5
    assert feedback.downlink_bytes >= base.downlink_bytes


# -- Figures 9 and 10: the discovered network and the top-20 paths ---------------


@claim("figure9")
def the_discovered_paths_cover_a_quarter_of_the_network(report):
    assert len(report.hot_paths) > 0
    assert report.coverage_fraction() > 0.25


@claim("figure10")
def at_most_twenty_central_paths_hottest_first(report):
    assert 0 < len(report.hot_paths) <= 20
    hotness_values = [hotness for _, hotness in report.hot_paths]
    assert hotness_values == sorted(hotness_values, reverse=True)


@pytest.mark.parametrize("claim_id", CLAIMS)
def test_claim(claim_id):
    driver, check = CLAIMS[claim_id]
    check(output_of(driver))
