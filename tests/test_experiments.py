"""Tests for the experiment configuration, sweeps and figure runners.

These use an aggressively scaled-down :class:`ExperimentScale` so the whole
module runs in a few seconds while still exercising the exact code paths the
drivers run at ``--scale 0.02`` (``tests/test_paper_shapes.py``).
"""

from __future__ import annotations

import weakref

import pytest

import repro.experiments.figure7 as figure7
import repro.experiments.sweeps as sweeps
from repro.baselines.dp_hot import DPHotSegmentTracker
from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.experiments.ablations import (
    COMMUNICATION_TOLERANCES,
    GRID_CELL_COUNTS,
    UNCERTAINTY_DELTAS,
    run_communication_ablation,
    run_grid_resolution_ablation,
    run_uncertainty_ablation,
)
from repro.experiments.config import (
    DEFAULT_SCALE,
    PAPER_DEFAULTS,
    PAPER_OBJECT_COUNTS,
    PAPER_TOLERANCES,
    ExperimentScale,
    scaled_simulation_config,
)
from repro.experiments.figure7 import Figure7Report, run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9, run_figure10
from repro.simulation import engine
from repro.simulation.engine import HotPathSimulation


TINY = ExperimentScale(population=0.004, duration=0.2, network_nodes_per_axis=6)


class TestPaperConstants:
    def test_table2_defaults(self):
        assert PAPER_DEFAULTS["num_objects"] == 20000
        assert PAPER_DEFAULTS["tolerance"] == 10.0
        assert PAPER_DEFAULTS["window"] == 100
        assert PAPER_DEFAULTS["top_k"] == 10
        assert PAPER_DEFAULTS["agility"] == 0.1
        assert PAPER_DEFAULTS["displacement"] == 10.0
        assert PAPER_DEFAULTS["positional_error"] == 1.0
        assert PAPER_DEFAULTS["duration"] == 250
        assert PAPER_DEFAULTS["epoch_length"] == 10

    def test_sweep_values(self):
        assert PAPER_OBJECT_COUNTS == [10000, 20000, 50000, 100000]
        assert PAPER_TOLERANCES == [1.0, 2.0, 10.0, 20.0]


class TestExperimentScale:
    def test_invalid_scales(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(population=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentScale(population=2.0)
        with pytest.raises(ConfigurationError):
            ExperimentScale(duration=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentScale(network_nodes_per_axis=1)
        with pytest.raises(ConfigurationError):
            ExperimentScale(population=float("nan"))
        with pytest.raises(ConfigurationError):
            ExperimentScale(duration=float("nan"))

    def test_scale_objects_has_floor(self):
        scale = ExperimentScale(population=0.001)
        assert scale.scale_objects(10000) == 20

    def test_scale_duration_has_floor(self):
        scale = ExperimentScale(duration=0.01)
        assert scale.scale_duration(250, epoch_length=10) == 31

    def test_no_scale_is_the_default_scale(self):
        assert ExperimentScale().population == DEFAULT_SCALE
        assert scaled_simulation_config() == scaled_simulation_config(scale=ExperimentScale())

    def test_paper_scale(self):
        scale = ExperimentScale.at(1.0)
        assert scale.population == 1.0
        assert scale.network_nodes_per_axis == 33

    def test_a_scale_that_is_not_a_number_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["figure7", "--scale", "lots"])
        assert exit_info.value.code == 2
        assert "invalid float value: 'lots'" in capsys.readouterr().err

    def test_scaled_simulation_config_applies_scale(self):
        config = scaled_simulation_config(scale=TINY, num_objects=20000, tolerance=5.0)
        assert config.num_objects == 80
        assert config.tolerance == 5.0
        assert config.window == 100
        assert config.duration >= 31


class TestOneScaleRule:
    """``--scale`` is the one scale rule: it goes through :meth:`ExperimentScale.at`."""

    @pytest.mark.parametrize("value", ("0.05", "0.2", "0.5", "1.0", "3.0", "inf"))
    def test_the_flag_hands_the_driver_its_scale(self, value, monkeypatch, capsys):
        handed = []

        def capture(scale, seed):
            handed.append(scale)
            return Figure7Report()

        monkeypatch.setattr(figure7, "run_figure7", capture)
        assert main(["figure7", "--scale", value]) == 0
        assert handed == [ExperimentScale.at(float(value))]

    def test_below_paper_scale_clamps(self):
        assert ExperimentScale.at(0.5) == ExperimentScale(
            population=0.5, duration=1.0, network_nodes_per_axis=33
        )
        assert ExperimentScale.at(0.001) == ExperimentScale(
            population=0.001, duration=0.2, network_nodes_per_axis=6
        )

    @pytest.mark.parametrize("value", ("nan", "-1", "0"))
    def test_non_positive_or_nan_is_a_configuration_error(self, value):
        with pytest.raises(ConfigurationError):
            ExperimentScale.at(float(value))


class TestSweeps:
    def test_object_count_sweep_rows(self):
        rows = run_figure7([10000, 20000], scale=TINY, seed=3).rows
        assert len(rows) == 2
        assert [row.parameter_value for row in rows] == [10000, 20000]
        assert rows[0].scaled_num_objects < rows[1].scaled_num_objects
        for row in rows:
            assert row.index_size > 0
            assert row.uplink_messages > 0
            assert row.naive_messages > row.uplink_messages

    def test_tolerance_sweep_rows(self):
        rows = run_figure8([2.0, 20.0], scale=TINY, seed=3).rows
        assert len(rows) == 2
        assert rows[0].parameter_value == 2.0
        # Larger tolerance suppresses more updates, hence fewer or equal messages.
        assert rows[1].uplink_messages <= rows[0].uplink_messages


class TestFigureRunners:
    def test_figure7_report(self):
        report = run_figure7(object_counts=[10000, 20000], scale=TINY, seed=3)
        assert [row.parameter_value for row in report.rows] == [10000, 20000]
        table = report.format_table()
        assert "idx SP" in table
        assert len(table.splitlines()) == 4

    def test_figure7_index_grows_with_objects(self):
        report = run_figure7(object_counts=[10000, 100000], scale=TINY, seed=3)
        sizes = [row.index_size for row in report.rows]
        assert sizes[1] > sizes[0]

    def test_figure8_report(self):
        report = run_figure8(tolerances=[2.0, 20.0], scale=TINY, seed=3)
        assert [row.parameter_value for row in report.rows] == [2.0, 20.0]
        table = report.format_table()
        assert "epsilon" in table
        assert len(table.splitlines()) == 4

    def test_figure8_index_shrinks_with_tolerance(self):
        report = run_figure8(tolerances=[2.0, 40.0], scale=TINY, seed=3)
        sizes = [row.index_size for row in report.rows]
        assert sizes[1] <= sizes[0]

    def test_figure9_report(self):
        report = run_figure9(scale=TINY, seed=3, map_width=40, map_height=20)
        assert len(report.discovered_map.splitlines()) == 20
        assert len(report.hot_paths) > 0
        assert 0.0 <= report.coverage_fraction() <= 1.0

    def test_figure10_report(self):
        report = run_figure10(scale=TINY, seed=3, k=5, map_width=30, map_height=15)
        assert len(report.hot_paths) <= 5
        assert len(report.discovered_map.splitlines()) == 15


class TestAblations:
    def test_communication_ablation(self):
        rows = run_communication_ablation(scale=TINY, seed=3)
        assert [row.tolerance for row in rows] == list(COMMUNICATION_TOLERANCES)
        for row in rows:
            assert row.naive_messages > row.raytrace_messages
            assert 0.0 < row.reduction <= 1.0

    def test_uncertainty_ablation(self):
        rows = run_uncertainty_ablation(scale=TINY, seed=3)
        assert [row.delta for row in rows] == list(UNCERTAINTY_DELTAS)
        assert rows[0].delta == 0.0
        # A positive delta shrinks tolerance squares, so filtering can only
        # report at least as many messages as the plain-epsilon run.
        assert rows[-1].uplink_messages >= rows[0].uplink_messages

    def test_grid_resolution_ablation(self):
        rows = run_grid_resolution_ablation(scale=TINY, seed=3)
        assert [row.cells_per_axis for row in rows] == list(GRID_CELL_COUNTS)
        assert all(row.mean_index_size > 0 for row in rows)


class TestDriversComputeWhatTheyPrint:
    """Each driver builds only what it prints, and a sweep keeps one point alive."""

    @pytest.fixture
    def dp_trackers_built(self, monkeypatch):
        built = []

        class CountingTracker(DPHotSegmentTracker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(1)

        monkeypatch.setattr(engine, "DPHotSegmentTracker", CountingTracker)
        return built

    @pytest.mark.parametrize(
        "argv, trackers",
        (
            (["run", "--objects", "40", "--duration", "30", "--network-nodes", "6",
              "--area", "2000", "--seed", "3"], 0),
            (["figure9", "--scale", "0.002", "--seed", "3"], 0),
            (["figure10", "--scale", "0.002", "--seed", "3"], 0),
            (["ablations", "--scale", "0.002", "--seed", "3"], 0),
            (["figure7", "--scale", "0.002", "--seed", "3"], len(PAPER_OBJECT_COUNTS)),
            (["figure8", "--scale", "0.002", "--seed", "3"], len(PAPER_TOLERANCES)),
        ),
        ids=lambda value: value[0] if isinstance(value, list) else str(value),
    )
    def test_dp_baseline_runs_only_for_figures_7_and_8(
        self, argv, trackers, dp_trackers_built, capsys
    ):
        assert main(argv) == 0
        capsys.readouterr()
        assert len(dp_trackers_built) == trackers

    def test_table2_config_builds_no_dp_tracker(self, dp_trackers_built):
        simulation = HotPathSimulation(scaled_simulation_config(scale=TINY))
        assert simulation.dp_baseline is None
        assert dp_trackers_built == []

    def test_no_earlier_coordinator_is_alive_when_a_point_starts(self, monkeypatch):
        coordinators = []
        alive_at_start = []

        class ProbedSimulation(HotPathSimulation):
            def __init__(self, *args, **kwargs):
                alive_at_start.append(sum(ref() is not None for ref in coordinators))
                super().__init__(*args, **kwargs)
                coordinators.append(weakref.ref(self.coordinator))

        monkeypatch.setattr(sweeps, "HotPathSimulation", ProbedSimulation)
        report = run_figure7(object_counts=[10000, 20000, 50000], scale=TINY, seed=3)
        assert len(report.rows) == 3
        assert alive_at_start == [0, 0, 0]
