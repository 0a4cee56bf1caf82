"""Tests for the command-line interface."""

from __future__ import annotations

import logging
import os
from dataclasses import fields
import signal
import subprocess
import sys

import pytest

import repro.cli as cli
import repro.coordinator.columnar as columnar
from repro.core.errors import ConfigurationError
from repro.cli import build_parser, main
from repro.coordinator.fleet import FleetConfig
from repro.simulation.engine import HotPathSimulation

RUN_SMALL = ["run", "--objects", "40", "--duration", "30", "--network-nodes", "6",
             "--area", "2000", "--seed", "3"]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.objects == 500
        assert args.tolerance == 10.0

    def test_run_overrides(self):
        args = build_parser().parse_args(
            ["run", "--objects", "50", "--tolerance", "5", "--duration", "60"]
        )
        assert args.objects == 50
        assert args.tolerance == 5.0
        assert args.duration == 60

    def test_figure_subcommands_exist(self):
        for command in ("figure7", "figure8", "figure9", "figure10", "ablations"):
            args = build_parser().parse_args([command])
            assert args.command == command

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["not-a-command"])

class TestHelp:
    """``python -m repro --help`` must document the scale-out flags."""

    def test_top_level_help_shows_examples(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        captured = capsys.readouterr().out
        assert "examples:" in captured
        assert "--shards 4 --backend threads" in captured

    def test_run_help_documents_shards_and_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        captured = capsys.readouterr().out
        assert "--shards" in captured
        assert "--backend" in captured
        assert "{serial,threads,processes}" in captured
        assert "central coordinator" in captured
        assert "examples:" in captured

    def test_run_and_serve_list_the_same_fleet_flags(self, capsys):
        """Both subcommands generate their fleet flags from FleetConfig, so the
        help sections are identical — and name one flag per field."""
        sections = []
        for command in ("run", "serve"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = capsys.readouterr().out
            section = text[text.index("coordinator fleet:"):]
            sections.append(section[: section.index("\n\n", section.index("  --"))])
        assert sections[0] == sections[1]
        flags = [line.split()[0] for line in sections[0].splitlines() if line.startswith("  --")]
        assert len(flags) == len(fields(FleetConfig))
        assert "--stitching" not in flags

    def test_run_help_documents_partition(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        captured = capsys.readouterr().out
        assert "--partition" in captured
        assert "{uniform,kd}" in captured
        assert "--rebalance-threshold" in captured
        assert "endpoint density" in captured


#: Per knob: a valid non-default value, and values ``FleetConfig`` must reject.
FLEET_VALUES = {
    "num_shards": (4, [0, -2]),
    "backend": ("threads", ["gpu"]),
    "partition": ("kd", ["voronoi"]),
    "rebalance_threshold": (1.3, [1.0, 0.5]),
    "epoch_mode": ("full", ["lazy"]),
    "kernel": ("object", ["simd"]),
    "elastic": ("auto", ["on"]),
    "migration_budget": (7, [-1]),
    "min_shards": (2, [0]),
    "max_shards": (9, [0]),
}


def flag_of(knob) -> str:
    return knob.metadata.get("flag", "--" + knob.name.replace("_", "-"))


class TestFleetFlags:
    """Every ``FleetConfig`` field, through both subcommands' argv."""

    def test_the_value_table_covers_every_field(self):
        assert set(FLEET_VALUES) == {knob.name for knob in fields(FleetConfig)}

    @pytest.mark.parametrize("knob", fields(FleetConfig), ids=lambda knob: knob.name)
    def test_flag_reaches_the_coordinator_config_unchanged(self, knob, monkeypatch, capsys):
        value, _invalid = FLEET_VALUES[knob.name]
        assert value != knob.default
        coordinators = []

        class CapturingSimulation(HotPathSimulation):
            def __init__(self, config):
                super().__init__(config)
                coordinators.append(self.coordinator)

        class CapturingServer:
            """Stands in for IngestionServer: keeps the coordinator, serves nothing."""

            port = 0

            def __init__(self, coordinator, config):
                coordinators.append(coordinator)

            async def start(self):
                pass

            async def serve_forever(self):
                pass

        monkeypatch.setattr(cli, "HotPathSimulation", CapturingSimulation)
        monkeypatch.setattr(cli, "IngestionServer", CapturingServer)
        assert main(RUN_SMALL + [flag_of(knob), str(value)]) == 0
        assert main(["serve", "--port", "0", flag_of(knob), str(value)]) == 0
        capsys.readouterr()
        expected = FleetConfig(**{knob.name: value})
        assert len(coordinators) == 2
        for coordinator in coordinators:
            for other in fields(FleetConfig):
                assert getattr(coordinator.config, other.name) == getattr(expected, other.name)

    @pytest.mark.parametrize("knob", fields(FleetConfig), ids=lambda knob: knob.name)
    def test_invalid_value_is_rejected_by_fleet_config_alone(self, knob, capsys):
        """``ConfigurationError`` comes from ``FleetConfig.__post_init__`` —
        the layers above raise nothing of their own — and the CLI turns it
        into a one-line usage error (exit status 2), not a traceback."""
        _value, invalid = FLEET_VALUES[knob.name]
        for bad in invalid:
            with pytest.raises(ConfigurationError) as excinfo:
                FleetConfig(**{knob.name: bad})
            assert excinfo.traceback[-1].path.name == "fleet.py"
            for command in (RUN_SMALL, ["serve", "--port", "0"]):
                with pytest.raises(SystemExit) as exit_info:
                    main(command + [flag_of(knob), str(bad)])
                assert exit_info.value.code == 2
                error_lines = capsys.readouterr().err.strip().splitlines()
                assert error_lines[-1].startswith("repro: error:") or "invalid choice" in error_lines[-1]
                assert not any("Traceback" in line for line in error_lines)

    @pytest.mark.parametrize("command", (["run"], ["serve", "--port", "0"]), ids=("run", "serve"))
    def test_there_are_ten_fleet_flags_and_no_overlap_halo(self, command, capsys):
        """The halo knob retired with the halo: the flag is a usage error and
        the help text of neither subcommand mentions it."""
        assert len(fields(FleetConfig)) == 10
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--overlap-halo", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --overlap-halo" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(command[:1] + ["--help"])
        assert "halo" not in capsys.readouterr().out

    def test_cross_field_error_is_a_usage_error_too(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(RUN_SMALL + ["--shards", "16", "--elastic", "auto", "--max-shards", "4"])
        assert exit_info.value.code == 2
        assert "max_shards (4) must be >= num_shards (16)" in capsys.readouterr().err


class TestRunCommand:
    def test_run_prints_summary_and_paths(self, capsys):
        exit_code = main(
            [
                "run",
                "--objects", "60",
                "--duration", "60",
                "--network-nodes", "6",
                "--area", "2000",
                "--seed", "3",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "index size" in captured
        assert "message reduction vs naive" in captured
        assert "hottest motion paths" in captured
        assert "composite corridors" in captured

    @pytest.mark.skipif(not columnar.HAVE_NUMPY, reason="the default kernel needs numpy")
    def test_run_banner_names_the_resolved_kernel(self, capsys):
        assert main(RUN_SMALL) == 0
        assert "kernel=columnar" in capsys.readouterr().out.splitlines()[0]
        assert main(RUN_SMALL + ["--kernel", "object"]) == 0
        assert "kernel=object" in capsys.readouterr().out.splitlines()[0]

    def test_run_without_numpy_degrades_loudly(self, capsys, caplog, monkeypatch):
        """numpy masked out: same answers from the scalar kernel, and both the
        banner and the log say which kernel actually ran."""
        assert main(RUN_SMALL + ["--kernel", "object"]) == 0
        reference = capsys.readouterr().out.splitlines()
        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
        monkeypatch.setattr(columnar, "_degrade_logged", False)
        with caplog.at_level(logging.WARNING, logger=columnar.__name__):
            assert main(RUN_SMALL + ["--kernel", "columnar"]) == 0
        degraded = capsys.readouterr().out.splitlines()
        assert "kernel=object" in degraded[0]
        timing = lambda line: line.startswith("coordinator time per epoch")
        assert [l for l in degraded if not timing(l)] == [l for l in reference if not timing(l)]
        assert sum("degrades" in record.getMessage() for record in caplog.records) == 1

    def test_run_with_kd_partition_reports_rebalances(self, capsys):
        exit_code = main(
            [
                "run",
                "--objects", "60",
                "--duration", "60",
                "--network-nodes", "6",
                "--area", "2000",
                "--seed", "3",
                "--shards", "4",
                "--partition", "kd",
                "--rebalance-threshold", "1.2",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "partition: kd" in captured
        assert "imbalance:" in captured
        assert "rebalances:" in captured

    def test_run_with_shards_reports_fleet(self, capsys):
        exit_code = main(
            [
                "run",
                "--objects", "60",
                "--duration", "60",
                "--network-nodes", "6",
                "--area", "2000",
                "--seed", "3",
                "--shards", "4",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "coordinator shards: 4" in captured

    def test_run_with_parallel_backend(self, capsys):
        exit_code = main(
            [
                "run",
                "--objects", "60",
                "--duration", "60",
                "--network-nodes", "6",
                "--area", "2000",
                "--seed", "3",
                "--shards", "4",
                "--backend", "threads",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "coordinator backend: threads" in captured
        assert "coordinator shards: 4" in captured


class TestFigureCommands:
    def test_figure7_small_scale(self, capsys):
        exit_code = main(["figure7", "--scale", "0.002", "--seed", "3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "idx SP" in captured

    def test_figure8_writes_csv(self, capsys, tmp_path):
        exit_code = main(["figure8", "--scale", "0.002", "--seed", "3", "--csv", str(tmp_path)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert (tmp_path / "figure8.csv").exists()
        assert "csv written" in captured

    def test_figure9_renders_maps(self, capsys):
        exit_code = main(["figure9", "--scale", "0.002", "--seed", "3", "--width", "30", "--height", "12"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Discovered motion paths" in captured
        assert "coverage" in captured

    def test_figure10_renders_map(self, capsys):
        exit_code = main(["figure10", "--scale", "0.002", "--seed", "3", "--width", "30", "--height", "12"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "top paths rendered" in captured

    def test_ablations_with_csv(self, capsys, tmp_path):
        exit_code = main(["ablations", "--scale", "0.002", "--seed", "3", "--csv", str(tmp_path)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "communication (RayTrace vs naive):" in captured
        assert (tmp_path / "ablation_communication.csv").exists()
        assert (tmp_path / "ablation_uncertainty.csv").exists()
        assert (tmp_path / "ablation_grid_resolution.csv").exists()


class TestServeCommand:
    def test_list_scenarios(self, capsys):
        exit_code = main(["serve", "--list-scenarios"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        for scenario_id in ("uniform_trickle", "bursty_downtown", "ramp", "thundering_herd"):
            assert scenario_id in captured

    def test_scenario_run_gates_on_equivalence_and_validation(self, capsys):
        exit_code = main(
            ["serve", "--scenario", "uniform_trickle", "--seed", "3", "--shards", "2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "seed-replay equivalence: bit-for-bit EQUAL" in captured
        assert "validation passed" in captured

    def test_chaos_flags_reach_the_runner(self, capsys):
        exit_code = main(
            [
                "serve",
                "--scenario",
                "uniform_trickle",
                "--seed",
                "3",
                "--shards",
                "4",
                "--partition",
                "kd",
                "--chaos",
                "force_rebalance",
                "--chaos-rate",
                "0.9",
                "--chaos-seed",
                "5",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "chaos=force_rebalance" in captured
        assert "rebalances=" in captured
        assert "bit-for-bit EQUAL" in captured

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            main(["serve", "--scenario", "no_such_traffic"])

    @pytest.mark.skipif(not columnar.HAVE_NUMPY, reason="the default kernel needs numpy")
    def test_serve_banner_names_the_resolved_kernel(self):
        environment = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=environment,
        )
        try:
            banner = server.stdout.readline()
        finally:
            server.send_signal(signal.SIGINT)
            server.wait(timeout=30)
            server.stdout.close()
        assert banner.startswith("serving on ")
        assert "kernel=columnar" in banner
