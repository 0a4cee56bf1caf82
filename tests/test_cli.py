"""Tests for the command-line interface."""

from __future__ import annotations

import logging
import os
import re
from dataclasses import fields
from pathlib import Path
import signal
import subprocess
import sys

import pytest

import repro.coordinator.columnar as columnar
from repro.core.errors import ConfigurationError
from repro.cli import build_parser, main
from repro.coordinator.fleet import FleetConfig
from repro.serving import server
from repro.simulation import engine
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
        assert "--shards 4 --backend processes" in captured

    def test_run_help_documents_shards_and_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        captured = capsys.readouterr().out
        assert "--shards" in captured
        assert "--backend" in captured
        assert "{serial,processes}" in captured
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

#: Per knob: a valid non-default value, and values ``FleetConfig`` must reject.
FLEET_VALUES = {
    "num_shards": (4, [0, -2]),
    "backend": ("processes", ["gpu", "threads"]),
    "epoch_mode": ("full", ["lazy"]),
    "kernel": ("object", ["simd"]),
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

            def start(self):
                pass

            def serve_forever(self):
                pass

        # The subcommands import these when they run, from their modules.
        monkeypatch.setattr(engine, "HotPathSimulation", CapturingSimulation)
        monkeypatch.setattr(server, "IngestionServer", CapturingServer)
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
    def test_there_are_four_fleet_flags_and_no_overlap_halo(self, command, capsys):
        """The halo knob retired with the halo: the flag is a usage error and
        the help text of neither subcommand mentions it."""
        assert [knob.name for knob in fields(FleetConfig)] == [
            "num_shards", "backend", "epoch_mode", "kernel",
        ]
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--overlap-halo", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --overlap-halo" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(command[:1] + ["--help"])
        assert "halo" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", (["run"], ["serve", "--port", "0"]), ids=("run", "serve"))
    def test_threads_backend_is_a_usage_error(self, command, capsys):
        """The ``threads`` backend is gone, not aliased: ``FleetConfig``
        rejects it and both subcommands turn it into one ``error:`` line
        after the usage, exit status 2, no traceback; neither help text
        offers it."""
        with pytest.raises(ConfigurationError) as excinfo:
            FleetConfig(backend="threads")
        assert excinfo.traceback[-1].path.name == "fleet.py"
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--backend", "threads"])
        assert exit_info.value.code == 2
        error_lines = capsys.readouterr().err.strip().splitlines()
        assert "error: argument --backend: invalid choice: 'threads'" in error_lines[-1]
        assert sum("error:" in line for line in error_lines) == 1
        assert not any("Traceback" in line for line in error_lines)
        with pytest.raises(SystemExit):
            main(command[:1] + ["--help"])
        assert "threads" not in capsys.readouterr().out


#: The chaos fault the fixed shard grid retired, spelled in two parts so that
#: a grep of the code for the deleted names stays empty.
RETIRED_FAULT = "_".join(("force", "rebalance"))

#: Usage errors on both subcommands since the fixed shard grid (``run`` has
#: no ``--chaos`` at all).
REMOVED_ARGUMENTS = [
    ["--partition", "kd"],
    ["--rebalance-threshold", "1.2"],
    ["--elastic", "auto"],
    ["--migration-budget", "8"],
    ["--min-shards", "2"],
    ["--max-shards", "9"],
    ["--chaos", RETIRED_FAULT],
]



def _retired_name(argument) -> str:
    """The fault for ``--chaos``, else the flag itself."""
    return argument[1] if argument[0] == "--chaos" else argument[0]


class TestRemovedFlags:
    @pytest.mark.parametrize("argument", REMOVED_ARGUMENTS, ids=_retired_name)
    @pytest.mark.parametrize(
        "command", (RUN_SMALL, ["serve", "--port", "0"]), ids=("run", "serve")
    )
    def test_removed_flag_is_one_usage_error(self, command, argument, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--shards", "4"] + argument)
        assert exit_info.value.code == 2
        error_lines = capsys.readouterr().err.strip().splitlines()
        assert sum("error:" in line for line in error_lines) == 1
        assert argument[-1] in error_lines[-1]
        assert not any("Traceback" in line for line in error_lines)
        with pytest.raises(SystemExit):
            main(command[:1] + ["--help"])
        assert _retired_name(argument) not in capsys.readouterr().out


class TestBadValues:
    """A bad option value is one ``repro: error:`` line after the usage, exit
    status 2, raised while the options become a config, before anything runs."""

    @pytest.mark.parametrize(
        "argv",
        (
            ["run", "--objects", "0"],
            ["run", "--delta", "1.0"],
            ["run", "--tolerance", "nan"],
            ["run", "--tolerance", "inf"],
            ["run", "--area", "nan"],
            ["run", "--area", "inf"],
            ["figure9", "--width", "0"],
            ["figure10", "--height", "-3"],
            ["figure7", "--scale", "0"],
            ["figure8", "--scale", "0"],
            ["figure9", "--scale", "nan"],
            ["figure10", "--scale", "-1"],
            ["ablations", "--scale", "-1"],
            ["serve", "--scenario", "nope"],
            ["serve", "--scenario", "uniform_trickle", "--chaos", "drop_batch", "--chaos-rate", "0"],
            ["serve", "--scenario", "uniform_trickle", "--load-factor", "-1"],
            ["serve", "--scenario", "uniform_trickle", "--epoch", "0"],
            ["serve", "--scenario", "uniform_trickle", "--max-pending", "0"],
            ["serve", "--scenario", "uniform_trickle", "--area", "-3"],
            ["serve", "--window", "0"],
            ["serve", "--cells", "0"],
            ["serve", "--area", "0"],
            ["serve", "--epoch-seconds", "-1"],
            ["serve", "--epoch-seconds", "nan"],
            ["serve", "--epoch-seconds", "inf"],
            ["serve", "--scenario", "uniform_trickle", "--load-factor", "nan"],
            ["serve", "--scenario", "uniform_trickle", "--load-factor", "inf"],
            ["serve", "--port", "70000"],
        ),
        ids=" ".join,
    )
    def test_bad_value_is_one_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        error_lines = captured.err.strip().splitlines()
        assert error_lines[-1].startswith("repro: error: ")
        assert sum("error:" in line for line in error_lines) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""


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
        assert "imbalance:" in captured

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
                "--backend", "processes",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "coordinator backend: processes" in captured
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

    @pytest.mark.parametrize(
        "command, written",
        (("figure7", "figure7"), ("figure8", "figure8"), ("ablations", "ablation_communication")),
    )
    def test_csv_directory_is_created(self, command, written, capsys, tmp_path):
        directory = tmp_path / "new" / "dir"
        exit_code = main([command, "--scale", "0.002", "--seed", "3", "--csv", str(directory)])
        assert exit_code == 0
        assert (directory / f"{written}.csv").exists()
        assert f"csv written to {directory / written}.csv" in capsys.readouterr().out

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


EXPECTED = Path(__file__).parent / "expected"


def _mask_timing(text: str) -> str:
    """Drop the wall-clock fields: the 7/8 tables' last column and the
    ablations' ``time/epoch=`` (the CI ``sed`` applies the same two rules)."""
    text = re.sub(r"[0-9]+\.[0-9]{4}$", "<masked>", text, flags=re.MULTILINE)
    return re.sub(r"time/epoch=[0-9.]+ ms", "time/epoch=<masked> ms", text)


class TestDriverPins:
    """Every paper driver prints its recorded output at ``--scale 0.01 --seed 3``
    (``tests/expected/<command>_scale001.txt``, timing masked), and Figure 7
    at EXPERIMENTS.md's ``--scale 0.02 --seed 42`` too
    (``figure7_scale002.txt``): the SinglePath, DP and naive columns stay
    what they were."""

    @pytest.mark.parametrize(
        "command, scale, seed",
        [
            *(pytest.param(command, "0.01", "3", id=command)
              for command in ("figure7", "figure8", "ablations", "figure9", "figure10")),
            pytest.param("figure7", "0.02", "42", id="figure7_scale002"),
        ],
    )
    def test_driver_prints_its_pin(self, command, scale, seed, capsys):
        assert main([command, "--scale", scale, "--seed", seed]) == 0
        printed = _mask_timing(capsys.readouterr().out)
        assert printed == (EXPECTED / f"{command}_scale{scale.replace('.', '')}.txt").read_text()


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
                "--chaos",
                "reorder_batch",
                "--chaos-rate",
                "0.9",
                "--chaos-seed",
                "5",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "chaos=reorder_batch" in captured
        assert "reorders=" in captured
        assert "bit-for-bit EQUAL" in captured

    def test_scenario_run_that_loses_traffic_fails_the_gate(self, capsys):
        """Ramp batches outgrow a 3-update queue: they can never be admitted."""
        exit_code = main(
            ["serve", "--scenario", "ramp", "--max-pending", "3", "--seed", "42"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 1
        assert "validation FAILED" in captured
        assert "validation passed" not in captured

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--scenario", "no_such_traffic"])
        assert exit_info.value.code == 2

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
