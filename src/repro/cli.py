"""Command-line interface for running simulations and regenerating experiments.

The CLI wraps the same runners the benchmark (``bench/``, ``python3 -m
bench``) drives, so a user who just wants the paper's figures (or a quick
simulation summary) does not need to write any Python:

.. code-block:: console

    python -m repro run --objects 500 --tolerance 10 --duration 150
    python -m repro run --objects 2000 --shards 4 --backend processes
    python -m repro figure7 --scale 0.02
    python -m repro figure8 --scale 0.02 --csv results/
    python -m repro figure9
    python -m repro ablations --csv results/

Every subcommand prints a human-readable table to stdout; ``--csv DIR``
additionally writes machine-readable CSV files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

from repro.core.errors import ConfigurationError, ReproError
from repro.coordinator.columnar import resolve_kernel
from repro.coordinator.fleet import FleetConfig
from repro.serving import FAULT_TYPES

# Each subcommand imports the layers it runs (the simulation, the experiment
# runners, the scenario harness) inside its handler, so ``repro serve`` does
# not load the simulation stack and no command loads what it does not run.

__all__ = ["build_parser", "main"]


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    """One flag per :class:`FleetConfig` field — identical on every subcommand.

    Name, type, default, choices and help come from the field's declaration.
    """
    hints = get_type_hints(FleetConfig)
    group = parser.add_argument_group(
        "coordinator fleet", "topology knobs (docs/ARCHITECTURE.md, 'Fleet knobs')"
    )
    for knob in fields(FleetConfig):
        options = dict(knob.metadata)
        flag = options.pop("flag", "--" + knob.name.replace("_", "-"))
        group.add_argument(
            flag, dest=knob.name, type=hints[knob.name], default=knob.default, **options
        )


def _fleet_from_args(args: argparse.Namespace) -> FleetConfig:
    return FleetConfig(**{knob.name: getattr(args, knob.name) for knob in fields(FleetConfig)})


def _serve_config(args: argparse.Namespace) -> tuple:
    """``(CoordinatorConfig, ServingConfig)``, or with ``--scenario`` what runs
    the scenario instead: ``(ScenarioRunner, scenario, InjectionConfig)``."""
    from repro.core.geometry import Point, Rectangle
    from repro.coordinator.coordinator import CoordinatorConfig
    from repro.serving.server import ServingConfig

    fleet = _fleet_from_args(args)
    coordinator = CoordinatorConfig(
        bounds=Rectangle(Point(0.0, 0.0), Point(args.area, args.area)),
        window=args.window,
        cells_per_axis=args.cells,
        **asdict(fleet),
    )
    serving = ServingConfig(
        host=args.host,
        port=args.port,
        max_pending_updates=args.max_pending,
        auto_epoch_seconds=args.epoch_seconds,
        auto_epoch_timestamps=args.epoch,
    )
    if args.scenario is None:
        return coordinator, serving
    from repro.serving.scenarios import InjectionConfig, ScenarioRunner, get_scenario

    runner = ScenarioRunner(
        fleet=fleet,
        window=args.window,
        cells_per_axis=args.cells,
        epoch_length=args.epoch,
        max_pending_updates=args.max_pending,
        bounds=coordinator.bounds,
    )
    return (
        runner,
        get_scenario(args.scenario, load_factor=args.load_factor),
        InjectionConfig(fault=args.chaos, rate=args.chaos_rate, seed=args.chaos_seed),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hot motion path discovery (EDBT 2008 reproduction)",
        epilog=(
            "examples:\n"
            "  python -m repro run --objects 500 --tolerance 10 --duration 150\n"
            "  python -m repro run --objects 2000 --shards 4 --backend processes\n"
            "  python -m repro run --shards 16 --backend processes\n"
            "  python -m repro figure8 --scale 0.02 --csv results/\n"
            "run 'python -m repro <command> --help' for per-command options"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run",
        help="run one simulation and print a summary",
        description=(
            "Run one end-to-end simulation (workload, RayTrace filters, coordinator, "
            "baselines) and print a summary with the discovered top-k hot motion paths. "
            "Use --shards to label records with an R x C shard grid (the run then "
            "prints per-shard diagnostics) and --backend to pick where each epoch's "
            "overlap components are built; every combination runs the paper's central "
            "coordinator on one index, bit for bit."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro run --objects 500 --tolerance 10 --duration 150\n"
            "  python -m repro run --objects 2000 --shards 4 --backend processes\n"
            "  python -m repro run --shards 16 --backend processes --top-k 20"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_parser.add_argument("--objects", type=int, default=500, help="number of moving objects")
    run_parser.add_argument("--tolerance", type=float, default=10.0, help="tolerance epsilon in metres")
    run_parser.add_argument("--delta", type=float, default=0.0, help="uncertainty failure probability")
    run_parser.add_argument("--window", type=int, default=100, help="sliding window W in timestamps")
    run_parser.add_argument("--duration", type=int, default=150, help="simulated timestamps")
    run_parser.add_argument("--epoch", type=int, default=10, help="epoch length in timestamps")
    run_parser.add_argument("--top-k", type=int, default=10, help="number of hot paths to report")
    run_parser.add_argument("--seed", type=int, default=42)
    run_parser.add_argument("--network-nodes", type=int, default=10, help="grid nodes per axis")
    run_parser.add_argument("--area", type=float, default=4000.0, help="area side length in metres")
    _add_fleet_arguments(run_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the coordinator over TCP, or run a load/chaos scenario against it",
        description=(
            "Start the ingestion front end: a single-threaded TCP server speaking the "
            "newline-delimited JSON protocol of repro.serving.protocol, batching "
            "location updates from concurrent clients into coordinator epochs with "
            "bounded-queue backpressure. With --scenario the server is instead "
            "booted on an ephemeral port and driven by the named load scenario "
            "(optionally with seed-deterministic fault injection via --chaos); the "
            "exit status reports the scenario's latency/throughput validation gate "
            "and the bit-for-bit equivalence check against a seed-coordinator "
            "replay of the accepted updates."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro serve --port 7711 --shards 4 --backend processes\n"
            "  python -m repro serve --epoch-seconds 0.5   # wall-clock epochs\n"
            "  python -m repro serve --list-scenarios\n"
            "  python -m repro serve --scenario uniform_trickle --shards 4\n"
            "  python -m repro serve --scenario bursty_downtown --shards 16 \\\n"
            "      --chaos kill_worker --backend processes --chaos-seed 7"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=7711,
        help="TCP port (0 = ephemeral; scenario runs always use an ephemeral port)",
    )
    serve_parser.add_argument("--window", type=int, default=100, help="sliding window W in timestamps")
    serve_parser.add_argument("--cells", type=int, default=64, help="grid cells per axis")
    serve_parser.add_argument("--area", type=float, default=1000.0, help="monitored area side length")
    serve_parser.add_argument(
        "--max-pending", type=int, default=100_000, metavar="N",
        help="bounded batcher queue: updates admitted before backpressure rejects batches",
    )
    serve_parser.add_argument(
        "--epoch-seconds", type=float, default=None, metavar="S",
        help=(
            "enable the wall-clock epoch ticker: commit an epoch every S seconds, "
            "advancing the coordinator clock by --epoch timestamps. Omit to drive "
            "epochs with explicit 'tick' requests (deterministic mode)."
        ),
    )
    serve_parser.add_argument(
        "--epoch", type=int, default=10, metavar="T",
        help="timestamps per epoch boundary (tick spacing of scenario runs and the auto ticker)",
    )
    serve_parser.add_argument(
        "--list-scenarios", action="store_true",
        help="print the registered load scenarios and exit",
    )
    serve_parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="run this registered scenario against an in-process server and exit",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=42, help="scenario traffic seed",
    )
    serve_parser.add_argument(
        "--load-factor", type=float, default=1.0, metavar="F",
        help="scale every scenario batch size by F (load knob for measurement runs)",
    )
    serve_parser.add_argument(
        "--concurrent", action="store_true",
        help="race client sends within each epoch instead of the deterministic serialized order",
    )
    serve_parser.add_argument(
        "--chaos", choices=FAULT_TYPES, default=None, metavar="FAULT",
        help=(
            f"inject this fault class during the scenario ({', '.join(FAULT_TYPES)}), "
            "scheduled deterministically from --chaos-seed"
        ),
    )
    serve_parser.add_argument(
        "--chaos-rate", type=float, default=0.25, help="fault injection probability",
    )
    serve_parser.add_argument(
        "--chaos-seed", type=int, default=0, help="fault schedule seed",
    )
    _add_fleet_arguments(serve_parser)

    for name, description in (
        ("figure7", "regenerate the Figure 7 sweep (vary the number of objects)"),
        ("figure8", "regenerate the Figure 8 sweep (vary the tolerance)"),
        ("ablations", "run the communication/uncertainty/grid/feedback ablations"),
        ("figure9", "render the discovered network (Figure 9)"),
        ("figure10", "render the top-20 hottest central paths (Figure 10)"),
    ):
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument("--scale", type=float, default=0.02, help="population scale factor (1.0 = paper)")
        sub.add_argument("--seed", type=int, default=42)
        if name in ("figure9", "figure10"):
            sub.add_argument("--width", type=int, default=72)
            sub.add_argument("--height", type=int, default=30)
        else:
            sub.add_argument("--csv", type=Path, default=None, help="directory for CSV output")

    return parser


def _scale(args: argparse.Namespace):
    from repro.experiments.config import ExperimentScale

    return ExperimentScale.at(args.scale)


def _map_scale(args: argparse.Namespace):
    """``figure9`` / ``figure10``: the scale, once the map size is known to be drawable."""
    if args.width <= 0 or args.height <= 0:
        raise ConfigurationError(f"map size must be positive, got {args.width}x{args.height}")
    return _scale(args)


def _simulation_config(args: argparse.Namespace):
    from repro.network.generator import NetworkConfig
    from repro.simulation.engine import SimulationConfig

    return SimulationConfig(
        num_objects=args.objects,
        tolerance=args.tolerance,
        delta=args.delta,
        window=args.window,
        epoch_length=args.epoch,
        duration=args.duration,
        top_k=args.top_k,
        fleet=_fleet_from_args(args),
        seed=args.seed,
        network_config=NetworkConfig(area_size=args.area, grid_nodes_per_axis=args.network_nodes),
    )


def _command_run(args: argparse.Namespace, config) -> int:
    from repro.analysis.statistics import hot_path_statistics
    from repro.coordinator.stitching import select_top_k_corridors
    from repro.simulation.engine import HotPathSimulation

    fleet = config.fleet
    result = HotPathSimulation(config).run()
    summary = result.summary()
    print(
        f"objects={config.num_objects} tolerance={config.tolerance} duration={config.duration} "
        f"kernel={resolve_kernel(fleet.kernel)}"
    )
    if fleet.num_shards > 1:
        shards = result.coordinator.shard_statistics()
        print(f"coordinator backend: {fleet.backend}")
        print(
            f"coordinator shards: {shards['num_shards']:.0f} "
            f"(records per shard min/mean/max: {shards['min_shard_records']:.0f}"
            f"/{shards['mean_shard_records']:.1f}/{shards['max_shard_records']:.0f}, "
            f"imbalance: {shards['imbalance']:.2f}, "
            f"boundary-straddling paths: {shards['straddling_paths']:.0f})"
        )
    print(f"index size (final / mean per epoch): {summary['final_index_size']:.0f} / {summary['mean_index_size']:.1f}")
    print(f"top-{config.top_k} score (mean per epoch):  {summary['mean_top_k_score']:.1f}")
    print(f"coordinator time per epoch:          {summary['mean_processing_seconds'] * 1000:.2f} ms")
    print(f"uplink messages (RayTrace / naive):  {summary['uplink_messages']:.0f} / {summary['naive_uplink_messages']:.0f}")
    print(f"message reduction vs naive:          {summary['message_reduction_versus_naive'] * 100:.1f}%")
    statistics = hot_path_statistics(result.hot_paths())
    print(f"hotness distribution: max={statistics.hotness.maximum:.0f} mean={statistics.hotness.mean:.2f}")
    print(f"top-decile heat share: {statistics.top_decile_heat_share * 100:.1f}%")
    print(f"\ntop-{config.top_k} hottest motion paths:")
    for rank, scored in enumerate(result.top_k_paths(), start=1):
        print(
            f"  {rank:2d}. hotness={scored.hotness:<3d} length={scored.path.length:8.1f} "
            f"({scored.path.start.x:.1f}, {scored.path.start.y:.1f}) -> "
            f"({scored.path.end.x:.1f}, {scored.path.end.y:.1f})"
        )
    corridors = result.hot_corridors()
    stitched = sum(1 for corridor in corridors if corridor.num_segments > 1)
    print(
        f"\ntop-{config.top_k} composite corridors "
        f"({len(corridors)} total, {stitched} stitched from multiple paths):"
    )
    for rank, corridor in enumerate(select_top_k_corridors(corridors, config.top_k), start=1):
        print(
            f"  {rank:2d}. segments={corridor.num_segments:<2d} hotness={corridor.hotness:<3d} "
            f"length={corridor.length:8.1f} score={corridor.score:10.1f} "
            f"({corridor.start.x:.1f}, {corridor.start.y:.1f}) -> "
            f"({corridor.end.x:.1f}, {corridor.end.y:.1f})"
        )
    return 0


def _write_csv(args: argparse.Namespace, **experiments) -> None:
    """``--csv DIR``: one file per experiment, ``DIR`` created when missing."""
    from repro.experiments.report import write_experiment_bundle

    if args.csv is not None:
        for path in write_experiment_bundle(args.csv, **experiments):
            print(f"csv written to {path}")


def _command_sweep(args: argparse.Namespace, scale) -> int:
    """``figure7`` / ``figure8``: the sweep's table, and its rows under ``--csv``."""
    from repro.experiments.figure7 import run_figure7
    from repro.experiments.figure8 import run_figure8

    run = run_figure7 if args.command == "figure7" else run_figure8
    report = run(scale=scale, seed=args.seed)
    print(report.format_table())
    _write_csv(args, **{f"{args.command}_rows": report.rows})
    return 0


def _command_map(args: argparse.Namespace, scale) -> int:
    """``figure9`` (the network beside every hot path) / ``figure10`` (the top central paths)."""
    from repro.experiments.figure9 import run_figure9, run_figure10

    run = run_figure9 if args.command == "figure9" else run_figure10
    report = run(scale=scale, seed=args.seed, map_width=args.width, map_height=args.height)
    if args.command == "figure9":
        print(f"Ground-truth network:\n{report.network_map}\n\nDiscovered motion paths:")
        print(report.discovered_map)
        print(f"\nhot paths: {len(report.hot_paths)}  coverage: {report.coverage_fraction() * 100:.1f}%")
    else:
        print(report.discovered_map)
        print(f"\ntop paths rendered: {len(report.hot_paths)}")
    return 0


def _command_ablations(args: argparse.Namespace, scale) -> int:
    from repro.experiments.ablations import (
        run_communication_ablation,
        run_feedback_ablation,
        run_grid_resolution_ablation,
        run_uncertainty_ablation,
    )

    communication = run_communication_ablation(scale=scale, seed=args.seed)
    uncertainty = run_uncertainty_ablation(scale=scale, seed=args.seed)
    grid = run_grid_resolution_ablation(scale=scale, seed=args.seed)
    feedback = run_feedback_ablation()

    print("communication (RayTrace vs naive):")
    for row in communication:
        print(f"  eps={row.tolerance:<5.1f} raytrace={row.raytrace_messages:<7d} naive={row.naive_messages:<7d} "
              f"reduction={row.reduction * 100:.1f}%")
    print("uncertainty (delta sweep):")
    for row in uncertainty:
        print(f"  delta={row.delta:<5.2f} messages={row.uplink_messages:<7d} index={row.mean_index_size:.1f}")
    print("grid resolution:")
    for row in grid:
        print(f"  cells={row.cells_per_axis:<4d} time/epoch={row.mean_processing_seconds * 1000:.2f} ms "
              f"index={row.mean_index_size:.1f}")
    print("feedback (Section 7 hints, fixed corridor replay):")
    for row in feedback:
        print(f"  variant={row.variant:<9} index={row.index_size:<4d} hottest={row.max_hotness:<4d} "
              f"uplink={row.uplink_messages:<5d} downlink_bytes={row.downlink_bytes:<6d} "
              f"snaps={row.snapped_reports}")

    _write_csv(
        args,
        ablations={
            "communication": communication,
            "uncertainty": uncertainty,
            "grid_resolution": grid,
            "feedback": feedback,
        },
    )
    return 0


def _command_serve(args: argparse.Namespace, config: tuple) -> int:
    from repro.coordinator.coordinator import Coordinator
    from repro.serving.server import IngestionServer

    if args.list_scenarios:
        from repro.serving.scenarios import SCENARIOS

        print("registered load scenarios:")
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]()
            print(f"  {name:<18s} clients={scenario.num_clients:<3d} epochs={scenario.epochs:<3d} {scenario.description}")
        return 0
    if args.scenario is not None:
        from repro.serving.scenarios import replay_accepted_log

        runner, scenario, injection = config
        fleet = runner.fleet
        result = runner.run(
            scenario, seed=args.seed, injection=injection, concurrent=args.concurrent
        )
        seed_snapshot = replay_accepted_log(
            result.accepted_log,
            bounds=runner.bounds,
            window=runner.window,
            cells_per_axis=runner.cells_per_axis,
            fleet=FleetConfig(kernel=fleet.kernel),
        )
        equal = result.report == seed_snapshot
        print(
            f"scenario {scenario.scenario_id}: shards={fleet.num_shards} backend={fleet.backend}"
            + (f" chaos={args.chaos} rate={args.chaos_rate} seed={args.chaos_seed}" if args.chaos else "")
        )
        print(
            f"  traffic: {result.submitted_updates} submitted, {result.accepted_updates} accepted, "
            f"{result.dropped_updates} dropped, {result.epochs_run} epochs"
        )
        print(
            f"  faults: drops={result.dropped_batches} dups={result.duplicated_batches} "
            f"reorders={result.reordered_swaps} kills={result.worker_kills} "
            f"stalls={result.stalled_epochs} "
            f"backpressure={result.backpressure_rejections} retried={result.retried_batches}"
        )
        print(
            f"  latency: ack p50={result.ack_latency_p50_ms:.2f} ms p99={result.ack_latency_p99_ms:.2f} ms; "
            f"ingest p50={result.server_stats.get('p50_ms', 0.0):.2f} ms "
            f"p99={result.server_stats.get('p99_ms', 0.0):.2f} ms; "
            f"throughput={result.updates_per_sec:.0f} updates/s"
        )
        print(f"  seed-replay equivalence: {'bit-for-bit EQUAL' if equal else 'DIVERGED'}")
        if result.validation_errors:
            for error in result.validation_errors:
                print(f"  validation FAILED: {error}")
        else:
            print("  validation passed")
        return 0 if (equal and result.passed) else 1

    coordinator_config, serving_config = config
    coordinator = Coordinator(coordinator_config)
    server = IngestionServer(coordinator, serving_config)

    try:
        server.start()
        ticking = (
            f"auto epochs every {args.epoch_seconds}s"
            if args.epoch_seconds is not None
            else "explicit 'tick' epochs"
        )
        print(
            f"serving on {args.host}:{server.port} "
            f"(shards={coordinator_config.num_shards}, backend={coordinator_config.backend}, "
            f"kernel={resolve_kernel(coordinator_config.kernel)}, {ticking})",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        coordinator.close()
    return 0


#: Each subcommand: its options -> a validated config (built before anything
#: runs, so a bad value is one usage error), then the handler that runs it.
_COMMANDS = {
    "run": (_simulation_config, _command_run),
    "serve": (_serve_config, _command_serve),
    "figure7": (_scale, _command_sweep),
    "figure8": (_scale, _command_sweep),
    "figure9": (_map_scale, _command_map),
    "figure10": (_map_scale, _command_map),
    "ablations": (_scale, _command_ablations),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    make_config, handler = _COMMANDS[args.command]
    try:
        config = make_config(args)
    except ReproError as error:  # raised by a config, so by an option value
        parser.error(str(error))  # one line on stderr, exit status 2
    return handler(args, config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
