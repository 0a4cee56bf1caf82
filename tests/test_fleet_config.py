"""``FleetConfig`` is the one declaration of the topology knobs.

Pinned here, beyond what the per-field CLI test
(``tests/test_cli.py::TestFleetFlags``) sees: every layer embedding a
``fleet`` builds exactly the coordinator the same knobs build when passed
flat to ``CoordinatorConfig``.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.geometry import Point, Rectangle
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.coordinator.fleet import FleetConfig
from repro.network.generator import NetworkConfig
from repro.serving.protocol import coordinator_snapshot, decode_update
from repro.serving.scenarios import ScenarioRunner, replay_accepted_log
from repro.simulation.engine import HotPathSimulation, SimulationConfig

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))

#: Every knob away from its default.
FLAT = dict(
    num_shards=4,
    backend="processes",
    epoch_mode="full",
    kernel="object",
)


def test_the_flat_table_moves_every_knob():
    assert asdict(FleetConfig(**FLAT)) == FLAT
    defaults = asdict(FleetConfig())
    assert all(FLAT[name] != default for name, default in defaults.items())


class TestEmbeddingLayersBuildTheFlatCoordinator:
    def test_served_replayed_and_flat_fleets_snapshot_equal(self):
        fleet = FleetConfig(**FLAT)
        runner = ScenarioRunner(fleet)
        flat_config = CoordinatorConfig(
            bounds=BOUNDS, window=runner.window, cells_per_axis=runner.cells_per_axis, **FLAT
        )
        assert runner.coordinator_config() == flat_config

        served = runner.run("bursty_downtown", seed=3)
        assert served.fleet == fleet
        flat = Coordinator(flat_config)
        try:
            for boundary, rows in served.accepted_log:
                for row in rows:
                    flat.submit_state(decode_update(row))
                flat.run_epoch(boundary)
            reference = coordinator_snapshot(flat)
        finally:
            flat.close()
        assert served.report == reference
        assert replay_accepted_log(served.accepted_log, fleet=fleet) == reference
        assert replay_accepted_log(served.accepted_log) == reference  # and the seed shape

    def test_simulated_fleet_equals_the_flat_coordinator(self):
        def simulation(fleet: FleetConfig) -> HotPathSimulation:
            return HotPathSimulation(
                SimulationConfig(
                    num_objects=60, window=50, duration=60, seed=9, fleet=fleet,
                    run_dp_baseline=False, run_naive_baseline=False,
                    network_config=NetworkConfig(area_size=2000.0, grid_nodes_per_axis=6, seed=9),
                )
            )

        embedded = simulation(FleetConfig(**FLAT))
        flat = simulation(FleetConfig())
        flat.coordinator = Coordinator(
            CoordinatorConfig(
                bounds=flat.coordinator.config.bounds,
                window=flat.config.window,
                cells_per_axis=flat.config.cells_per_axis,
                **FLAT,
            )
        )
        assert embedded.coordinator.config == flat.coordinator.config
        assert coordinator_snapshot(embedded.run().coordinator) == coordinator_snapshot(
            flat.run().coordinator
        )
