"""Served-vs-direct equivalence: the front door must not change answers.

The contract: a scenario driven through the TCP front door — real sockets,
concurrent clients, backpressure, reconnects — must leave the coordinator
bit-for-bit equal to a *seed* coordinator (single shard, serial backend,
the paper's architecture) replaying the same accepted updates at the same
epoch boundaries.  And the accepted log must replay identically through
every fleet shape, including fleets forced through kd rebalances mid-replay.

This is the serving layer's version of ``test_sharding_equivalence.py``:
the network, the batcher and the epoch ticker are all new machinery that
could silently reorder, drop or duplicate updates; snapshot equality over
the wire is the proof they do not.
"""

from __future__ import annotations

import asyncio
import json
import random
import time

import pytest

from repro.core.geometry import Point, Rectangle
from repro.client.state import ObjectState
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.serving.protocol import coordinator_snapshot, encode_update
from repro.serving.scenarios import (
    SCENARIOS,
    InjectionConfig,
    ScenarioRunner,
    _WireClient,
    get_scenario,
    replay_accepted_log,
)
from repro.serving.server import IngestionServer, ServingConfig

BACKENDS = ["serial", "processes"]
PARTITIONS = ["uniform", "kd"]


def seed_replay(result):
    """The reference snapshot: the seed shape replaying the accepted log."""
    return replay_accepted_log(result.accepted_log)


class TestServedMatchesSeedReplay:
    """Every backend × partition fleet serves the seed coordinator's answers."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_uniform_trickle_bit_for_bit(self, backend, partition):
        runner = ScenarioRunner(FleetConfig(num_shards=4, backend=backend, partition=partition))
        result = runner.run("uniform_trickle", seed=11)

        assert result.accepted_updates == result.submitted_updates
        assert result.report == seed_replay(result)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_uniform_trickle_on_a_non_square_fleet(self, backend):
        """A 2x3 fleet: non-square cells, an odd number of shard columns."""
        runner = ScenarioRunner(FleetConfig(num_shards=6, backend=backend))
        result = runner.run("uniform_trickle", seed=11)

        assert result.accepted_updates == result.submitted_updates
        assert result.report == seed_replay(result)

    @pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
    def test_every_scenario_on_a_kd_fleet(self, scenario_id):
        runner = ScenarioRunner(FleetConfig(num_shards=4, backend="processes", partition="kd"))
        result = runner.run(scenario_id, seed=5)

        assert result.accepted_updates == result.submitted_updates
        assert result.report == seed_replay(result)
        assert result.passed, result.validation_errors

    def test_snapshot_reports_real_state(self):
        result = ScenarioRunner(FleetConfig(num_shards=1)).run("uniform_trickle", seed=2)

        report = result.report
        assert report["size"] == len(report["records"]) > 0
        assert report["top_k_hotness"]
        # The snapshot is wire-pure: a JSON round trip is the identity.
        assert json.loads(json.dumps(report)) == report


class TestForcedRebalanceInvariance:
    """kd migrations mid-run and mid-replay must be invisible in the answers."""

    def test_forced_mid_run_rebalances_leave_answers_unchanged(self):
        runner = ScenarioRunner(FleetConfig(num_shards=4, backend="processes", partition="kd"))
        injection = InjectionConfig(
            enabled=True, fault="force_rebalance", rate=0.6, seed=9
        )
        result = runner.run("bursty_downtown", seed=7, injection=injection)

        assert result.forced_rebalances >= 1
        assert result.report == seed_replay(result)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_through_rebalancing_fleets_matches_seed(self, backend):
        result = ScenarioRunner(FleetConfig(num_shards=4, backend="serial", partition="kd")).run(
            "bursty_downtown", seed=3
        )
        reference = seed_replay(result)

        fleet = replay_accepted_log(
            result.accepted_log,
            fleet=FleetConfig(num_shards=4, backend=backend, partition="kd"),
            rebalance_before=(1, 3),
        )
        assert fleet == reference
        assert result.report == reference


class TestConcurrentClients:
    """Racing clients must not perturb the committed state."""

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_concurrent_sends_replay_bit_for_bit(self, backend):
        runner = ScenarioRunner(FleetConfig(num_shards=4, backend=backend, partition="kd"))
        result = runner.run("bursty_downtown", seed=13, concurrent=True)

        assert result.accepted_updates == result.submitted_updates
        assert result.report == seed_replay(result)

    def test_concurrent_run_equals_serialized_run(self):
        """Same scenario seed, racing vs. ordered sends: same committed state.

        The batcher's canonical ``(client, seq)`` epoch ordering makes the
        commit independent of the arrival interleaving — so the two modes
        must agree on everything but timing.
        """
        runner = ScenarioRunner(FleetConfig(num_shards=2, backend="processes", partition="uniform"))
        ordered = runner.run("uniform_trickle", seed=21, concurrent=False)
        racing = runner.run("uniform_trickle", seed=21, concurrent=True)

        assert racing.accepted_log == ordered.accepted_log
        assert racing.report == ordered.report


class TestEpochModeServing:
    """``epoch_mode`` is invisible over the wire: delta-mode served fleets and
    replays must land on exactly the seed snapshot, chaos included."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delta_serving_matches_full_seed_replay(self, backend):
        runner = ScenarioRunner(
            FleetConfig(num_shards=4, backend=backend, partition="kd", epoch_mode="delta"),
        )
        result = runner.run("bursty_downtown", seed=7)

        full_reference = replay_accepted_log(
            result.accepted_log,
            fleet=FleetConfig(epoch_mode="full"),
        )
        assert result.report == full_reference
        assert replay_accepted_log(
            result.accepted_log,
            fleet=FleetConfig(epoch_mode="delta"),
        ) == full_reference

    def test_full_mode_serving_still_matches_delta_replay(self):
        runner = ScenarioRunner(FleetConfig(num_shards=4, backend="processes", epoch_mode="full"))
        result = runner.run("uniform_trickle", seed=11)

        assert result.report == replay_accepted_log(
            result.accepted_log,
            fleet=FleetConfig(epoch_mode="delta"),
        )

    def test_chaos_faults_with_delta_mode_match_full_replay(self):
        """Forced rebalances racing the delta pipeline's caches mid-run."""
        runner = ScenarioRunner(
            FleetConfig(num_shards=4, backend="processes", partition="kd", epoch_mode="delta"),
        )
        injection = InjectionConfig(
            enabled=True, fault="force_rebalance", rate=0.6, seed=9
        )
        result = runner.run("bursty_downtown", seed=7, injection=injection)

        assert result.forced_rebalances >= 1
        assert result.report == replay_accepted_log(
            result.accepted_log,
            fleet=FleetConfig(epoch_mode="full"),
        )

    def test_delta_replay_through_rebalancing_fleet_matches_full(self):
        result = ScenarioRunner(FleetConfig(num_shards=4, epoch_mode="delta")).run(
            "bursty_downtown", seed=3
        )
        reference = replay_accepted_log(result.accepted_log, fleet=FleetConfig(epoch_mode="full"))
        fleet = replay_accepted_log(
            result.accepted_log,
            fleet=FleetConfig(num_shards=4, backend="processes", partition="kd", epoch_mode="delta"),
            rebalance_before=(1, 3),
        )
        assert fleet == reference


BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))


class TestAutoEpochTicker:
    """The wall-clock epoch ticker under concurrent client load.

    Epoch boundaries here are *nondeterministic* (the ticker races the
    clients), but the accepted log records exactly which updates each
    committed epoch contained — so replaying the log through a fresh seed
    coordinator must still reproduce the served snapshot bit for bit.  This
    is the serving seam PR 7 left untested, pinned in both epoch modes.
    """

    CLIENTS = 4
    BATCHES_PER_CLIENT = 12
    UPDATES_PER_BATCH = 8

    @staticmethod
    def _batch_rows(client_id: int, seq: int):
        rng = random.Random(client_id * 10_007 + seq)
        rows = []
        for _ in range(TestAutoEpochTicker.UPDATES_PER_BATCH):
            start = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            fsa = Rectangle.from_center(
                Point(
                    min(max(start.x + rng.uniform(-150, 150), 0.0), 1000.0),
                    min(max(start.y + rng.uniform(-150, 150), 0.0), 1000.0),
                ),
                rng.uniform(10, 80),
            )
            # Timestamps far below any boundary the ticker will reach keep
            # every row admissible whatever epoch it happens to land in.
            rows.append(
                encode_update(
                    ObjectState(
                        rng.randrange(60), start, 0, fsa.low, fsa.high, 1
                    )
                )
            )
        return rows

    async def _drive(self, epoch_mode: str):
        coordinator = Coordinator(
            CoordinatorConfig(
                bounds=BOUNDS,
                window=1_000_000,  # nothing expires mid-run: keeps rows admissible
                cells_per_axis=32,
                num_shards=4,
                partition="kd",
                epoch_mode=epoch_mode,
            )
        )
        server = IngestionServer(
            coordinator,
            ServingConfig(port=0, auto_epoch_seconds=0.01, auto_epoch_timestamps=10),
        )
        await server.start()
        try:
            host, port = server.config.host, server.port

            async def client(client_id: int) -> None:
                wire = await _WireClient.connect(host, port)
                try:
                    for seq in range(self.BATCHES_PER_CLIENT):
                        ack = await wire.request(
                            {
                                "op": "batch",
                                "client": client_id,
                                "seq": seq,
                                "updates": self._batch_rows(client_id, seq),
                            }
                        )
                        assert ack["ok"], ack
                        # Spread the batches across several ticker intervals so
                        # the load genuinely interleaves with wall-clock commits.
                        await asyncio.sleep(0.003)
                finally:
                    await wire.close()

            await asyncio.gather(*(client(i) for i in range(self.CLIENTS)))
            # Drain: wait until the ticker has committed every accepted update.
            deadline = time.monotonic() + 5.0
            while (
                server.batcher.pending_updates or server.batcher.epochs_committed < 3
            ) and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert server.batcher.pending_updates == 0, "ticker never drained the queue"
            assert server.batcher.epochs_committed >= 3, (
                "the wall-clock ticker never fired three times"
            )
            snapshot = coordinator_snapshot(coordinator)
            accepted_log = list(server.batcher.accepted_log)
            accepted = server.batcher.accepted_updates
        finally:
            await server.stop()
            coordinator.close()
        return snapshot, accepted_log, accepted

    @pytest.mark.parametrize("epoch_mode", ["full", "delta"])
    def test_ticker_committed_state_replays_bit_for_bit(self, epoch_mode):
        snapshot, accepted_log, accepted = asyncio.run(self._drive(epoch_mode))
        assert accepted == self.CLIENTS * self.BATCHES_PER_CLIENT * self.UPDATES_PER_BATCH
        assert sum(len(rows) for _now, rows in accepted_log) == accepted
        # The served snapshot equals the seed replay of the ticker's log —
        # in both epoch modes, whatever boundaries the wall clock produced.
        for replay_mode in ("full", "delta"):
            assert snapshot == replay_accepted_log(
                accepted_log,
                window=1_000_000,
                cells_per_axis=32,
                fleet=FleetConfig(epoch_mode=replay_mode),
            ), f"served {epoch_mode} snapshot != {replay_mode} seed replay"


class TestReconnectStorm:
    def test_thundering_herd_reconnects_and_stays_equal(self):
        scenario = get_scenario("thundering_herd")
        result = ScenarioRunner(FleetConfig(num_shards=4, backend="processes", partition="kd")).run(
            scenario, seed=17
        )

        assert result.reconnects == scenario.num_clients
        assert result.accepted_updates == result.submitted_updates
        assert result.report == seed_replay(result)
