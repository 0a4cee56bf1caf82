"""Deterministic chaos: every fault is replayable and its recovery is pinned.

Two layers:

* **Seed determinism** — a fault schedule is a pure function of
  ``(InjectionConfig, plan shape)``, and a whole chaos run is a pure
  function of ``(scenario seed, injection seed, fleet shape)``: running it
  twice yields the same fingerprint (fault events, accepted log, report).
  That is what turns chaos runs into regression tests.
* **Recovery vs. degradation, per fault class** — exact-recovery faults
  (duplicate, reorder, kill_worker, force_rebalance) must leave the
  committed state identical to an unfaulted run of the same scenario seed;
  degrading faults (drop_batch, stall_epoch) must land exactly where their
  quantified path predicts (accepted = submitted − dropped; commits move to
  the next ticked boundary; backpressure rejects are retried, never lost)
  while the accepted-log replay stays bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, CoordinatorError
from repro.coordinator.coordinator import Coordinator
from repro.coordinator.fleet import FleetConfig
from repro.serving.scenarios import (
    FAULT_TYPES,
    InjectionConfig,
    ScenarioRunner,
    build_fault_schedule,
    get_scenario,
    replay_accepted_log,
)


def make_runner(backend="serial", **overrides):
    fleet = FleetConfig(num_shards=4, backend=backend, partition="kd")
    return ScenarioRunner(fleet, **overrides)


def injection(fault, rate=0.4, seed=0):
    return InjectionConfig(enabled=True, fault=fault, rate=rate, seed=seed)


def backend_for(fault):
    """kill_worker needs a process fleet; everything else runs serial."""
    return "processes" if fault == "kill_worker" else "serial"


class TestScheduleDeterminism:
    """The fault schedule is a pure function of (config, plan shape)."""

    @pytest.mark.parametrize("fault", FAULT_TYPES)
    def test_same_seed_same_schedule(self, fault):
        plan = get_scenario("bursty_downtown").plan(seed=4)
        first = build_fault_schedule(injection(fault, seed=31), plan)
        second = build_fault_schedule(injection(fault, seed=31), plan)
        assert first == second
        assert first.events() == second.events()

    @pytest.mark.parametrize("fault", FAULT_TYPES)
    def test_enabled_injection_is_never_vacuous(self, fault):
        """Even a seed whose draws all miss must fire at least one fault."""
        plan = get_scenario("uniform_trickle").plan(seed=4)
        # rate barely above zero: every probability draw misses, so the
        # forced-fallback path must kick in.
        schedule = build_fault_schedule(
            InjectionConfig(enabled=True, fault=fault, rate=1e-12, seed=0), plan
        )
        assert schedule.events()

    def test_disabled_injection_is_empty(self):
        plan = get_scenario("uniform_trickle").plan(seed=4)
        assert build_fault_schedule(InjectionConfig(), plan).events() == []

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            InjectionConfig(enabled=True, fault="meteor_strike")
        with pytest.raises(ConfigurationError):
            InjectionConfig(enabled=True, fault="drop_batch", rate=0.0)


class TestRunDeterminism:
    """Same seeds ⇒ same fingerprint, fault events included."""

    @pytest.mark.parametrize("fault", FAULT_TYPES)
    def test_chaos_runs_are_replayable(self, fault):
        runner = make_runner(backend=backend_for(fault))
        first = runner.run("uniform_trickle", seed=8, injection=injection(fault, seed=5))
        second = runner.run("uniform_trickle", seed=8, injection=injection(fault, seed=5))

        assert first.fault_events, f"{fault} injection fired nothing"
        assert first.fingerprint() == second.fingerprint()


class TestExactRecoveryFaults:
    """Faults the serving layer must absorb with zero observable effect."""

    @pytest.mark.parametrize(
        "fault", ["duplicate_batch", "reorder_batch", "force_rebalance"]
    )
    def test_fault_run_equals_unfaulted_run(self, fault):
        runner = make_runner()
        baseline = runner.run("bursty_downtown", seed=6)
        chaotic = runner.run("bursty_downtown", seed=6, injection=injection(fault, seed=2))

        assert chaotic.fault_events
        assert chaotic.accepted_updates == baseline.accepted_updates
        assert chaotic.accepted_log == baseline.accepted_log
        assert chaotic.report == baseline.report

    def test_killed_workers_recover_exactly(self):
        runner = make_runner(backend="processes")
        baseline = runner.run("uniform_trickle", seed=6)
        chaotic = runner.run(
            "uniform_trickle", seed=6, injection=injection("kill_worker", rate=0.6, seed=3)
        )

        assert chaotic.worker_kills >= 1
        # Kills address workers, not shards: ("kill_worker", epoch, worker).
        assert len(chaotic.fault_events) == chaotic.worker_kills
        for kind, epoch, worker in chaotic.fault_events:
            assert kind == "kill_worker" and epoch >= 1 and 0 <= worker < 8
        assert chaotic.accepted_log == baseline.accepted_log
        assert chaotic.report == baseline.report
        assert chaotic.report == replay_accepted_log(chaotic.accepted_log)

    def test_duplicates_are_acked_but_committed_once(self):
        runner = make_runner()
        result = runner.run(
            "uniform_trickle", seed=9, injection=injection("duplicate_batch", seed=1)
        )

        assert result.duplicated_batches >= 1
        assert result.duplicate_acks >= result.duplicated_batches
        assert result.accepted_updates == result.submitted_updates
        assert result.report == replay_accepted_log(result.accepted_log)


class TestDegradingFaults:
    """Faults with a quantified degradation path, pinned exactly."""

    def test_dropped_batches_degrade_by_exactly_their_updates(self):
        runner = make_runner()
        result = runner.run(
            "bursty_downtown", seed=12, injection=injection("drop_batch", seed=7)
        )

        assert result.dropped_batches >= 1
        assert result.accepted_updates == result.submitted_updates - result.dropped_updates
        # What *was* accepted still commits deterministically.
        assert result.report == replay_accepted_log(result.accepted_log)

    def test_stall_trips_backpressure_and_retries_recover_every_update(self):
        # A queue two batches deep: the stalled epoch's backlog plus the next
        # epoch's traffic must overflow it and exercise reject-then-retry.
        runner = make_runner(max_pending_updates=20)
        result = runner.run(
            "uniform_trickle", seed=10, injection=injection("stall_epoch", rate=0.5, seed=4)
        )

        assert result.stalled_epochs >= 1
        assert result.backpressure_rejections >= 1
        # A batch may bounce several times while epochs stay stalled, but
        # every rejected batch eventually lands via a successful retry.
        assert result.retried_batches >= 1
        assert result.backpressure_rejections >= result.retried_batches
        # Degradation is confined to *when* updates commit, never *whether*:
        # every submitted update lands, and the replay is still exact.
        assert result.accepted_updates == result.submitted_updates
        assert result.report == replay_accepted_log(result.accepted_log)

    def test_stalled_epochs_commit_at_the_next_boundary(self):
        runner = make_runner()
        baseline = runner.run("uniform_trickle", seed=10)
        stalled = runner.run(
            "uniform_trickle", seed=10, injection=injection("stall_epoch", rate=0.5, seed=4)
        )

        assert stalled.epochs_run < baseline.epochs_run + stalled.stalled_epochs
        committed_boundaries = [boundary for boundary, _rows in stalled.accepted_log]
        stalled_boundaries = {
            (epoch + 1) * runner.epoch_length
            for kind, epoch in [
                (event[0], event[1]) for event in stalled.fault_events
            ]
            if kind == "stall_epoch"
        }
        assert stalled_boundaries
        assert not stalled_boundaries & set(committed_boundaries)
        # Nothing is lost: both runs commit the same updates overall.
        baseline_rows = sorted(
            tuple(row) for _b, rows in baseline.accepted_log for row in rows
        )
        stalled_rows = sorted(
            tuple(row) for _b, rows in stalled.accepted_log for row in rows
        )
        assert stalled_rows == baseline_rows


class TestMidCommitRebalanceGuard:
    """The razor the force_rebalance fault leans on: rebalancing is refused
    while a parallel commit is open, so a mid-epoch migration can only land
    between commits — where it is provably invisible."""

    def test_rebalance_inside_open_commit_is_refused(self):
        runner = make_runner(backend="threads")
        coordinator = Coordinator(runner.coordinator_config())
        try:
            router = coordinator.router
            router.begin_parallel_commit(batch_size=8)
            with pytest.raises(CoordinatorError, match="open parallel commit"):
                router.rebalance()
        finally:
            coordinator.close()
