"""Tier-1 smoke test of the benchmark: every workload, both modes, at ``--smoke`` size.

Runs the same code path ``python3 -m bench`` runs (seconds in total) and pins
the properties the numbers rest on: the printed metrics are exactly
``BENCHMARK.json``'s, the generators are pure functions of the seed, the
bench-owned ``sim_paper`` loop is the simulation engine's loop, the oracle can
fail, and a run leaves the working tree as it found it and no process behind.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serving.protocol import coordinator_snapshot
from repro.simulation.engine import HotPathSimulation, SimulationConfig

from bench import cli, compare, trace
from bench.harness import (
    EpochSample, Pass, SimSystem, SpeedProbe, build, oracle_matches, speed_factor, timed_epochs,
)
from bench.spec import REPO_ROOT, load_spec, metric_table
from bench.workloads import EPOCH_LENGTH, WORKLOADS, input_digest, network_config, sizes_of

SPEC = load_spec()
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def _git_status() -> str:
    completed = subprocess.run(
        ["git", "status", "--porcelain"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    return completed.stdout if completed.returncode == 0 else ""


PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans(enabled: bool) -> None:
    """Have descendants orphaned from now on re-parented to this process, not to init."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, int(enabled), 0, 0, 0)


def _processes_in_session(session: int) -> dict:
    """pid -> ``pid (command) state`` of every process of ``session``, zombies included."""
    found = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            head, tail = stat.read_text().rsplit(")", 1)
        except OSError:  # gone between the listing and the read
            continue
        state, _parent, _group, its_session = tail.split()[:4]
        if int(its_session) == session:
            found[int(stat.parent.name)] = f"{head}) {state}"
    return found


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """stdout of all ten smoke runs, what each left running, and the working tree's status around them."""
    out = tmp_path_factory.mktemp("bench-out")
    before = _git_status()
    outputs, left_running = {}, {}
    # Each run is a session of its own and whatever outlives it is adopted
    # here, where nobody waits for it: it stays in /proc to be found.
    _adopt_orphans(True)
    try:
        for name in WORKLOAD_NAMES:
            for traced in (0, 1):
                with subprocess.Popen(
                    [sys.executable, "-m", "bench", "--workload", name, "--smoke", "--seconds", "0.2",
                     "--trace", str(traced), "--seed", "5", "--out", str(out)],
                    cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                    start_new_session=True,
                ) as run:
                    stdout, stderr = run.communicate(timeout=120)
                assert run.returncode == 0, stderr
                outputs[name, traced] = stdout.splitlines()
                left_running[name, traced] = _processes_in_session(run.pid)
    finally:
        _adopt_orphans(False)
        for pid in [pid for left in left_running.values() for pid in left]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outputs, before, _git_status(), out, left_running


def test_benchmark_json_names_the_code_workloads():
    assert WORKLOAD_NAMES == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    assert "setup_s" in metric_table(SPEC, "end_to_end")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("traced", (0, 1))
def test_every_metric_is_printed_with_its_unit_and_nothing_else(smoke_runs, name, traced):
    lines = smoke_runs[0][name, traced]
    table = metric_table(SPEC, "per_layer" if traced else "end_to_end")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(table)
    printed = {}
    for line in lines:
        if line.startswith("  "):
            metric, _value, unit = line.split()
            printed[metric] = unit
    assert printed == {metric: entry["unit"] for metric, entry in table.items()}
    for metric, value in result["metrics"].items():
        assert value["unit"] == table[metric]["unit"]
        if not traced:
            assert value["value"] > 0, f"end-to-end metric {metric} must never read 0"


def test_traced_runs_confirm_the_bypass_predictions(smoke_runs):
    def layers(name):
        metrics = json.loads(smoke_runs[0][name, 1][-1])["metrics"]
        return {metric: entry["value"] for metric, entry in metrics.items()}

    for name in ("sim_paper", "serve_closed"):
        bypassed = layers(name)
        assert bypassed["sharding.route_plan_ms"] == 0 and bypassed["sharding.pools"] == 0
        assert bypassed["execution.candidates_wall_ms"] == 0
    for name in ("sim_paper", "fleet_dense", "fleet_steady", "fleet_procs"):
        in_process = layers(name)
        assert in_process["protocol.decode_us_per_update"] == 0
        assert in_process["batcher.offer_ms"] == 0 and in_process["server.handle_line_self_ms"] == 0
    assert layers("sim_paper")["client.observe_ms"] > 0
    assert layers("fleet_dense")["client.observe_ms"] == 0
    assert layers("fleet_steady")["overlaps.pool_hit_ratio"] >= 0.6
    assert layers("fleet_dense")["overlaps.pool_hit_ratio"] <= 0.05
    assert layers("fleet_procs")["execution.shm_shipments"] > 0
    assert layers("serve_closed")["batcher.offer_ms"] > 0
    assert layers("serve_closed")["server.ack_ms_p50"] > 0
    assert layers("fleet_dense")["server.ack_ms_p50"] == 0
    for name in WORKLOAD_NAMES:
        assert layers(name)["trace.overhead_ratio"] > 0
        assert (smoke_runs[3] / f"spans-{name}.jsonl").stat().st_size > 0


def test_a_run_leaves_no_tracked_file_modified(smoke_runs):
    _outputs, before, after, _out, _left_running = smoke_runs
    assert before == after


def test_a_run_leaves_no_process_behind(smoke_runs):
    # fleet_procs starts workers and multiprocessing's resource tracker,
    # serve_closed a server: all stopped and waited for before the run exits.
    assert not any(smoke_runs[4].values()), smoke_runs[4]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_generators_are_pure_functions_of_the_seed(name):
    assert input_digest(name, 5, smoke=True) == input_digest(name, 5, smoke=True)
    assert input_digest(name, 5, smoke=True) != input_digest(name, 6, smoke=True)


def test_fleet_procs_replays_the_fleet_dense_stream():
    dense, procs = sizes_of("fleet_dense"), sizes_of("fleet_procs")
    for key in ("stream", "states_per_epoch", "id_pool"):
        assert dense[key] == procs[key]
    assert input_digest("fleet_dense", 5) == input_digest("fleet_procs", 5)


def test_sim_paper_loop_is_the_simulation_engines_loop():
    sizes, seed, epochs = sizes_of("sim_paper", smoke=True), 5, 6
    system = SimSystem(sizes, seed, None)
    for _ in range(epochs):
        system.epoch()
    reference = HotPathSimulation(
        SimulationConfig(
            num_objects=sizes["objects"], tolerance=sizes["tolerance"], window=sizes["window"],
            epoch_length=EPOCH_LENGTH, duration=epochs * EPOCH_LENGTH + 1,
            cells_per_axis=sizes["cells"], seed=seed,
            run_dp_baseline=False, run_naive_baseline=False,
            network_config=network_config(sizes["network_nodes"]),
        )
    ).run()
    assert system.snapshot() == coordinator_snapshot(reference.coordinator)
    assert system.snapshot()["size"] > 0


def test_oracle_rejects_a_perturbed_stream():
    sizes = sizes_of("fleet_dense", smoke=True)
    system = build("fleet_dense", sizes, 5)
    for _ in range(4):
        system.epoch()
    snapshot = system.snapshot()
    assert oracle_matches(snapshot, system.log, sizes, system.bounds)
    boundary, rows = system.log[1]
    perturbed = system.log[:1] + [(boundary, rows[1:])] + system.log[2:]
    assert not oracle_matches(snapshot, perturbed, sizes, system.bounds)


def test_tracing_restores_every_binding():
    before = {
        (id(owner), attribute): vars(owner)[attribute]
        for entries in trace.layer_table(trace.SpanRecorder()).values()
        for owner, attribute, _count in entries
    }
    with trace.installed(trace.SpanRecorder()):
        pass
    for entries in trace.layer_table(trace.SpanRecorder()).values():
        for owner, attribute, _count in entries:
            assert vars(owner)[attribute] is before[id(owner), attribute]


def test_refuses_to_run_when_columnar_would_degrade(monkeypatch, capsys):
    monkeypatch.setattr("repro.coordinator.columnar.HAVE_NUMPY", False)
    assert cli.main(["--workload", "fleet_dense", "--smoke"]) == 2
    assert "object kernel" in capsys.readouterr().err


def test_seconds_scale_the_epoch_count_not_a_deadline():
    sizes = sizes_of("fleet_steady")
    assert timed_epochs(sizes, 10) == sizes["epochs"]
    assert timed_epochs(sizes, 20) == 2 * sizes["epochs"]
    assert timed_epochs(sizes, 0.1) == sizes["min_epochs"] == 100


def test_speed_correction_scales_an_epoch_by_the_readings_around_it():
    def sample(epoch_ms):
        return EpochSample(start=0, end=0, wall_s=0, epoch_ms=epoch_ms, query_ms=0,
                           updates=0, attempted=0, failed=0)

    def done(speeds):
        return Pass(setup_s=0, samples=[sample(10.0)] * 8, setup_speed=1, speeds=speeds,
                    log=[], bounds=None, snapshot={}, peak_rss_mb=0, errors=[])

    # A quiet box reads the fastest speed everywhere: nothing is scaled.
    assert done([2.0] * 9).corrected("epoch_ms", fastest=2.0) == [10.0] * 8
    # The probe ran at half speed while the first epochs were timed, and only then.
    corrected = done([4.0] * 4 + [2.0] * 5).corrected("epoch_ms", fastest=2.0)
    halved = 10.0 * speed_factor(2.0, 4.0)
    assert halved == pytest.approx(10.0 * 0.5 ** SpeedProbe.EXPONENT) and SpeedProbe.EXPONENT >= 1
    assert corrected[0] == halved and corrected[-1] == 10.0
    assert all(halved <= value <= 10.0 for value in corrected)


def test_compare_tells_worse_from_noise():
    steady = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert compare.verdict(steady, [value * 1.05 for value in steady], "lower", 0.1) == "ok"
    assert compare.verdict(steady, [value * 1.30 for value in steady], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [value * 0.70 for value in steady], "higher", 0.1) == "worse"
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0]
    assert compare.verdict(noisy, [value * 1.30 for value in noisy], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [value * 0.50 for value in noisy], "lower", 0.1) == "ok"
