"""Serving benchmark — ingest latency and sustained throughput per backend.

Drives the ``ramp`` scenario (the load-probing shape) through the real TCP
front door once per backend and records the serving table: p50/p99 ingest
latency (batch arrival to epoch commit, the batcher's own samples), p50/p99
batch-ack latency, and sustained accepted updates/second.  Every run is also
held to the serving equivalence contract — the numbers are only worth
recording for a front door that still answers exactly like the seed
coordinator replaying the same accepted log.
"""

from __future__ import annotations

import pytest

from repro.coordinator.fleet import FleetConfig
from repro.serving.scenarios import ScenarioRunner, get_scenario, replay_accepted_log

BACKENDS = ("serial", "processes")


def run_backend(backend: str):
    scenario = get_scenario("ramp", load_factor=2.0)
    runner = ScenarioRunner(FleetConfig(num_shards=4, backend=backend))
    result = runner.run(scenario, seed=42, concurrent=True)
    assert result.report == replay_accepted_log(result.accepted_log), backend
    assert result.passed, (backend, result.validation_errors)
    return result


@pytest.mark.benchmark(group="serving")
def test_serving_ingest_latency(benchmark, record_result):
    results = benchmark.pedantic(
        lambda: [run_backend(backend) for backend in BACKENDS], rounds=1, iterations=1
    )

    header = (
        f"{'backend':>10} {'updates':>8} {'epochs':>7} "
        f"{'ingest p50':>11} {'ingest p99':>11} {'ack p50':>9} {'ack p99':>9} "
        f"{'updates/s':>10}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        stats = result.server_stats
        lines.append(
            f"{result.fleet.backend:>10} {result.accepted_updates:>8d} {result.epochs_run:>7d} "
            f"{stats['p50_ms']:>9.2f}ms {stats['p99_ms']:>9.2f}ms "
            f"{result.ack_latency_p50_ms:>7.2f}ms {result.ack_latency_p99_ms:>7.2f}ms "
            f"{result.updates_per_sec:>10.0f}"
        )
    record_result("serving_ingest", "\n".join(lines))

    for result in results:
        assert result.accepted_updates == result.submitted_updates
        assert 0.0 < result.server_stats["p50_ms"] <= result.server_stats["p99_ms"]
        assert result.updates_per_sec > 0
