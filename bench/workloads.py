"""Workload sizes and input generators — every input is a pure function of the seed.

The generators are owned by the benchmark (nothing is imported from
``benchmarks/``) and the program under test only ever sees the states they
yield.  Streams are infinite iterators of ``(boundary, inputs)`` epochs so a
run can measure for as long as ``--seconds`` asks; :func:`input_digest` pins
the first epochs of each stream for the purity check in the smoke test.

Why these five workloads, and what each bypasses, is recorded in
``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import islice
from typing import Any, Dict, Iterator, List, Tuple

from repro.client.state import ObjectState
from repro.core.geometry import Point, Rectangle
from repro.network.generator import NetworkConfig, SyntheticRoadNetworkGenerator
from repro.network.road_network import RoadNetwork
from repro.workload.moving_objects import MovingObjectWorkload, WorkloadConfig

__all__ = [
    "AREA",
    "BOUNDS",
    "EPOCH_LENGTH",
    "WORKLOADS",
    "sizes_of",
    "dense_stream",
    "steady_stream",
    "served_stream",
    "fleet_stream",
    "sim_network",
    "network_config",
    "sim_workload",
    "input_digest",
]

#: Side of the monitored square of the fleet and served workloads, metres
#: (the ``repro serve --area`` default, so the served coordinator agrees).
AREA = 1000.0
BOUNDS = Rectangle(Point(0.0, 0.0), Point(AREA, AREA))
#: Timestamps per epoch (the paper's Lambda) on every workload.
EPOCH_LENGTH = 10
#: Seed of ``sim_paper``'s road network (see :func:`sim_network`).
NETWORK_SEED = 2008

FleetEpoch = Tuple[int, List[ObjectState]]
#: One served epoch: the boundary and, per connection, its batches of 9-field rows.
ServedEpoch = Tuple[int, List[List[List[List[Any]]]]]

#: Sizes on the 2-core reference box.  ``epochs`` is the number of timed epochs
#: of one pass when ``--seconds`` is ``run_seconds`` (10): an untraced run makes
#: five passes over the same stream (see :mod:`bench.harness`), so the loads
#: are calibrated for five passes of at least 100 epochs to take about ten
#: seconds of timed work there, and a whole run about 15 s, which leaves the
#: contract's 30 s a run reachable while the box runs at half speed (per-epoch
#: load was shrunk from the issue's targets before the epoch count was; the
#: probes are in bench/README.md).
#: ``smoke`` overrides keep the same code path at a size the tier-1 smoke test
#: runs in about a second per workload.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "sim_paper": {
        "kind": "sim",
        "objects": 320,
        "network_nodes": 9,
        "tolerance": 10.0,
        "window": 100,
        "cells": 64,
        "shards": 1,
        "backend": "serial",
        "warmup_epochs": 10,
        "epochs": 100,
        "min_epochs": 100,
        "smoke": {"objects": 80, "network_nodes": 6, "warmup_epochs": 2, "min_epochs": 3},
    },
    "fleet_dense": {
        "kind": "fleet",
        "stream": "dense",
        "states_per_epoch": 28,
        "id_pool": 84,
        "window": 60,
        "cells": 16,
        "shards": 16,
        "backend": "serial",
        "warmup_epochs": 10,
        "epochs": 100,
        "min_epochs": 100,
        "smoke": {"states_per_epoch": 16, "id_pool": 48, "warmup_epochs": 2, "min_epochs": 3},
    },
    "fleet_steady": {
        "kind": "fleet",
        "stream": "steady",
        "core": 112,
        "visitors": 11,
        "window": 60,
        "cells": 32,
        "shards": 16,
        "backend": "serial",
        "warmup_epochs": 10,
        "epochs": 200,
        "min_epochs": 100,
        "smoke": {"core": 32, "visitors": 3, "warmup_epochs": 2, "min_epochs": 3},
    },
    "fleet_procs": {
        "kind": "fleet",
        "stream": "dense",
        "states_per_epoch": 28,
        "id_pool": 84,
        "window": 60,
        "cells": 16,
        "shards": 4,
        "backend": "processes",
        "warmup_epochs": 10,
        "epochs": 100,
        "min_epochs": 100,
        "smoke": {"states_per_epoch": 16, "id_pool": 48, "warmup_epochs": 2, "min_epochs": 3},
    },
    "serve_closed": {
        "kind": "served",
        "connections": 2,
        "batches_per_connection": 3,
        "batch_size": 10,
        "id_pool": 240,
        "window": 60,
        "cells": 32,
        "shards": 1,
        "backend": "serial",
        "warmup_epochs": 10,
        "epochs": 100,
        "min_epochs": 100,
        "smoke": {"batches_per_connection": 2, "batch_size": 4, "id_pool": 48,
                  "warmup_epochs": 2, "min_epochs": 3},
    },
}


def sizes_of(name: str, smoke: bool = False) -> Dict[str, Any]:
    """The workload's size record, with the smoke overrides applied on request."""
    sizes = dict(WORKLOADS[name])
    overrides = sizes.pop("smoke")
    if smoke:
        sizes.update(overrides)
    return sizes


def _rng(tag: str, seed: int) -> random.Random:
    # A string seed hashes deterministically (sha512), independent of
    # PYTHONHASHSEED, and keeps the five streams of one --seed unrelated.
    return random.Random(f"{tag}:{seed}")


def _inside(rng: random.Random, low: float, high: float, half: float) -> float:
    """A centre coordinate whose ``half``-wide extent stays inside [low, high]."""
    return rng.uniform(low + half, high - half)


def _clamp(value: float, low: float, high: float) -> float:
    return min(max(value, low), high)


def dense_stream(seed: int, states_per_epoch: int, id_pool: int) -> Iterator[FleetEpoch]:
    """Fresh reporters with large FSAs every epoch: every halo pool is new.

    Starts are stratified-uniform on the area — one per cell of a jittered
    lattice, visited in shuffled order — because the overlap structure holds
    every member subset with a common intersection: under plain uniform
    placement a chance clump of ten FSAs costs a thousand regions, and the
    epoch-cost tail that produces (max 15x the median) makes the medians of
    two seeds disagree by more than any useful bound.  FSA half-widths are
    60-150 m with the centre offset by at most 120 m and clamped so the FSA
    stays inside the bounds; ids are distinct within an epoch (a closed-loop
    client has one report outstanding) and drawn from ``id_pool`` objects.
    """
    rng = _rng("dense", seed)
    columns = math.ceil(math.sqrt(states_per_epoch))
    rows = math.ceil(states_per_epoch / columns)
    cells = [(column, row) for row in range(rows) for column in range(columns)]
    epoch = 0
    while True:
        epoch += 1
        now = epoch * EPOCH_LENGTH
        states = []
        placed = rng.sample(cells, states_per_epoch)
        for object_id, (column, row) in zip(rng.sample(range(id_pool), states_per_epoch), placed):
            start = Point(
                (column + rng.random()) * AREA / columns, (row + rng.random()) * AREA / rows
            )
            half = rng.uniform(60.0, 150.0)
            centre = Point(
                _clamp(start.x + rng.uniform(-120.0, 120.0), half, AREA - half),
                _clamp(start.y + rng.uniform(-120.0, 120.0), half, AREA - half),
            )
            fsa = Rectangle.from_center(centre, half)
            states.append(ObjectState(object_id, start, now - 5, fsa.low, fsa.high, now))
        yield now, states


def steady_stream(seed: int, core: int, visitors: int) -> Iterator[FleetEpoch]:
    """A fixed roster resubmitting identical reports, plus fresh corner visitors.

    Core FSAs are clamped inside [0, 740]^2 and visitor FSAs inside
    [760, 1000]^2, so on a 4x4 shard grid (cuts at 250/500/750) visitors can
    only dirty the halo pools of shards touching the far corner — for every
    seed, by construction — and every other pool repeats verbatim.
    """
    rng = _rng("steady", seed)
    roster = []
    for object_id in range(core):
        half = rng.uniform(15.0, 30.0)
        start = Point(rng.uniform(0.0, 740.0), rng.uniform(0.0, 740.0))
        centre = Point(
            _clamp(start.x + rng.uniform(-40.0, 40.0), half, 740.0 - half),
            _clamp(start.y + rng.uniform(-40.0, 40.0), half, 740.0 - half),
        )
        roster.append((object_id, start, Rectangle.from_center(centre, half)))
    next_id = core
    epoch = 0
    while True:
        epoch += 1
        now = epoch * EPOCH_LENGTH
        reporters = list(roster)
        for _ in range(visitors):
            half = rng.uniform(10.0, 25.0)
            start = Point(_inside(rng, 760.0, AREA, half), _inside(rng, 760.0, AREA, half))
            reporters.append((next_id, start, Rectangle.from_center(start, half)))
            next_id += 1
        yield now, [
            ObjectState(object_id, start, now - 6, fsa.low, fsa.high, now - 1)
            for object_id, start, fsa in reporters
        ]


def served_stream(
    seed: int, connections: int, batches_per_connection: int, batch_size: int, id_pool: int
) -> Iterator[ServedEpoch]:
    """Sparse wire updates (FSA half-width 5-25 m) split into per-connection batches."""
    rng = _rng("served", seed)
    per_epoch = connections * batches_per_connection * batch_size
    epoch = 0
    while True:
        epoch += 1
        now = epoch * EPOCH_LENGTH
        rows = []
        for object_id in rng.sample(range(id_pool), per_epoch):
            half = rng.uniform(5.0, 25.0)
            sx, sy = rng.uniform(0.0, AREA), rng.uniform(0.0, AREA)
            cx = _clamp(sx + rng.uniform(-30.0, 30.0), half, AREA - half)
            cy = _clamp(sy + rng.uniform(-30.0, 30.0), half, AREA - half)
            rows.append([object_id, sx, sy, now - 5, cx - half, cy - half, cx + half, cy + half, now])
        batches = [rows[at:at + batch_size] for at in range(0, per_epoch, batch_size)]
        yield now, [
            batches[at:at + batches_per_connection]
            for at in range(0, len(batches), batches_per_connection)
        ]


def sim_network(nodes: int) -> RoadNetwork:
    """The Section 6 synthetic road network, sized like ``scaled_simulation_config``.

    The map is part of the configuration, not of the input: it is the same for
    every ``--seed`` (two maps of one size differ by a tenth in epoch cost, a
    difference between seeds that says nothing about the program); the seed
    draws the trips taken on it.
    """
    return SyntheticRoadNetworkGenerator(network_config(nodes)).generate()


def network_config(nodes: int) -> NetworkConfig:
    return NetworkConfig(area_size=16000.0 * nodes / 33.0, grid_nodes_per_axis=nodes, seed=NETWORK_SEED)


def sim_workload(seed: int, network: RoadNetwork, objects: int) -> MovingObjectWorkload:
    """The paper's moving-object generator over ``network`` (Table 2 defaults)."""
    return MovingObjectWorkload(network, WorkloadConfig(num_objects=objects, seed=seed))


def input_digest(name: str, seed: int, smoke: bool = False, epochs: int = 3) -> str:
    """sha256 over the first ``epochs`` epochs of the workload's generated input."""
    sizes = sizes_of(name, smoke)
    digest = hashlib.sha256()
    if sizes["kind"] == "sim":
        workload = sim_workload(seed, sim_network(sizes["network_nodes"]), sizes["objects"])
        measurements = workload.initial_measurements(0)
        for timestamp in range(1, epochs * EPOCH_LENGTH + 1):
            measurements.extend(workload.step(timestamp))
        for object_id, measurement in measurements:
            digest.update(
                repr((object_id, measurement.point.as_tuple(), measurement.timestamp)).encode()
            )
    elif sizes["kind"] == "served":
        stream = served_stream(seed, sizes["connections"], sizes["batches_per_connection"],
                               sizes["batch_size"], sizes["id_pool"])
        digest.update(repr(list(islice(stream, epochs))).encode())
    else:
        for _now, states in islice(fleet_stream(seed, sizes), epochs):
            digest.update(repr([state.as_tuple() for state in states]).encode())
    return digest.hexdigest()


def fleet_stream(seed: int, sizes: Dict[str, Any]) -> Iterator[FleetEpoch]:
    """The in-process fleet workload's stream (``fleet_procs`` reuses ``dense`` verbatim)."""
    if sizes["stream"] == "dense":
        return dense_stream(seed, sizes["states_per_epoch"], sizes["id_pool"])
    return steady_stream(seed, sizes["core"], sizes["visitors"])
