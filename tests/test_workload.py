"""Unit tests for the workload generator, noise model and scenarios.

The generator's stream is pinned twice: by digests recorded from the object
formulation it replaced (``TestStreamPin``), and by lockstep runs against
that formulation, kept as ``tests/workload_oracle.py`` (``TestOracle``),
which compare every yielded pair, every final ``object_state`` and the
random generator's state after every step.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import List, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.geometry import Point
from repro.core.trajectory import UncertainTimePoint
from repro.network.generator import NetworkConfig, SyntheticRoadNetworkGenerator
from repro.network.road_network import RoadClass, RoadNetwork
from repro.workload.moving_objects import MovingObjectWorkload, WorkloadConfig
from repro.workload.noise import UniformNoiseModel
from repro.workload.scenarios import converging_event_trajectories, evacuation_trajectories

from road_reference import distance_to_network
from workload_oracle import ReferenceWorkload


class TestNoiseModels:
    def test_uniform_noise_negative_err_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformNoiseModel(err=-1.0)

    def test_uniform_reported_sigma(self):
        sigma_x, sigma_y = UniformNoiseModel(err=3.0).reported_sigma()
        assert sigma_x == pytest.approx(3.0 / (3.0 ** 0.5))
        assert sigma_x == sigma_y


class TestWorkloadConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(num_objects=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(agility=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(agility=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(displacement=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(positional_error=-1.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(duration=0)


class TestMovingObjectWorkload:
    def _workload(self, small_network, **overrides) -> MovingObjectWorkload:
        defaults = dict(num_objects=30, agility=0.5, duration=40, seed=9)
        defaults.update(overrides)
        return MovingObjectWorkload(small_network, WorkloadConfig(**defaults))

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigurationError):
            MovingObjectWorkload(RoadNetwork(), WorkloadConfig(num_objects=5))

    def test_initial_measurements_cover_all_objects(self, small_network):
        workload = self._workload(small_network)
        initial = workload.initial_measurements(0)
        assert len(initial) == 30
        assert {object_id for object_id, _ in initial} == set(range(30))
        assert all(measurement.timestamp == 0 for _, measurement in initial)

    def test_objects_start_on_network_nodes(self, small_network):
        workload = self._workload(small_network, num_objects=10)
        node_locations = {small_network.node(node_id).location for node_id in small_network.node_ids()}
        for object_id in range(10):
            assert workload.object_state(object_id).position in node_locations

    def test_step_respects_agility(self, small_network):
        moving = self._workload(small_network, num_objects=200, agility=0.1)
        measurements = moving.step(1)
        # With agility 0.1 roughly 20 of 200 objects move; allow generous slack.
        assert 2 <= len(measurements) <= 60

    def test_full_agility_moves_everyone(self, small_network):
        workload = self._workload(small_network, num_objects=25, agility=1.0)
        assert len(workload.step(1)) == 25

    def test_displacement_bounds_step_distance(self, small_network):
        workload = self._workload(
            small_network, num_objects=20, agility=1.0, displacement=10.0, positional_error=0.0
        )
        workload.initial_measurements(0)
        before = {oid: workload.object_state(oid).position for oid in range(20)}
        workload.step(1)
        for object_id in range(20):
            after = workload.object_state(object_id).position
            assert before[object_id].euclidean_distance_to(after) <= 10.0 + 1e-6

    def test_measurement_noise_bounded_by_err(self, small_network):
        workload = self._workload(
            small_network, num_objects=20, agility=1.0, positional_error=2.0
        )
        workload.initial_measurements(0)
        for object_id, measurement in workload.step(1):
            true_position = workload.object_state(object_id).position
            assert abs(measurement.point.x - true_position.x) <= 2.0
            assert abs(measurement.point.y - true_position.y) <= 2.0

    def test_uncertain_measurements_carry_sigma(self, small_network):
        workload = self._workload(small_network, num_objects=5, report_uncertainty=True)
        initial = workload.initial_measurements(0)
        assert all(isinstance(m, UncertainTimePoint) for _, m in initial)
        assert all(m.sigma_x > 0 for _, m in initial)

    def test_unknown_object_rejected(self, small_network):
        workload = self._workload(small_network, num_objects=5)
        for object_id in (99, 5, -1):
            with pytest.raises(ConfigurationError):
                workload.object_state(object_id)

    def test_determinism(self, small_network):
        first = self._workload(small_network, num_objects=10, seed=4)
        second = self._workload(small_network, num_objects=10, seed=4)
        batch_1 = first.step(1)
        batch_2 = second.step(1)
        assert [(oid, m.point, m.timestamp) for oid, m in batch_1] == [
            (oid, m.point, m.timestamp) for oid, m in batch_2
        ]

    def test_objects_follow_network_links(self, small_network):
        """Noise-free measurements must lie on (or at) a network link."""
        workload = self._workload(
            small_network, num_objects=10, agility=1.0, positional_error=0.0
        )
        workload.initial_measurements(0)
        for _ in range(1, 10):
            workload.step(_)
        for object_id in range(10):
            position = workload.object_state(object_id).position
            assert distance_to_network(position, small_network) < 1e-6


def sim_network(nodes: int) -> RoadNetwork:
    """The paper drivers' network of ``nodes`` x ``nodes`` crossroads (bench's ``sim_network``)."""
    return SyntheticRoadNetworkGenerator(
        NetworkConfig(area_size=16000.0 * nodes / 33.0, grid_nodes_per_axis=nodes, seed=2008)
    ).generate()


def with_a_linkless_node() -> RoadNetwork:
    """A 6 x 6 synthetic network plus node 36, which no link reaches."""
    network = SyntheticRoadNetworkGenerator(
        NetworkConfig(area_size=2000.0, grid_nodes_per_axis=6, seed=3)
    ).generate()
    network.add_node(36, Point(1000.0, 1000.0))
    return network


def stream_digest(workload, objects: int, steps: int = 30) -> str:
    """sha256 over the ``repr`` of the initial measurements, ``steps`` steps
    and every final ``object_state``."""
    digest = hashlib.sha256()
    digest.update(repr(workload.initial_measurements(0)).encode())
    for timestamp in range(1, steps + 1):
        digest.update(repr(workload.step(timestamp)).encode())
    for object_id in range(objects):
        digest.update(repr(workload.object_state(object_id)).encode())
    return digest.hexdigest()


#: name -> (network, config, digest); the digests were recorded from the
#: object formulation (``tests/workload_oracle.py``) before the table-driven
#: generator replaced it.
PINNED_STREAMS = {
    "paper_320_seed_11": (
        lambda: sim_network(9),
        WorkloadConfig(num_objects=320, seed=11),
        "2272eb7279d8b20e3df80fe317581ff6b764a72d23f3f8eb529e8e02b5bee599",
    ),
    "paper_3000_seed_42": (
        lambda: sim_network(9),
        WorkloadConfig(num_objects=3000, seed=42),
        "5bdc1eb58a190bab571d52589cae06d0ae0e116819d28e79d0cca90c397d7a4a",
    ),
    "uncertain": (
        lambda: sim_network(9),
        WorkloadConfig(num_objects=320, seed=11, report_uncertainty=True),
        "aab15b3021cc5abc0cc4b8eaddb376af340b53a9a5ff678ab6c5490f6f59ec6c",
    ),
    "noise_free_with_a_linkless_node": (
        with_a_linkless_node,
        WorkloadConfig(num_objects=200, agility=0.5, positional_error=0.0, seed=5),
        "b2cc76e9706a5259667c08dd0e2a6d7ee6363437855d221d8f31bebb09fa3375",
    ),
}


class TestStreamPin:
    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    @pytest.mark.parametrize("generator", [MovingObjectWorkload, ReferenceWorkload])
    def test_the_stream_is_the_recorded_one(self, name, generator):
        make_network, config, recorded = PINNED_STREAMS[name]
        workload = generator(make_network(), config)
        assert stream_digest(workload, config.num_objects) == recorded


class ScriptedRandom(random.Random):
    """A generator whose ``random()`` replays ``script`` cyclically and counts its draws."""

    def __init__(self, script: Sequence[float]) -> None:
        super().__init__(0)
        self.script = list(script)
        self.draws = 0

    def random(self) -> float:
        value = self.script[self.draws % len(self.script)]
        self.draws += 1
        return value


def assert_lockstep(
    network: RoadNetwork,
    config: WorkloadConfig,
    steps: int,
    script: Optional[Sequence[float]] = None,
) -> None:
    """Run the generator and the oracle side by side and require the same
    stream: every yielded pair and every final ``object_state`` by ``repr``,
    and the random generator's state (or, scripted, its draw count) after
    the initial measurements and after every step."""
    workload = MovingObjectWorkload(network, config)
    oracle = ReferenceWorkload(network, config)
    if script is not None:
        workload._rng, oracle._rng = ScriptedRandom(script), ScriptedRandom(script)

    def same_draws() -> None:
        if script is None:
            assert workload._rng.getstate() == oracle._rng.getstate()
        else:
            assert workload._rng.draws == oracle._rng.draws

    same_draws()
    assert repr(workload.initial_measurements(0)) == repr(oracle.initial_measurements(0))
    same_draws()
    for timestamp in range(1, steps + 1):
        assert repr(workload.step(timestamp)) == repr(oracle.step(timestamp)), timestamp
        same_draws()
    for object_id in range(config.num_objects):
        assert repr(workload.object_state(object_id)) == repr(oracle.object_state(object_id))


def boundary_draws(network: RoadNetwork, agility: float) -> List[float]:
    """Draws that land exactly on a decision: the agility, every cumulative
    link-choice probability, and the float above each node's last sum (the
    last-link fallback)."""
    draws = [agility]
    for node_id in network.node_ids():
        cumulative = 0.0
        for _link, probability in network.link_choice_weights(node_id):
            cumulative += probability
            draws.append(cumulative)
        if cumulative:
            draws.append(math.nextafter(cumulative, 2.0))
    return [draw for draw in draws if draw < 1.0]


@st.composite
def small_networks(draw) -> RoadNetwork:
    """Up to 7 nodes with sparse ids on a 10 m lattice (so some links are a
    whole number of displacements long and some nodes coincide, giving
    zero-length links) or anywhere, joined by up to 10 links of any class;
    a node may have no link."""
    count = draw(st.integers(1, 7))
    lattice = st.integers(0, 4).map(lambda step: 10.0 * step)
    anywhere = st.floats(-500.0, 500.0, allow_nan=False, allow_infinity=False)
    coordinate = draw(st.sampled_from([lattice, anywhere]))
    network = RoadNetwork()
    node_ids = [3 * index + 2 for index in range(count)]
    for node_id in node_ids:
        network.add_node(node_id, Point(draw(coordinate), draw(coordinate)))
    if count > 1:
        pairs = st.tuples(st.sampled_from(node_ids), st.sampled_from(node_ids))
        for source, target in draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=10)):
            network.add_link(source, target, draw(st.sampled_from(list(RoadClass))))
    return network


configs = st.builds(
    WorkloadConfig,
    num_objects=st.integers(1, 25),
    agility=st.sampled_from([0.1, 0.5, 1.0]) | st.floats(0.01, 1.0),
    displacement=st.sampled_from([1.0, 2.5, 5.0, 10.0, 7.3]),
    positional_error=st.sampled_from([0.0, 1.0, 2.5]),
    report_uncertainty=st.booleans(),
    seed=st.integers(0, 2**32),
)


def network_of(links, isolated=(), locations=None) -> RoadNetwork:
    """Nodes ``0..n`` at ``locations`` (default: 30 m apart on a line) joined
    by ``links``, each ``(source, target)`` (a primary road) or ``(source,
    target, road_class)``."""
    count = 1 + max([node for link in links for node in link[:2]] + list(isolated))
    locations = locations or [Point(30.0 * node, 0.0) for node in range(count)]
    network = RoadNetwork()
    for node_id in range(count):
        network.add_node(node_id, locations[node_id])
    for source, target, *road_class in links:
        network.add_link(source, target, *(road_class or [RoadClass.PRIMARY]))
    return network


class TestOracle:
    """The table-driven generator against the object formulation it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(small_networks(), configs, st.integers(1, 25))
    def test_every_stream_is_the_oracles(self, network, config, steps):
        assert_lockstep(network, config, steps)

    @settings(max_examples=200, deadline=None)
    @given(small_networks(), configs, st.integers(1, 25), st.data())
    def test_every_scripted_stream_is_the_oracles(self, network, config, steps, data):
        """Draws on every decision boundary: a pick equal to a cumulative
        probability, a pick above the last one, a draw equal to the agility."""
        boundaries = boundary_draws(network, config.agility)
        draw = st.floats(0.0, 1.0, exclude_max=True)
        if boundaries:
            draw = st.sampled_from(boundaries) | draw
        script = data.draw(st.lists(draw, min_size=1, max_size=40))
        assert_lockstep(network, config, steps, script)

    def test_objects_parked_on_a_linkless_node(self):
        network = network_of([(0, 1)], isolated=[2])
        for seed in range(5):
            assert_lockstep(network, WorkloadConfig(num_objects=30, agility=1.0, seed=seed), 20)

    def test_a_zero_length_link(self):
        network = network_of(
            [(0, 1), (1, 2)], locations=[Point(0.0, 0.0), Point(0.0, 0.0), Point(25.0, 0.0)]
        )
        assert network.link_length(0) == 0.0
        assert_lockstep(network, WorkloadConfig(num_objects=20, agility=1.0, seed=3), 30)

    def test_arrivals_exactly_at_the_far_node(self):
        """Links 30 m long and 10 m moves: every third move ends on the node."""
        network = network_of([(0, 1), (1, 2), (2, 3)])
        config = WorkloadConfig(num_objects=20, agility=1.0, displacement=10.0, seed=7)
        assert_lockstep(network, config, 40)

    def test_picks_on_a_cumulative_probability(self):
        """Two equal links at node 1 sum to 0.5: a pick of exactly 0.5 takes the first."""
        network = network_of([(0, 1), (1, 2)])
        script = [0.5, 0.5, 0.25, 0.75, 0.5, 0.0]
        assert_lockstep(network, WorkloadConfig(num_objects=6, agility=1.0, seed=1), 20, script)

    def test_a_pick_above_the_last_sum_takes_the_last_link(self):
        """At node 0 the probabilities 8/14, 2/14 and 4/14 sum to just below 1."""
        network = network_of(
            [(0, 1, RoadClass.MOTORWAY), (0, 2, RoadClass.PRIMARY), (0, 3, RoadClass.HIGHWAY)]
        )
        cumulative = 0.0
        for _link, probability in network.link_choice_weights(0):
            cumulative += probability
        assert cumulative < 1.0
        script = [math.nextafter(cumulative, 2.0)]
        assert_lockstep(network, WorkloadConfig(num_objects=8, agility=1.0, seed=2), 10, script)

    def test_noise_free_stream(self):
        assert_lockstep(
            sim_network(5), WorkloadConfig(num_objects=60, positional_error=0.0, seed=2), 40
        )

    def test_uncertain_stream(self):
        assert_lockstep(
            sim_network(5), WorkloadConfig(num_objects=60, report_uncertainty=True, seed=4), 40
        )

    def test_full_agility(self):
        assert_lockstep(sim_network(5), WorkloadConfig(num_objects=60, agility=1.0, seed=6), 40)


class TestScenarios:
    def test_converging_event_ends_near_venue(self):
        venue = Point(100.0, 100.0)
        trajectories = converging_event_trajectories(num_objects=8, venue=venue, duration=30)
        for trajectory in trajectories.values():
            final = list(trajectory)[-1].point
            assert final.euclidean_distance_to(venue) < 1.0

    def test_converging_event_invalid_args(self):
        with pytest.raises(ConfigurationError):
            converging_event_trajectories(num_objects=0)

    def test_evacuation_moves_away_from_danger(self):
        danger = Point(0.0, 0.0)
        trajectories = evacuation_trajectories(num_objects=6, danger_zone=danger, duration=30)
        for trajectory in trajectories.values():
            timepoints = list(trajectory)
            start_distance = timepoints[0].point.euclidean_distance_to(danger)
            end_distance = timepoints[-1].point.euclidean_distance_to(danger)
            assert end_distance > start_distance

    def test_evacuation_routes_shared(self):
        trajectories = evacuation_trajectories(num_objects=20, num_escape_routes=2, duration=30)
        final_points = [list(t)[-1].point for t in trajectories.values()]
        distinct = {(round(p.x, 3), round(p.y, 3)) for p in final_points}
        assert len(distinct) <= 2

    def test_evacuation_invalid_args(self):
        with pytest.raises(ConfigurationError):
            evacuation_trajectories(num_objects=0)
        with pytest.raises(ConfigurationError):
            evacuation_trajectories(duration=1)
