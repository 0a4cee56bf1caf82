"""The exactness harness: every fleet configuration answers as the reference configuration.

**Reference.**  :data:`REFERENCE` is one shard, the ``serial`` backend,
``full`` epochs and the ``object`` storage: one grid index in the Section 5.1
cell dicts, and every top-k and corridor query recomputed from the hot set.
It runs the same SinglePath epoch pass as every other configuration, so what
all of them share is checked against the paper elsewhere: each scenario
here is also replayed through the literal Algorithm 2 of
``tests/single_path_oracle.py`` (``tests/test_single_path_oracle.py``).

**Matrix.**  :data:`MATRIX` is generated from ``dataclasses.fields(FleetConfig)``:
every value a knob declares in its ``choices``, crossed with
:data:`SHARD_COUNTS` (a shard count only labels records for diagnostics, so
one shard and a 4x4 grid stand for all counts).  Deleting a knob deletes its
dimension here with no edit.

**Scenarios.**  :data:`SCENARIOS` holds each input once: state-message
streams, feedback walks, simulations and served runs.  A scenario's ``run``
drives one configuration and returns a :class:`Run`; its ``validate_result``
is the non-vacuity check, read on the run of :data:`DEFAULT` — the shipped
configuration, which engages every incremental stage.  Without it a
differential could pass by exercising nothing.

**Observation.**  At every epoch a scenario queries, :func:`observe` takes
the ``repr`` of one answer surface built from :mod:`repro.serving.protocol`'s
encoders: the epoch's responses and four counters, ``coordinator_snapshot``,
the full ``hot_corridors()`` report, and ``top_k`` / ``top_k_corridors`` at
``k = 1`` and ``k = hot + 5`` under both rankings.  ``repr``, not ``==``:
``-0.0 == 0.0`` and ``2 == 2.0``, and which of two equal values became a
vertex is part of the answer.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.client.state import ObjectState
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig, EpochOutcome
from repro.coordinator.fleet import FleetConfig
from repro.coordinator.overlaps import FsaOverlapStructure, build_structures, plan_shard_overlaps
from repro.coordinator.stitching import stitch_paths
from repro.core.geometry import Point, Rectangle
from repro.core.motion_path import MotionPath
from repro.network.generator import NetworkConfig
from repro.serving.protocol import coordinator_snapshot, encode_corridor, encode_scored_path
from repro.serving.scenarios import ScenarioRunner, replay_accepted_log
from repro.simulation.engine import HotPathSimulation, SimulationConfig

BOUNDS = Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0))

#: A shard count only labels records: one shard and a 4x4 grid stand for all.
SHARD_COUNTS = (1, 16)

#: The paper's coordinator, knob by knob (the entry of a deleted knob goes unread).
_REFERENCE_KNOBS = dict(num_shards=1, backend="serial", epoch_mode="full", kernel="object")


def knob_values(knob) -> Tuple:
    """The values the matrix crosses for one ``FleetConfig`` field."""
    return SHARD_COUNTS if knob.name == "num_shards" else tuple(knob.metadata["choices"])


MATRIX: List[FleetConfig] = [
    FleetConfig(**{knob.name: value for knob, value in zip(fields(FleetConfig), values)})
    for values in itertools.product(*map(knob_values, fields(FleetConfig)))
]
REFERENCE = FleetConfig(**{knob.name: _REFERENCE_KNOBS[knob.name] for knob in fields(FleetConfig)})
#: The shipped configuration, whose run the non-vacuity checks read.
DEFAULT = FleetConfig()


def fleet_id(fleet: FleetConfig) -> str:
    return "-".join(map(str, asdict(fleet).values()))


def make_coordinator(fleet: FleetConfig = DEFAULT, window: int = 60, cells: int = 32) -> Coordinator:
    return Coordinator(
        CoordinatorConfig(bounds=BOUNDS, window=window, cells_per_axis=cells, **asdict(fleet))
    )


def observe(coordinator: Coordinator, outcome: Optional[EpochOutcome] = None) -> str:
    """The ``repr`` of the answer surface after an epoch (see the module docstring)."""
    surface: Dict[str, Any] = {}
    if outcome is not None:
        surface["responses"] = outcome.responses
        surface["counters"] = (
            outcome.states_processed,
            outcome.paths_inserted,
            outcome.paths_reused,
            outcome.paths_expired,
        )
    surface["snapshot"] = coordinator_snapshot(coordinator)
    surface["corridors"] = [encode_corridor(c) for c in coordinator.hot_corridors()]
    for k in (1, len(coordinator.hot_paths()) + 5):
        for by_score in (False, True):
            surface[f"top_k({k}, {by_score})"] = [
                encode_scored_path(s) for s in coordinator.top_k(k, by_score)
            ]
            surface[f"top_k_corridors({k}, {by_score})"] = [
                encode_corridor(c) for c in coordinator.top_k_corridors(k, by_score)
            ]
    return repr(surface)


@dataclass
class Run:
    """One configuration's pass through a scenario."""

    fleet: FleetConfig
    #: Closed at the end of the run; its queries stay valid.
    coordinator: Optional[Coordinator] = None
    #: Every epoch's outcome, queried or not.
    outcomes: List[EpochOutcome] = field(default_factory=list)
    #: One :func:`observe` per queried epoch.
    observations: List[str] = field(default_factory=list)
    #: Whatever else the scenario's non-vacuity check reads.
    facts: Dict[str, Any] = field(default_factory=dict)

    def observe(self, outcome: Optional[EpochOutcome]) -> None:
        self.observations.append(observe(self.coordinator, outcome))


@dataclass(frozen=True)
class Scenario:
    """One input of the harness: how to run it, and how a run proves it
    exercised what the scenario is for."""

    name: str
    run: Callable[[FleetConfig], Run]
    #: ``validate_result(run) -> the names of the failed checks``.
    validate_result: Callable[[Run], List[str]]


def expect(**checks: Any) -> List[str]:
    """The names of the failed checks (the shape of ``validate_result``)."""
    return [name for name, passed in checks.items() if not passed]


@functools.lru_cache(maxsize=None)
def reference_run(scenario: Scenario) -> Run:
    return scenario.run(REFERENCE)


def assert_answers_as(reference: Run, run: Run) -> None:
    """Every queried epoch's observation equals the reference's, by ``repr``."""
    assert len(run.observations) == len(reference.observations), fleet_id(run.fleet)
    for epoch, (expected, actual) in enumerate(zip(reference.observations, run.observations)):
        assert actual == expected, (
            f"{fleet_id(run.fleet)} diverged from the reference at queried epoch {epoch}"
        )


def any_outcome(run: Run, predicate: Callable[[EpochOutcome], Any]) -> bool:
    return any(predicate(outcome) for outcome in run.outcomes)


def multi_segment_corridors(run: Run) -> bool:
    return any(corridor.num_segments > 1 for corridor in run.coordinator.hot_corridors())


# ---------------------------------------------------------------------------
# State-message streams
# ---------------------------------------------------------------------------

Stream = List[Tuple[int, List[ObjectState]]]
#: ``hook(coordinator, epoch_index)``, called before the epoch's submissions.
Hook = Callable[[Coordinator, int], None]


def drive(
    fleet: FleetConfig, stream: Stream, window: int = 60, hook: Optional[Hook] = None, cells: int = 32
) -> Run:
    """Feed ``stream`` epoch by epoch, observing after every epoch."""
    run = Run(fleet, make_coordinator(fleet, window, cells))
    try:
        for index, (boundary, states) in enumerate(stream):
            if hook is not None:
                hook(run.coordinator, index)
            for state in states:
                run.coordinator.submit_state(state)
            outcome = run.coordinator.run_epoch(boundary)
            run.outcomes.append(outcome)
            run.observe(outcome)
    finally:
        run.coordinator.close()
    return run


def synthetic_stream(
    seed: int, epochs: int = 8, per_epoch: int = 30, downtown: float = 0.0
) -> Stream:
    """A seeded stream engineered to stress shard borders.

    Start vertices come from a small pool that includes points exactly on the
    2x2 and 4x4 shard borders and points outside the monitored area; FSAs are
    large enough to straddle borders, object ids repeat within an epoch, and
    end timestamps are emitted out of submission order.  A ``downtown``
    share of the reports starts in the [0, 250]^2 corner instead: a
    density-skewed stream.
    """
    rng = random.Random(seed)
    start_pool = [
        Point(rng.uniform(-50.0, 1050.0), rng.uniform(-50.0, 1050.0)) for _ in range(12)
    ]
    start_pool += [
        Point(500.0, 300.0),  # on the 2x2 vertical border
        Point(250.0, 750.0),  # on 4x4 borders
        Point(500.0, 500.0),  # the exact centre, corner of all four 2x2 shards
        Point(-20.0, 500.0),  # clamped into a border shard
    ]
    stream = []
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        states = []
        for _ in range(per_epoch):
            object_id = rng.randrange(per_epoch * 2)
            if downtown and rng.random() < downtown:
                start = Point(rng.uniform(0.0, 250.0), rng.uniform(0.0, 250.0))
            else:
                start = rng.choice(start_pool)
            half = rng.uniform(5.0, 120.0)
            centre = Point(
                start.x + rng.uniform(-200.0, 200.0),
                start.y + rng.uniform(-200.0, 200.0),
            )
            fsa = Rectangle.from_center(centre, half)
            t_end = boundary - rng.randrange(10)  # deliberately out of order
            states.append(
                ObjectState(object_id, start, max(0, t_end - 5), fsa.low, fsa.high, t_end)
            )
        stream.append((boundary, states))
    return stream


def churn_stream() -> Stream:
    """Expiry churn: under a 25-timestamp window paths expire mid-replay, and
    epochs 4 and 7 are quiet, so expiry runs against an unchanged submission
    side and chains are built, patched and torn down repeatedly."""
    stream = synthetic_stream(21, epochs=10, per_epoch=20)
    return [
        (boundary, [] if index in (4, 7) else states)
        for index, (boundary, states) in enumerate(stream)
    ]


def repeating_stream() -> Stream:
    """The same 25 reports every epoch (fresh timestamps keep them in the
    window), so overlap pools and corridor chains repeat verbatim."""
    base_states = synthetic_stream(3, epochs=2, per_epoch=25)[0][1]
    return [
        (
            boundary,
            [
                ObjectState(
                    s.object_id, s.start, boundary - 5, s.fsa_low, s.fsa_high, boundary - 1
                )
                for s in base_states
            ],
        )
        for boundary in range(10, 70, 10)
    ]


def steady_roster_stream(seed: int = 5, epochs: int = 16, roster: int = 24) -> Stream:
    """Steady traffic: a fixed roster resubmits identical reports every epoch
    (fresh timestamps), and every third epoch one visitor reports once.

    Under a window of 25 a roster path's crossing expires in the epoch that a
    new one touches it, so from epoch 4 on its count does not change: the
    decays and touches cancel, and an epoch without a visitor changes no
    count at all.
    """
    first = synthetic_stream(seed, epochs=1, per_epoch=roster)[0][1]
    base = list({state.object_id: state for state in first}.values())  # one report an object
    rng = random.Random(seed)
    stream = []
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        states = [
            ObjectState(s.object_id, s.start, boundary - 6, s.fsa_low, s.fsa_high, boundary - 1)
            for s in base
        ]
        if epoch % 3 == 0:
            start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            fsa = Rectangle.from_center(Point(start.x + 80.0, start.y), 10.0)
            states.append(
                ObjectState(1000 + epoch, start, boundary - 6, fsa.low, fsa.high, boundary - 1)
            )
        stream.append((boundary, states))
    return stream


def saturating_stream() -> Stream:
    """Three epochs; the middle one fills the overlap-region cap of one pool.

    Fourteen FSAs around the centre of the area all contain the square
    [430, 570]^2, so every one of their 2^14 - 1 subsets is a region — past
    the cap of 10000 — and which ones the capped build keeps depends on the
    order of the pool's own members.  They are interleaved with sparse
    reporters spread over the whole area, and several reporters without a
    stored path probe the clique.  The stream does not tell the epoch-wide
    cap from the per-component one: the epoch-wide build, which counted the
    sparse singletons against the cap, kept 30 fewer pool regions and
    dropped two late singletons, yet answered exactly as the per-component
    cap does (``tests/test_isolated_fsas.py`` tells the two apart).
    """
    rng = random.Random(7)

    def state(object_id, start, fsa, t_end):
        return ObjectState(object_id, start, t_end - 5, fsa.low, fsa.high, t_end)

    def sparse(object_id, t_end):
        start = Point(rng.uniform(20.0, 980.0), rng.uniform(20.0, 980.0))
        return state(object_id, start, Rectangle.from_center(start, rng.uniform(5.0, 15.0)), t_end)

    stream = [(10, [sparse(object_id, 9) for object_id in range(100, 124)])]
    saturated = []
    for member in range(14):
        low = Point(430.0 - rng.uniform(1.0, 200.0), 430.0 - rng.uniform(1.0, 200.0))
        high = Point(570.0 + rng.uniform(1.0, 200.0), 570.0 + rng.uniform(1.0, 200.0))
        start = Point(rng.uniform(low.x, high.x), rng.uniform(low.y, high.y))
        saturated.append(state(member, start, Rectangle(low, high), 19))
        saturated.extend(sparse(200 + 3 * member + extra, 19) for extra in range(3))
    for prober in range(6):
        centre = Point(rng.uniform(300.0, 700.0), rng.uniform(300.0, 700.0))
        saturated.append(
            state(300 + prober, centre, Rectangle.from_center(centre, rng.uniform(40.0, 120.0)), 19)
        )
    stream.append((20, saturated))
    stream.append((30, [sparse(object_id, 29) for object_id in range(100, 124)]))
    return stream


def centred_report(object_id, start, centre, half, t_end) -> ObjectState:
    fsa = Rectangle.from_center(Point(*centre), half)
    return ObjectState(object_id, Point(*start), max(0, t_end - 5), fsa.low, fsa.high, t_end)


def crafted_stream() -> Stream:
    """Epochs built around what the epoch pass must merge back in.

    Epoch 1 has nothing indexed: reporters 1 and 2 overlap, so the first
    fabricates the shared centroid and inserts a path to it — an in-epoch
    insert that lands inside the second's FSA.  Epoch 2 sends two new
    reporters whose FSAs contain that (now stored) vertex: the first inserts
    another path onto the already-indexed vertex, which the second must see
    on top of what the pass read.  Reporter 9 reports twice in epoch 2 and
    the FSAs around (500, 500) straddle all four shards of a 2x2 grid.
    """
    return [
        (10, [
            centred_report(1, (100.0, 100.0), (300.0, 300.0), 60.0, 8),
            centred_report(2, (120.0, 80.0), (320.0, 310.0), 60.0, 9),
            centred_report(3, (480.0, 520.0), (500.0, 500.0), 40.0, 7),
        ]),
        (20, [
            centred_report(4, (150.0, 400.0), (305.0, 310.0), 50.0, 18),
            centred_report(5, (400.0, 150.0), (315.0, 300.0), 50.0, 17),
            centred_report(9, (700.0, 700.0), (510.0, 505.0), 45.0, 16),
            centred_report(9, (720.0, 690.0), (495.0, 510.0), 45.0, 19),
            centred_report(6, (520.0, 480.0), (505.0, 495.0), 40.0, 15),
        ]),
    ]


def boxed_report(object_id, start, low, high, t_end) -> ObjectState:
    return ObjectState(object_id, Point(*start), t_end - 5, Point(*low), Point(*high), t_end)


def co_occurrence_stream() -> Stream:
    """Case 1 choices that the co-occurrence boost and the id tie decide.

    Epoch 1 stores two paths from each of three starts, ``(100, 100)`` to
    ``(300, 300)`` / ``(500, 300)``, ``(800, 800)`` to ``(700, 800)`` /
    ``(900, 800)`` and ``(100, 800)`` to ``(200, 800)`` / ``(300, 800)``;
    epoch 2 crosses ``(300, 300)`` three more times.  In epoch 3 every
    report has Case 1 candidates: object 6 weighs the hotter ``(300, 300)``
    against ``(500, 300)``, which objects 7 and 8 also hold (boosted 5
    against 4); object 13 two equally hot paths, one of which object 14 also
    holds; object 23 two equally hot paths nobody else holds.
    """
    first = [
        boxed_report(1, (100, 100), (295, 295), (305, 305), 10),
        boxed_report(2, (100, 100), (495, 295), (505, 305), 10),
        boxed_report(11, (800, 800), (695, 795), (705, 805), 10),
        boxed_report(12, (800, 800), (895, 795), (905, 805), 10),
        boxed_report(21, (100, 800), (195, 795), (205, 805), 10),
        boxed_report(22, (100, 800), (295, 795), (305, 805), 10),
    ]
    second = [boxed_report(object_id, (100, 100), (290, 290), (310, 310), 20) for object_id in (3, 4, 5)]
    third = [
        boxed_report(6, (100, 100), (290, 290), (510, 310), 30),
        boxed_report(7, (100, 100), (490, 290), (510, 310), 30),
        boxed_report(8, (100, 100), (490, 290), (510, 310), 30),
        boxed_report(13, (800, 800), (690, 790), (910, 810), 30),
        boxed_report(14, (800, 800), (890, 790), (910, 810), 30),
        boxed_report(23, (100, 800), (190, 790), (310, 810), 30),
    ]
    return [(10, first), (20, second), (30, third)]


def equal_ends_stream() -> Stream:
    """Two equal ends that print apart; the earlier one stays the vertex key.

    Epoch 1 stores an end at ``(-0.0, 0.0)``.  In epoch 2 objects 8 and 9
    reuse paths (Case 1) with identical FSAs, and object 10's FSA only
    touches theirs at a corner, so it fabricates their overlap's centre,
    ``(0.0, 0.0)``, without seeing the older end.  Epoch 3's FSA holds both
    ends: the older one, ``-0.0``, is the vertex it answers with.
    """
    return [
        (10, [
            boxed_report(1, (5.0, 5.0), (-0.0, 0.0), (-0.0, 0.0), 10),
            boxed_report(8, (8.0, 8.0), (0.9, 0.9), (0.9, 0.9), 10),
            boxed_report(9, (9.0, 9.0), (0.9, -0.9), (0.9, -0.9), 10),
        ]),
        (20, [
            boxed_report(10, (7.0, 7.0), (1.0, 1.0), (2.0, 2.0), 20),
            boxed_report(8, (8.0, 8.0), (-1.0, -1.0), (1.0, 1.0), 20),
            boxed_report(9, (9.0, 9.0), (-1.0, -1.0), (1.0, 1.0), 20),
        ]),
        (30, [boxed_report(11, (3.0, 3.0), (-0.5, -0.5), (0.5, 0.5), 30)]),
    ]


def signed_zero_stream() -> Stream:
    """A zero-width FSA at ``x = -0.0``, then — its path expired, the index
    empty again — the same FSA at ``x = 0.0``, whose fabricated centroid must
    be ``(0.0, 15.0)``.  A zero-width FSA is always isolated, so it never
    reaches the pool cache, whose ``==`` lookup once handed delta mode the
    ``-0.0`` singleton back."""
    return [
        (t_end, [boxed_report(1, (500.0, 500.0), (zero, 10.0), (zero, 20.0), t_end)])
        for t_end, zero in ((10, -0.0), (100, 0.0))
    ]


def _clamp(value: float, low: float = 0.0, high: float = 1000.0) -> float:
    return min(max(value, low), high)


def turnover_stream(turnover: float, seed: int = 5, epochs: int = 5, core: int = 32) -> Stream:
    """A stable core of downtown reporters plus a ``turnover`` share of new ones.

    The core resubmits the identical ``(object, start, FSA)`` report every
    epoch.  Up to 50 % turnover adds that share of one-off visitors confined
    to the far corner, so only their small components are new each epoch and
    the core's large one repeats; above it, that share of the core itself is
    replaced every epoch, which dirties the large component.
    """
    rng = random.Random(seed)

    def core_reporter(object_id):
        start = Point(rng.uniform(0.0, 700.0), rng.uniform(0.0, 700.0))
        centre = Point(
            _clamp(start.x + rng.uniform(-80.0, 80.0), high=700.0),
            _clamp(start.y + rng.uniform(-80.0, 80.0), high=700.0),
        )
        return object_id, start, Rectangle.from_center(centre, rng.uniform(60.0, 120.0))

    def visitor(object_id):
        start = Point(rng.uniform(815.0, 985.0), rng.uniform(815.0, 985.0))
        return object_id, start, Rectangle.from_center(start, rng.uniform(15.0, 35.0))

    roster = [core_reporter(object_id) for object_id in range(core)]
    next_id = core
    visitors = round(core * turnover / (1.0 - turnover)) if turnover <= 0.5 else 0
    replaced = int(core * turnover) if turnover > 0.5 else 0
    stream = []
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        if replaced:
            roster = roster[:-replaced]
            while len(roster) < core:
                roster.append(core_reporter(next_id))
                next_id += 1
        reporters = list(roster)
        for _ in range(visitors):
            reporters.append(visitor(next_id))
            next_id += 1
        states = [
            ObjectState(object_id, start, boundary - 6, fsa.low, fsa.high, boundary - 1)
            for object_id, start, fsa in reporters
        ]
        stream.append((boundary, states))
    return stream


def dense_stream(seed: int = 9, epochs: int = 2, per_epoch: int = 200) -> Stream:
    """200 overlapping FSAs an epoch over a coarse 16x16 grid: each epoch's
    overlap structure holds over a thousand regions, and the second epoch's
    candidate pass probes the ends the first indexed — the load the columnar
    kernel is for."""
    rng = random.Random(seed)
    stream = []
    for epoch in range(1, epochs + 1):
        states = []
        for _ in range(per_epoch):
            start = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
            centre = Point(
                _clamp(start.x + rng.uniform(-120.0, 120.0)),
                _clamp(start.y + rng.uniform(-120.0, 120.0)),
            )
            fsa = Rectangle.from_center(centre, rng.uniform(30.0, 60.0))
            states.append(
                ObjectState(
                    rng.randrange(per_epoch * 3), start, epoch * 10 - 5, fsa.low, fsa.high, epoch * 10
                )
            )
        stream.append((epoch * 10, states))
    return stream


def stream_scenario(
    name: str, stream: Stream, validate, window: int = 60, cells: int = 32
) -> Scenario:
    return Scenario(name, lambda fleet: drive(fleet, stream, window, cells=cells), validate)


def pool_counts(run: Run) -> Tuple[int, int]:
    statistics = run.coordinator.shard_statistics()
    return statistics["pools_reused"], statistics["pools_rebuilt"]


BORDER_STREAM = synthetic_stream(11)
SATURATING_STREAM = saturating_stream()
DENSE_STREAM = dense_stream()


def dense_is_exercised(run: Run) -> List[str]:
    """Over a thousand regions an epoch, and second-epoch paths that end on
    vertices the first epoch indexed."""
    records = list(run.coordinator.index.records)
    first_ends = {record.end for record in records if record.created_at <= DENSE_STREAM[0][0]}
    return expect(
        a_thousand_regions=all(
            len(FsaOverlapStructure.build({state.object_id: state.fsa for state in states})) >= 1000
            for _boundary, states in DENSE_STREAM
        ),
        second_epoch_lands_on_indexed_ends=any(
            record.end in first_ends
            for record in records
            if record.created_at > DENSE_STREAM[0][0]
        ),
    )

STREAM_SCENARIOS = [
    stream_scenario(
        "border",
        BORDER_STREAM,
        lambda run: expect(
            inserts=any_outcome(run, lambda o: o.paths_inserted),
            reuses=any_outcome(run, lambda o: o.paths_reused),
            one_delta_an_epoch=all(o.delta is not None for o in run.outcomes),
        ),
    ),
    stream_scenario(
        "skewed",
        synthetic_stream(42, downtown=0.8),
        lambda run: expect(
            downtown_majority=2 * sum(
                r.start.x <= 250.0 and r.start.y <= 250.0
                for r in run.coordinator.index.records
            ) > run.coordinator.index_size(),
        ),
    ),
    stream_scenario(
        "expiry_churn",
        churn_stream(),
        lambda run: expect(
            expired=any_outcome(run, lambda o: o.paths_expired),
            evicted=any_outcome(run, lambda o: o.delta.deleted),
            quiet_epochs=[run.outcomes[i].states_processed for i in (4, 7)] == [0, 0],
        ),
        window=25,
    ),
    stream_scenario(
        "repeating",
        repeating_stream(),
        lambda run: expect(
            pool_cache_hits=run.coordinator.shard_statistics()["pools_reused"] > 0,
            chains_reused=run.coordinator.shard_statistics()["chains_reused"]
            + run.coordinator.shard_statistics()["corridors_reused"] > 0,
        ),
    ),
    stream_scenario(
        "saturated_cap",
        SATURATING_STREAM,
        lambda run: expect(
            cap_filled=10000 in map(
                len,
                build_structures(
                    plan_shard_overlaps(
                        None,
                        [state.object_id for state in SATURATING_STREAM[1][1]],
                        [state.fsa for state in SATURATING_STREAM[1][1]],
                    ).pools
                ),
            ),
        ),
    ),
    stream_scenario(
        "epoch_pass",
        crafted_stream(),
        lambda run: expect(
            insert_onto_an_indexed_vertex=len(
                {record.end for record in run.coordinator.index.records}
            ) < run.coordinator.index_size(),
        ),
    ),
    stream_scenario(
        "equal_ends",
        equal_ends_stream(),
        lambda run: expect(
            fabricated_zero_end="end=Point(x=0.0, y=0.0)"
            in repr(list(run.coordinator.index.records)),
            older_end_answers=repr(run.outcomes[2].responses)
            == "[CoordinatorResponse(object_id=11, endpoint=Point(x=-0.0, y=0.0), timestamp=30)]",
        ),
    ),
    stream_scenario(
        "turnover_10",
        turnover_stream(0.1),
        lambda run: expect(core_component_reused=pool_counts(run)[0] > 0),
        window=1_000_000,
    ),
    stream_scenario(
        "turnover_90",
        turnover_stream(0.9),
        lambda run: expect(
            nothing_reused=pool_counts(run)[0] == 0,
            rebuilt_every_epoch=pool_counts(run)[1] >= len(run.outcomes),
        ),
        window=1_000_000,
    ),
    stream_scenario(
        "co_occurrence",
        co_occurrence_stream(),
        lambda run: expect(
            case_1_only_in_epoch_3=[(o.paths_reused, o.paths_inserted) for o in run.outcomes]
            == [(0, 6), (3, 0), (6, 0)],
        ),
    ),
    stream_scenario("dense_200", DENSE_STREAM, dense_is_exercised, cells=16),
    stream_scenario(
        "signed_zero_singleton",
        signed_zero_stream(),
        lambda run: expect(
            zero_centroid="Point(x=0.0, y=15.0)" in repr(run.outcomes[1].responses),
        ),
    ),
]


# ---------------------------------------------------------------------------
# Feedback walks: each object reports from its last response
# ---------------------------------------------------------------------------


def feedback_epochs(
    coordinator: Coordinator, seed: int, epochs: int = 8, objects: int = 14
) -> Iterator[EpochOutcome]:
    """Drive one feedback epoch at a time, yielding each ``EpochOutcome``.

    Objects random-walk across the whole area (steps up to 240 units cross
    the 4x4 shard borders routinely); each epoch an object reports from the
    endpoint of its previous response, so consecutive paths weld end-to-start
    and the corridor report is non-trivial.  Per-step randomness is derived
    from ``(seed, epoch, object)`` alone, so every coordinator sees the same
    stream as long as its responses match.
    """
    rng = random.Random(seed)
    position = {
        object_id: Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        for object_id in range(objects)
    }
    for epoch in range(1, epochs + 1):
        boundary = epoch * 10
        for object_id in range(objects):
            step = random.Random(seed * 1_000_003 + epoch * 1009 + object_id)
            start = position[object_id]
            target = Point(
                _clamp(start.x + step.uniform(-240.0, 240.0)),
                _clamp(start.y + step.uniform(-240.0, 240.0)),
            )
            fsa = Rectangle.from_center(target, step.uniform(8.0, 60.0))
            t_end = boundary - step.randrange(5)
            coordinator.submit_state(
                ObjectState(object_id, start, max(0, t_end - 5), fsa.low, fsa.high, t_end)
            )
        outcome = coordinator.run_epoch(boundary)
        for response in outcome.responses:
            position[response.object_id] = response.endpoint
        yield outcome


def feedback_scenario(name: str, seed: int, window: int, epochs: int, validate) -> Scenario:
    def run_feedback(fleet: FleetConfig) -> Run:
        run = Run(fleet, make_coordinator(fleet, window))
        try:
            for outcome in feedback_epochs(run.coordinator, seed, epochs):
                run.outcomes.append(outcome)
                run.observe(outcome)
        finally:
            run.coordinator.close()
        return run

    return Scenario(name, run_feedback, validate)


#: Epochs of the query-view stream that are observed; 4-6 go unqueried, so
#: the view's dirty set accumulates over three commits.
VIEW_EPOCHS = 10
QUERIED_EPOCHS = frozenset({1, 2, 3, 7, 8, 9, 10})
#: Two scripted commuters shuttle A <-> B in counter-phase; two one-off
#: visitors travel C -> B five epochs apart.
COMMUTE_A, COMMUTE_B, COMMUTE_C = Point(900.0, 100.0), Point(900.0, 600.0), Point(900.0, 850.0)


def _hot_now(coordinator: Coordinator, path: MotionPath, crossings: int, now: int) -> int:
    """Insert ``path`` behind the coordinator's back and cross it ``crossings`` times."""
    record = coordinator.index.insert(path.start, path.end, created_at=now)
    for _ in range(crossings):
        coordinator.hotness.record_crossing(record.path_id, now)
    return record.path_id


def view_epochs(coordinator: Coordinator, seed: int = 11) -> Iterator[Tuple[int, EpochOutcome]]:
    """The feedback walk plus everything the maintained query view must survive.

    * two commuters shuttling ``COMMUTE_A <-> COMMUTE_B`` in counter-phase:
      both legs are crossed every epoch, so from epoch 4 on an old crossing
      decays in the very epoch a new one touches the path; a visitor crosses
      ``C -> B`` once in epoch 1, the path vanishes, and a second visitor
      re-creates its geometry under a new id in epoch 6;
    * after epoch 2, mutations made directly on the index and the tracker:
      a three-path weld cycle with unequal hotness, and two disjoint paths of
      equal length and hotness (equal scores, hotness ties) — one of which is
      deleted from the index after epoch 8, while it is still hot and no
      transition of that epoch names it.

    Yields ``(epoch, outcome)`` after the epoch's direct mutations.
    """
    walkers = feedback_epochs(coordinator, seed, epochs=VIEW_EPOCHS, objects=12)
    commuter_at = {100: COMMUTE_A, 110: COMMUTE_B}
    doomed = None
    for epoch in range(1, VIEW_EPOCHS + 1):
        boundary = epoch * 10
        trips = [
            (object_id, start, COMMUTE_B if start == COMMUTE_A else COMMUTE_A)
            for object_id, start in commuter_at.items()
        ]
        if epoch in (1, 6):
            trips.append((100 + epoch, COMMUTE_C, COMMUTE_B))
        for object_id, start, target in trips:
            fsa = Rectangle.from_center(target, 4.0)
            coordinator.submit_state(
                ObjectState(object_id, start, boundary - 6, fsa.low, fsa.high, boundary - 1)
            )
        outcome = next(walkers)  # submits the walkers' states and runs the epoch
        for response in outcome.responses:
            if response.object_id in commuter_at:
                commuter_at[response.object_id] = response.endpoint
        if epoch == 2:
            v0, v1, v2 = Point(100.0, 900.0), Point(400.0, 900.0), Point(250.0, 700.0)
            for crossings, path in enumerate(
                (MotionPath(v0, v1), MotionPath(v1, v2), MotionPath(v2, v0)), start=1
            ):
                _hot_now(coordinator, path, crossings, boundary)
            twin = MotionPath(Point(50.0, 50.0), Point(350.0, 50.0))
            _hot_now(coordinator, twin, 2, boundary)
            doomed = _hot_now(
                coordinator, MotionPath(Point(50.0, 60.0), Point(350.0, 60.0)), 2, boundary + 40
            )
        if epoch == 8:
            coordinator.index.delete(doomed)  # hot entry without a live record
        yield epoch, outcome


def run_query_view(fleet: FleetConfig) -> Run:
    run = Run(fleet, make_coordinator(fleet, window=25))
    first_id: Dict[MotionPath, int] = {}
    run.facts.update(recreated=False, dirty_before_query={})
    try:
        for epoch, outcome in view_epochs(run.coordinator):
            run.outcomes.append(outcome)
            hot = run.coordinator.hot_paths()
            for record, _hotness in hot:
                if first_id.setdefault(record, record.path_id) != record.path_id:
                    run.facts["recreated"] = True
            if epoch == 2:
                run.facts["hot_after_mutations"] = hot
            if epoch in QUERIED_EPOCHS:
                view = run.coordinator._view
                run.facts["dirty_before_query"][epoch] = view and view._dirty
                run.observe(outcome)
    finally:
        run.coordinator.close()
    return run


def query_view_is_exercised(run: Run) -> List[str]:
    """Ties, equal scores, a weld cycle, same-epoch touch and decay, a
    vanished-and-re-created path, and both ways the view catches up: a patch
    from a small dirty set, and the rescan once it outgrew the hot set."""
    hot = run.facts["hot_after_mutations"]
    keys = [(h, h * record.length) for record, h in hot]
    cycles = [c for c in stitch_paths(hot) if c.num_segments == 3 and c.start == c.end]
    tenth = sorted((h for _record, h in hot), reverse=True)[9]
    dirty = run.facts["dirty_before_query"]
    return expect(
        equal_hotness_and_score=len(set(keys)) < len(keys),
        weld_cycle=cycles and cycles[0].hotness == 1,
        tie_at_the_cut=sum(h == tenth for _record, h in hot) > 1,
        touched_and_decayed=any_outcome(
            run, lambda o: set(o.delta.touched) & set(o.delta.decayed)
        ),
        recreated=run.facts["recreated"],
        patched=dirty[9],
        rescanned=None in dirty.values(),
    )


def run_chained_walks(fleet: FleetConfig) -> Run:
    """80 random walks of 8 steps inserted and crossed behind the
    coordinator's back: ~600 hot fragments chained end to start across the
    4x4 shard borders, observed once."""
    run = Run(fleet, make_coordinator(fleet, window=10**6))
    rng = random.Random(11)
    for timestamp in range(80):
        point = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        for _step in range(8):
            target = Point(
                _clamp(point.x + rng.uniform(-180.0, 180.0)),
                _clamp(point.y + rng.uniform(-180.0, 180.0)),
            )
            if target != point:
                _hot_now(run.coordinator, MotionPath(point, target), 1, timestamp)
                point = target
    run.observe(None)
    run.coordinator.close()
    return run


def chained_walks_are_exercised(run: Run) -> List[str]:
    """The report is the global stitch of the hot set, with long corridors."""
    hot = run.coordinator.hot_paths()
    return expect(
        hundreds_of_fragments=len(hot) >= 500,
        global_stitch=repr(run.coordinator.hot_corridors()) == repr(stitch_paths(hot)),
        multi_segment_corridors=multi_segment_corridors(run),
    )


# ---------------------------------------------------------------------------
# Simulations and served runs
# ---------------------------------------------------------------------------


def simulation_scenario(name: str, seed: int, **workload) -> Scenario:
    """A full simulation (RayTrace clients feeding the coordinator), observed
    after every epoch — the simulation queries the top-k score every epoch."""

    def run_simulation(fleet: FleetConfig) -> Run:
        simulation = HotPathSimulation(
            SimulationConfig(
                tolerance=10.0,
                window=50,
                epoch_length=10,
                fleet=fleet,
                seed=seed,
                network_config=NetworkConfig(area_size=2000.0, grid_nodes_per_axis=6, seed=seed),
                run_dp_baseline=False,
                run_naive_baseline=False,
                **workload,
            )
        )
        run = Run(fleet, simulation.coordinator)
        run_epoch = run.coordinator.run_epoch

        def observed_epoch(now: int) -> EpochOutcome:
            outcome = run_epoch(now)
            run.outcomes.append(outcome)
            run.observe(outcome)
            return outcome

        run.coordinator.run_epoch = observed_epoch
        simulation.run()
        return run

    return Scenario(
        name,
        run_simulation,
        lambda run: expect(
            multi_segment_corridors=multi_segment_corridors(run),
            observed_every_epoch=len(run.observations) >= 6,
        ),
    )


def served_scenario(name: str, scenario_id: str, seed: int, concurrent: bool = False) -> Scenario:
    """A registered serving scenario through the TCP front door, observed
    once: the accepted log and the served snapshot."""

    def run_served(fleet: FleetConfig) -> Run:
        result = ScenarioRunner(fleet).run(scenario_id, seed=seed, concurrent=concurrent)
        run = Run(fleet, observations=[repr(result.accepted_log), repr(result.report)])
        run.facts["result"] = result
        return run

    def validate(run: Run) -> List[str]:
        result = run.facts["result"]
        replayed = replay_accepted_log(result.accepted_log, fleet=run.fleet)
        return expect(
            every_update_accepted=result.accepted_updates == result.submitted_updates > 0,
            served_equals_its_replay=repr(result.report) == repr(replayed),
        )

    return Scenario(name, run_served, validate)


SCENARIOS: List[Scenario] = STREAM_SCENARIOS + [
    feedback_scenario(
        "feedback",
        seed=11,
        window=120,
        epochs=8,
        validate=lambda run: expect(
            multi_segment_corridors=multi_segment_corridors(run),
            chains_rewelded=run.coordinator.shard_statistics()["chains_rewelded"] > 0,
            corridors_reused=run.coordinator.shard_statistics()["corridors_reused"] > 0,
        ),
    ),
    feedback_scenario(
        "feedback_expiry",
        seed=42,
        window=25,
        epochs=10,
        validate=lambda run: expect(
            fragments_expired=run.coordinator.shard_statistics()["fragments_removed"] > 0,
        ),
    ),
    Scenario("query_view", run_query_view, query_view_is_exercised),
    Scenario("chained_walks", run_chained_walks, chained_walks_are_exercised),
    simulation_scenario("simulation", seed=3, num_objects=70, duration=80, agility=0.1),
    simulation_scenario("simulation_agile", seed=9, num_objects=50, duration=70, agility=0.4),
    simulation_scenario("simulation_dense", seed=21, num_objects=110, duration=60, agility=0.1),
    served_scenario("served", "uniform_trickle", seed=11),
    served_scenario("served_concurrent", "bursty_downtown", seed=13, concurrent=True),
]
SCENARIO: Dict[str, Scenario] = {scenario.name: scenario for scenario in SCENARIOS}
