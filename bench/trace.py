"""Outside-in layer tracing: spans around public callables, for the traced run only.

One table, :func:`layer_table`, names the public callables of every layer
(layer = module name under ``repro``).  :func:`installed` rebinds each of them,
at the binding its callers resolve, to a wrapper that records a span — name,
start, end, the span that caused it — in memory; the originals are restored on
exit, and forked worker processes drop the wrappers, so workers are never
traced (the parent-side wall of ``map_candidate_buckets`` is the
ship + wait + decode figure).  Nothing in ``src/`` is edited: spans inside the
program are ROADMAP item 1.

A layer's self time is its span minus the spans it caused on the same thread.
Counts ride on the spans that already return them (``EpochOutcome`` /
``EpochDelta`` from ``run_epoch``, the ``OverlapPlan``, built structures), read
after the span's clock stopped.  Spans carry raw ``perf_counter`` values —
``CLOCK_MONOTONIC``, shared by every process on the box — so the harness
assigns epoch ids afterwards by bisecting its own epoch bounds, the same way
for in-process spans and for spans a traced server child wrote to disk.
"""

from __future__ import annotations

import json
import os
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.coordinator import execution, sharding, single_path
from repro.coordinator.coordinator import Coordinator
from repro.coordinator.execution import ExecutionBackend
from repro.coordinator.hotness import HotnessTracker
from repro.coordinator.overlaps import FsaOverlapStructure, OverlapPoolCache
from repro.coordinator.sharding import ShardedSinglePath, ShardRouter
from repro.coordinator.single_path import SinglePathStrategy
from repro.serving.batcher import EpochBatcher
from repro.serving.server import IngestionServer

__all__ = [
    "SpanRecorder",
    "layer_table",
    "installed",
    "layer_metrics",
    "final_counts",
    "write_spans",
    "read_spans",
]

#: Exported span: ``(name, start, end, parent index or -1, counts or None)``.
Span = Tuple[str, float, float, int, Optional[Dict[str, float]]]
CountHook = Callable[[Any, tuple, Dict[str, Any]], Dict[str, float]]


class SpanRecorder:
    """In-memory span sink; one per traced run."""

    def __init__(self) -> None:
        # Live spans are lists ``[name, start, end, parent span, counts]``; the
        # parent is the list object itself so concurrent appends from the
        # decision thread pool cannot misnumber it.
        self._spans: List[list] = []
        self._local = threading.local()
        #: The coordinator most recently seen by the ``run_epoch`` span — the
        #: traced server child has no other handle on the one ``repro serve``
        #: builds.
        self.coordinator: Optional[Coordinator] = None

    def wrap(self, name: str, function: Callable, count: Optional[CountHook] = None) -> Callable:
        spans, local, clock = self._spans, self._local, time.perf_counter

        @wraps(function)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, clock(), 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(result, args, kwargs)
            return result

        return traced

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span the harness timed itself (per-timestamp client loops)."""
        self._spans.append([name, start, end, None, None])

    def export(self) -> List[Span]:
        index_of = {id(span): index for index, span in enumerate(self._spans)}
        return [
            (name, start, end, index_of[id(parent)] if parent is not None else -1, counts)
            for name, start, end, parent, counts in self._spans
        ]


# -- count hooks: read results the spans already return, after their clock stopped --


def _epoch_counts(recorder: SpanRecorder) -> CountHook:
    def hook(outcome, args, _kwargs):
        recorder.coordinator = args[0]
        counts = {
            "coordinator.states": outcome.states_processed,
            "single_path.inserted": outcome.paths_inserted,
            "single_path.reused": outcome.paths_reused,
            "hotness.expired": outcome.paths_expired,
        }
        delta = outcome.delta
        if delta is not None:
            counts.update(
                {
                    "overlaps.pools_total": delta.pools_total,
                    "overlaps.pools_reused": delta.pools_reused,
                    "overlaps.pools_prefix_reused": delta.pools_prefix_reused,
                    "overlaps.pools_rebuilt": delta.pools_rebuilt,
                    "sharding.renumbered": delta.renumbered,
                }
            )
        return counts

    return hook


def _plan_counts(plan, args, _kwargs):
    return {
        "sharding.pools": len(plan.pools),
        "sharding.pool_members": sum(len(pool) for pool in plan.pools),
        "sharding.distinct_fsas": len(args[2]),
    }


def _build_counts(structure, args, kwargs):
    # build(cls, fsas, max_regions, base, ...): a resumed build only derived the tail.
    base = kwargs.get("base", args[3] if len(args) > 3 else None)
    return {"overlaps.regions": len(structure) - (len(base) if base is not None else 0)}


def _group_counts(groups, _args, _kwargs):
    return {"execution.conflict_groups": len(groups)}


def _corridor_counts(corridors, _args, _kwargs):
    return {"stitching.corridors": len(corridors)}


def layer_table(recorder: SpanRecorder) -> Dict[str, List[Tuple[Any, str, Optional[CountHook]]]]:
    """``{layer: [(owner, attribute, count hook)]}`` — the whole trace surface.

    An owner is a class (the attribute is wrapped on it and on every subclass
    that overrides it) or the module whose global the callers resolve: a
    function imported by name is rebound in the *importing* module.
    """
    return {
        "hotness": [
            (HotnessTracker, "advance_time", None),
            (HotnessTracker, "drain_delta_log", None),
        ],
        "single_path": [
            (SinglePathStrategy, "process_epoch", None),
            (SinglePathStrategy, "candidate_paths", None),
            (SinglePathStrategy, "decide", None),
            (single_path, "apply_co_occurrence_boost", None),
            (sharding, "apply_co_occurrence_boost", None),
        ],
        "overlaps": [
            (FsaOverlapStructure, "build", _build_counts),
            (OverlapPoolCache, "resolve", None),
            (OverlapPoolCache, "store", None),
            (execution, "build_structures", None),
        ],
        "sharding": [
            (sharding, "plan_shard_overlaps", _plan_counts),
            (ShardedSinglePath, "process_epoch", None),
            (ShardRouter, "finish_parallel_commit", None),
            (ShardRouter, "maybe_rebalance", None),
            (ShardRouter, "stitch_epoch", None),
        ],
        "execution": [
            (ExecutionBackend, "map_candidate_buckets", None),
            (ExecutionBackend, "map_decision_groups", None),
            (ExecutionBackend, "map_stitch_buckets", None),
            (sharding, "conflict_groups", _group_counts),
        ],
        "coordinator": [
            (Coordinator, "run_epoch", _epoch_counts(recorder)),
            (Coordinator, "top_k", None),
            (Coordinator, "hot_corridors", _corridor_counts),
        ],
        "batcher": [
            (EpochBatcher, "offer", None),
            (EpochBatcher, "close_epoch", None),
        ],
        "server": [
            (IngestionServer, "handle_line", None),
        ],
    }


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: ``(target, attribute, original)`` of every live wrapper, newest last.
_patches: List[Tuple[Any, str, Any]] = []
_fork_hook_registered = False


def _uninstall() -> None:
    while _patches:
        target, attribute, original = _patches.pop()
        setattr(target, attribute, original)


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every callable of :func:`layer_table` for the duration of the block."""
    global _fork_hook_registered
    if _patches:
        raise RuntimeError("layer tracing is already installed")
    if not _fork_hook_registered:
        # ProcessBackend forks its workers while the wrappers are live; the
        # child restores the originals so workers run (and stay) untraced.
        os.register_at_fork(after_in_child=_uninstall)
        _fork_hook_registered = True
    try:
        for entries in layer_table(recorder).values():
            for owner, attribute, count in entries:
                if isinstance(owner, type):
                    name = f"{owner.__name__}.{attribute}"
                    targets = [cls for cls in (owner, *_subclasses(owner)) if attribute in vars(cls)]
                else:
                    name, targets = attribute, [owner]
                for target in targets:
                    original = vars(target)[attribute]
                    if isinstance(original, (classmethod, staticmethod)):
                        wrapped = type(original)(recorder.wrap(name, original.__func__, count))
                    else:
                        wrapped = recorder.wrap(name, original, count)
                    _patches.append((target, attribute, original))
                    setattr(target, attribute, wrapped)
        yield recorder
    finally:
        _uninstall()


# -- aggregation -------------------------------------------------------------

#: Per-layer timing metric -> the spans whose self time it sums, per epoch.
SELF_TIME_MS: Dict[str, Tuple[str, ...]] = {
    "client.observe_ms": ("RayTraceFilter.observe",),
    "client.receive_ms": ("RayTraceFilter.receive_response",),
    "workload.step_ms": ("MovingObjectWorkload.step",),
    "coordinator.submit_ms": ("Coordinator.submit_state",),
    "coordinator.run_epoch_self_ms": ("Coordinator.run_epoch",),
    "coordinator.topk_ms": ("Coordinator.top_k",),
    "hotness.advance_ms": ("HotnessTracker.advance_time",),
    "delta.drain_ms": ("HotnessTracker.drain_delta_log",),
    "single_path.candidates_ms": ("SinglePathStrategy.candidate_paths",),
    "single_path.boost_ms": ("apply_co_occurrence_boost",),
    "single_path.decide_ms": ("SinglePathStrategy.decide",),
    "single_path.process_self_ms": ("SinglePathStrategy.process_epoch",),
    "overlaps.build_ms": ("FsaOverlapStructure.build", "build_structures"),
    "overlaps.cache_ms": ("OverlapPoolCache.resolve", "OverlapPoolCache.store"),
    "sharding.route_plan_ms": ("ShardedSinglePath.process_epoch", "plan_shard_overlaps"),
    "sharding.rebalance_ms": ("ShardRouter.maybe_rebalance",),
    "sharding.renumber_ms": ("ShardRouter.finish_parallel_commit",),
    "execution.candidates_wall_ms": ("ExecutionBackend.map_candidate_buckets",),
    "execution.decisions_wall_ms": ("ExecutionBackend.map_decision_groups", "conflict_groups"),
    "execution.stitch_wall_ms": ("ExecutionBackend.map_stitch_buckets",),
    "stitching.query_ms": ("Coordinator.hot_corridors", "ShardRouter.stitch_epoch"),
    "batcher.offer_ms": ("EpochBatcher.offer",),
    "batcher.close_overhead_ms": ("EpochBatcher.close_epoch",),
    "server.handle_line_self_ms": ("IngestionServer.handle_line",),
}

#: Spans of work the end-to-end timers exclude (input generation).
UNTIMED_SPANS = frozenset({"MovingObjectWorkload.step"})

#: Per-epoch counts reported as the median over timed epochs.
EPOCH_COUNTS: Tuple[str, ...] = (
    "coordinator.states",
    "single_path.inserted",
    "single_path.reused",
    "hotness.expired",
    "overlaps.regions",
    "overlaps.pools_reused",
    "overlaps.pools_prefix_reused",
    "overlaps.pools_rebuilt",
    "sharding.pools",
    "sharding.renumbered",
    "execution.conflict_groups",
    "stitching.corridors",
)

#: Ratio metric -> (numerator counts, denominator counts), summed over the run.
RATIOS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "single_path.reuse_ratio": (
        ("single_path.reused",), ("single_path.reused", "single_path.inserted")),
    "overlaps.pool_hit_ratio": (("overlaps.pools_reused",), ("overlaps.pools_total",)),
    "sharding.halo_duplication": (("sharding.pool_members",), ("sharding.distinct_fsas",)),
}


def _epoch_finder(epochs: Sequence[Tuple[float, float, float]]) -> Callable[[float], int]:
    """``moment -> index of the epoch whose bounds contain it, or -1``."""
    starts = [start for start, _end, _wall in epochs]

    def epoch_of(moment: float) -> int:
        index = bisect_right(starts, moment) - 1
        return index if index >= 0 and moment < epochs[index][1] else -1

    return epoch_of


def layer_metrics(spans: Sequence[Span], epochs: Sequence[Tuple[float, float, float]]) -> Dict[str, float]:
    """Fold spans into the per-layer metrics of the timed epochs.

    ``epochs`` holds ``(start, end, timed wall seconds)`` per timed epoch, in
    order; a span belongs to the epoch whose bounds contain its start.
    ``trace.coverage_ratio`` is the share of the epochs' timed wall that the
    spans cover.
    """
    epoch_of = _epoch_finder(epochs)
    child_seconds = [0.0] * len(spans)
    for _name, start, end, parent, _counts in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    self_ms: Dict[str, List[float]] = {}
    counts: Dict[str, List[float]] = {}
    # Coverage is the union of span intervals (generation excluded), so spans
    # nested in a parent or running concurrently on the decision thread pool
    # are not counted twice.
    covered = [0.0] * len(epochs)
    covered_until = [0.0] * len(epochs)
    order = sorted(range(len(spans)), key=lambda index: spans[index][1])
    for index in order:
        name, start, end, _parent, span_counts = spans[index]
        epoch = epoch_of(start)
        if epoch < 0:
            continue
        own = end - start - child_seconds[index]
        self_ms.setdefault(name, [0.0] * len(epochs))[epoch] += own * 1000.0
        if name not in UNTIMED_SPANS and end > covered_until[epoch]:
            covered[epoch] += end - max(start, covered_until[epoch])
            covered_until[epoch] = end
        for key, value in (span_counts or {}).items():
            counts.setdefault(key, [0.0] * len(epochs))[epoch] += value

    zeros = [0.0] * len(epochs)
    metrics: Dict[str, float] = {}
    for metric, names in SELF_TIME_MS.items():
        per_epoch = [sum(values) for values in zip(*(self_ms.get(name, zeros) for name in names))]
        metrics[metric] = median(per_epoch) if per_epoch else 0.0
    for metric in EPOCH_COUNTS:
        metrics[metric] = median(counts[metric]) if metric in counts else 0.0
    for metric, (numerator, denominator) in RATIOS.items():
        below = sum(sum(counts.get(key, zeros)) for key in denominator)
        metrics[metric] = sum(sum(counts.get(key, zeros)) for key in numerator) / below if below else 0.0
    wall = sum(wall for _start, _end, wall in epochs)
    metrics["trace.coverage_ratio"] = sum(covered) / wall if wall else 0.0
    return metrics


def final_counts(coordinator: Coordinator) -> Dict[str, float]:
    """End-of-run state sizes and lifetime counters, from the existing surfaces."""
    statistics = coordinator.shard_statistics()
    welded = statistics["chains_reused"] + statistics["chains_rewelded"]
    epochs = max(1, coordinator.epochs_processed)
    counts = {
        "coordinator.index_records": coordinator.index_size(),
        "hotness.pending_events": coordinator.hotness.pending_events,
        "sharding.straddling_paths": statistics["straddling_paths"],
        "sharding.imbalance": statistics["imbalance"],
        "stitching.chains_reused": statistics["chains_reused"] / epochs,
        "stitching.chains_rewelded": statistics["chains_rewelded"] / epochs,
        "stitching.reuse_ratio": statistics["chains_reused"] / welded if welded else 0.0,
        "execution.shm_shipments": 0,
        "execution.shm_fallbacks": 0,
        "execution.workers_respawned": 0,
    }
    backend = coordinator.router.pipeline.backend if coordinator.router is not None else None
    if backend is not None and backend.name == "processes":
        counts["execution.shm_shipments"] = backend.shm_shipments
        counts["execution.shm_fallbacks"] = backend.shm_fallbacks
        counts["execution.workers_respawned"] = backend.workers_respawned + backend.worker_restarts
    return counts


# -- span files --------------------------------------------------------------


def write_spans(
    path: Path,
    spans: Sequence[Span],
    epochs: Sequence[Tuple[float, float, float]] = (),
    trailer: Optional[Dict[str, Any]] = None,
) -> None:
    """One JSON object per span (with its epoch id when bounds are given)."""
    epoch_of = _epoch_finder(epochs)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as sink:
        for name, start, end, parent, counts in spans:
            record = {"name": name, "start": start, "end": end, "parent": parent, "epoch": epoch_of(start)}
            if counts:
                record["counts"] = counts
            sink.write(json.dumps(record) + "\n")
        if trailer is not None:
            sink.write(json.dumps({"trailer": trailer}) + "\n")


def read_spans(path: Path) -> Tuple[List[Span], Dict[str, Any]]:
    """Load a span file written by :func:`write_spans`; returns spans and the trailer."""
    spans: List[Span] = []
    trailer: Dict[str, Any] = {}
    with path.open() as source:
        for line in source:
            record = json.loads(line)
            if "trailer" in record:
                trailer = record["trailer"]
            else:
                spans.append(
                    (record["name"], record["start"], record["end"], record["parent"],
                     record.get("counts"))
                )
    return spans, trailer
