"""First-class per-epoch deltas of the incremental epoch pipeline.

Most epochs of an online deployment change only a small fraction of the hot
set: a handful of crossings arrive, a handful of window events expire, and
everything else — the grid index, the hotness table, the overlap components,
the corridor chains — is byte-identical to the previous epoch.  The classic
pipeline nevertheless pays full-rebuild cost every tick, because each stage
re-derives its inputs from the full state.  In ``epoch_mode="delta"`` the
pipeline instead *emits* what changed — this module's :class:`EpochDelta` —
and every stage consumes the delta:

* overlap components that repeat verbatim are reused across epochs
  (:class:`~repro.coordinator.overlaps.OverlapPoolCache`; every other pool
  is rebuilt, and only those are shipped to process-backend workers);
* corridor chains are maintained incrementally under the epoch's
  insert/expire/weld events
  (:class:`~repro.coordinator.stitching.IncrementalStitcher`; only touched
  chains are re-welded and only their corridor objects rebuilt);
* the delta itself is surfaced on
  :attr:`~repro.coordinator.coordinator.EpochOutcome.delta` so operators,
  benchmarks and the property suite can see incrementality instead of
  inferring it.

**The equality contract.**  The delta mode is an *optimisation*, never an
approximation: every epoch's responses, index contents, hotness values,
overlap answers and corridor report must be bit-for-bit equal to the
``full`` rebuild — enforced per-epoch by the extended differential harnesses
(``tests/test_sharding_equivalence.py``,
``tests/test_stitching_equivalence.py``, ``tests/test_serving_equivalence.py``)
and property-tested against random event sequences in
``tests/test_delta_properties.py``.

**Delta algebra.**  The hot-set membership part of an epoch delta is a pair
``(newly_hot, vanished)`` with disjoint id sets; :func:`apply_membership`
applies it to a membership set and :func:`compose_membership` composes two
consecutive deltas into one.  Composition is associative, and application
distributes over composition (``apply(m, compose(a, b)) == apply(apply(m, a),
b)``) — the claim the property suite checks.  Deltas touching disjoint id
sets commute; deltas in general do not (an id may vanish in one epoch and
return in the next), which is why the pipeline applies them strictly in epoch
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

__all__ = [
    "EPOCH_MODES",
    "EpochDelta",
    "apply_membership",
    "compose_membership",
]

#: Values accepted by the ``epoch_mode`` knob (config layers and
#: ``--epoch-mode``): ``full`` rebuilds every per-epoch structure from the
#: full state (the pre-incremental pipeline, kept as the differential
#: reference); ``delta`` (the default) reuses repeated overlap pools, maintains
#: corridor chains incrementally and ships only deltas to workers — required
#: to stay bit-for-bit equal to ``full``.
EPOCH_MODES: Tuple[str, ...] = ("full", "delta")


@dataclass(frozen=True)
class EpochDelta:
    """Everything one ``run_epoch`` changed, as compact id tuples and counters.

    The id tuples are sorted ascending (a deterministic encoding of the
    underlying event *sets*).  An id appears once per event, so a path
    crossed twice in one epoch contributes one ``newly_hot`` entry and one
    ``touched`` entry.

    * ``inserted`` — ids of the motion paths the epoch's decisions inserted,
      in submission order (every backend allocates them in that order, so
      the tuple is backend-independent).
    * ``deleted`` — ids whose records were evicted from the grid index at the
      epoch boundary (always a subset of ``vanished``: eviction is driven by
      hotness reaching zero).
    * ``newly_hot`` / ``touched`` — crossings recorded this epoch that took a
      path's hotness ``0 -> 1`` respectively ``n -> n+1`` (``n >= 1``).
    * ``decayed`` / ``vanished`` — window expiries that left the path hot
      respectively dropped it to hotness zero.
    * ``renumbered`` — always 0: no id is ever renumbered.  Kept only because
      ``bench/trace.py`` reads it (``bench/`` does not change with ``src/``);
      delete it with that read.
    * ``pools_total`` / ``pools_reused`` / ``pools_rebuilt`` — the epoch's
      overlap pools, the components of two or more mutually overlapping FSAs
      (an FSA that overlaps no other one is its own singleton region and
      never a pool): how many were reused verbatim from the cross-epoch pool
      cache or rebuilt from scratch (the only ones shipped to workers).
      ``pools_total = pools_reused + pools_rebuilt``.
    * ``pools_prefix_reused`` — always 0: the cache has no prefix outcome.
      Kept only because ``bench/trace.py`` reads it (``bench/`` does not
      change with ``src/``); delete it with that read.
    """

    timestamp: int
    inserted: Tuple[int, ...] = ()
    deleted: Tuple[int, ...] = ()
    newly_hot: Tuple[int, ...] = ()
    touched: Tuple[int, ...] = ()
    decayed: Tuple[int, ...] = ()
    vanished: Tuple[int, ...] = ()
    renumbered: int = 0
    pools_total: int = 0
    pools_reused: int = 0
    pools_prefix_reused: int = 0
    pools_rebuilt: int = 0

    @property
    def membership(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """The hot-set membership delta: ``(added, removed)`` id sets.

        ``added`` are the ids that became hot this epoch, ``removed`` the ids
        that stopped being hot.  Expiry runs before the decision stage inside
        ``run_epoch``, and a vanished path's record is evicted before any new
        crossing could revive its id, so the two sets are disjoint.
        """
        return frozenset(self.newly_hot), frozenset(self.vanished)

    def is_noop(self) -> bool:
        """Whether the epoch changed nothing observable (idle tick)."""
        return not (
            self.inserted
            or self.deleted
            or self.newly_hot
            or self.touched
            or self.decayed
            or self.vanished
        )


def apply_membership(
    members: FrozenSet[int], delta: Tuple[FrozenSet[int], FrozenSet[int]]
) -> FrozenSet[int]:
    """Apply a membership delta ``(added, removed)`` to a membership set.

    The contract the property suite pins: applying an epoch's
    :attr:`EpochDelta.membership` to the previous epoch's hot set yields
    exactly the hot set a full rebuild reports.
    """
    added, removed = delta
    return (members - removed) | added


def compose_membership(
    first: Tuple[FrozenSet[int], FrozenSet[int]],
    second: Tuple[FrozenSet[int], FrozenSet[int]],
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Compose two consecutive membership deltas into one.

    ``apply(m, compose(a, b)) == apply(apply(m, a), b)`` for every membership
    set ``m`` — the later delta wins where the two disagree about an id (it
    observed the state the earlier delta produced).
    """
    first_added, first_removed = first
    second_added, second_removed = second
    return (
        (first_added - second_removed) | second_added,
        (first_removed - second_added) | second_removed,
    )
