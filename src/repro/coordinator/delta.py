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
``full`` rebuild — enforced at every queried epoch by the exactness harness
(``tests/test_differential.py``) and property-tested against random event
sequences in ``tests/test_delta_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["EPOCH_MODES", "EpochDelta"]

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
