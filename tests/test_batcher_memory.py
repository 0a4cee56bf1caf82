"""A long-lived server holds only live state.

The served coordinator runs for as long as objects keep reporting, so the
batcher must not keep anything per accepted update: dedupe is one seq run
per client that numbers its batches contiguously, ingest latency is a
fixed-size histogram, and no accepted log is kept unless a caller asks for
one.  The structural test pins that shape after a short run; the slow soak
(``pytest -m slow -k soak``) measures it with ``tracemalloc`` over 4 000
epochs.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.core.geometry import Point, Rectangle
from repro.coordinator.coordinator import Coordinator, CoordinatorConfig
from repro.serving.batcher import LatencyHistogram
from repro.serving.protocol import encode_message
from repro.serving.server import IngestionServer

CLIENTS = 3
UPDATES_PER_BATCH = 10


def make_server() -> IngestionServer:
    return IngestionServer(
        Coordinator(
            CoordinatorConfig(
                bounds=Rectangle(Point(0.0, 0.0), Point(1000.0, 1000.0)),
                window=60,
                cells_per_axis=32,
            )
        )
    )


def serve_epochs(server: IngestionServer, epochs, rng: random.Random, first_seq: int) -> None:
    """One batch per client per epoch, seqs contiguous from ``first_seq``."""
    for epoch in epochs:
        now = 10 * epoch
        for client in range(CLIENTS):
            rows = []
            for _ in range(UPDATES_PER_BATCH):
                half = rng.uniform(5.0, 25.0)
                sx, sy = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
                cx = min(max(sx + rng.uniform(-30.0, 30.0), half), 1000.0 - half)
                cy = min(max(sy + rng.uniform(-30.0, 30.0), half), 1000.0 - half)
                rows.append(
                    [rng.randrange(240), sx, sy, now - 5, cx - half, cy - half, cx + half, cy + half, now]
                )
            batch = {"op": "batch", "client": client, "seq": first_seq + epoch - 1, "updates": rows}
            assert server.handle_line(encode_message(batch))["accepted"] == UPDATES_PER_BATCH
        assert server.handle_line(encode_message({"op": "tick", "now": now}))["ok"]


class TestBoundedState:
    @pytest.mark.parametrize("first_seq", [0, 1])
    def test_after_many_epochs_the_batcher_holds_only_live_state(self, first_seq):
        server = make_server()
        try:
            serve_epochs(server, range(1, 41), random.Random(11), first_seq)
            batcher = server.batcher
            assert batcher.accepted_log is None
            assert len(batcher.ingest_histogram.counts) == len(LatencyHistogram().counts)
            assert batcher.ingest_histogram.total == 40 * CLIENTS * UPDATES_PER_BATCH
            assert sorted(batcher._seq_runs) == list(range(CLIENTS))
            for runs in batcher._seq_runs.values():
                assert (runs.lows, runs.highs) == ([first_seq], [first_seq + 39])
            # A permanent gap (a batch never delivered) costs exactly one run.
            assert server.dispatch({"op": "batch", "client": 0, "seq": first_seq + 41, "updates": []})["ok"]
            assert len(batcher._seq_runs[0].lows) == 2
        finally:
            server.coordinator.close()


@pytest.mark.slow
def test_handle_line_soak_is_flat():
    """4 000 epochs x 3 batches x 10 updates: traced memory grows at most
    1 MiB from epoch 1 000 to 4 000 (it grew ~33 MiB when the batcher kept
    every row, latency sample and seq)."""
    server = make_server()
    rng = random.Random(11)
    samples = []
    tracemalloc.start()
    try:
        for block in range(4):
            serve_epochs(server, range(1000 * block + 1, 1000 * block + 1001), rng, 1)
            gc.collect()
            samples.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        server.coordinator.close()
    mib = [round(sample / 2**20, 2) for sample in samples]
    assert samples[-1] - samples[0] <= 2**20, f"traced MiB at epochs 1000..4000: {mib}"
