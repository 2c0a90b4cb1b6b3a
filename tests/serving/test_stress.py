"""Concurrency stress: many clients querying during active ingest.

The serving layer's correctness claim is *snapshot consistency*: every
answer is produced against one pinned (HS, SS, partition-set) view, and
answering the same phi against the same pinned view is deterministic.
This test records every (epoch, TS) pair the service's quick batches
read while N client threads hammer it during live background ingest,
then replays each served ``(phi, value, epoch)`` against the recorded
reads — every answer must be bit-identical to a replay at its epoch.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import HybridQuantileEngine
from repro.core import EngineConfig, ServingConfig
from repro.serving import QueryService
from repro.sketches.base import rank_for_phi
from .loadgen import LoadGenerator

PHIS = (0.25, 0.5, 0.75, 0.95, 0.99)


@pytest.mark.slow
@pytest.mark.serving
def test_concurrent_queries_replay_bit_identical_per_epoch():
    config = EngineConfig(
        epsilon=0.02, kappa=3, block_elems=64, ingest_mode="background"
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(17)
    engine.stream_update_many(
        rng.integers(0, 1_000_000, 1500, dtype=np.int64)
    )
    engine.end_time_step()

    # Record every (epoch, TS) pair a quick batch reads; a TS never
    # changes once read, which is exactly what makes the replay possible.
    recorded = []
    current_ts = engine._current_ts

    def recording_read(*scope):
        read = current_ts(*scope)
        ts, _, _, epoch = read
        recorded.append((epoch, ts))
        return read

    engine._current_ts = recording_read

    ingest_error = []

    def ingest(steps: int) -> None:
        try:
            for _ in range(steps):
                engine.stream_update_many(
                    rng.integers(0, 1_000_000, 1500, dtype=np.int64)
                )
                engine.end_time_step()
        except BaseException as exc:  # pragma: no cover - fail loud
            ingest_error.append(exc)

    service = QueryService(
        engine, ServingConfig(accurate_workers=1)
    )
    generator = LoadGenerator(service, phis=PHIS, seed=23)
    ingester = threading.Thread(target=ingest, args=(5,))
    ingester.start()
    try:
        result = generator.closed_loop(clients=4, requests_per_client=15)
    finally:
        ingester.join()
        service.close()
        engine.flush()

    assert not ingest_error
    assert result.served == 4 * 15
    assert result.rejected == 0

    # Replay: collect, per (phi, epoch), the answers the recorded reads
    # give.  Every served answer must match one of the reads at its
    # epoch — no torn or mixed-state reads.
    allowed = {}
    for epoch, ts in recorded:
        for phi in PHIS:
            rank = rank_for_phi(phi, ts.total_size)
            allowed.setdefault((phi, epoch), set()).add(
                ts.quick_response(rank)
            )
    for phi, value, epoch in result.answers:
        assert value in allowed[(phi, epoch)], (
            f"answer {value} for phi={phi} at epoch {epoch} does not "
            f"match any read at it {allowed.get((phi, epoch))}"
        )

    # All six seals (one before, five during) bumped the epoch, and the
    # background archiver adopted every batch.
    stats = engine.epoch_stats
    assert stats.seal_bumps == 6
    assert stats.adopt_bumps == 6
    # Quick batches pin nothing.
    assert stats.peak_pins == 0
    engine.close()


@pytest.mark.slow
@pytest.mark.serving
def test_mixed_modes_under_ingest_serve_everything():
    config = EngineConfig(
        epsilon=0.02, kappa=3, block_elems=64, ingest_mode="background"
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(29)
    engine.stream_update_many(
        rng.integers(0, 1_000_000, 2000, dtype=np.int64)
    )
    engine.end_time_step()

    stop = threading.Event()

    def ingest() -> None:
        while not stop.is_set():
            engine.stream_update_many(
                rng.integers(0, 1_000_000, 500, dtype=np.int64)
            )
            engine.end_time_step()

    ingester = threading.Thread(target=ingest)
    ingester.start()
    try:
        with QueryService(engine) as service:
            quick = LoadGenerator(service, phis=PHIS, seed=31)
            accurate = LoadGenerator(service, phis=PHIS, seed=37)
            q = quick.closed_loop(clients=3, requests_per_client=10)
            a = accurate.closed_loop(
                clients=2, requests_per_client=3, mode="accurate"
            )
            snapshot = service.metrics_snapshot()
    finally:
        stop.set()
        ingester.join()
        engine.flush()
    assert q.served == 30
    assert a.served == 6
    assert snapshot.served == {"quick": 30, "accurate": 6}
    assert snapshot.requests_served == 36
    # Latency histograms saw every request.
    assert snapshot.latency["quick"].count == 30
    assert snapshot.latency["accurate"].count == 6
    engine.close()
