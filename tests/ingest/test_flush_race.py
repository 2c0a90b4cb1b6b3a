"""Regression: readers racing flush/adoption never see torn layouts.

Historically ``flush()`` could expose a window where a sealed batch was
in neither the stream summary nor the partition set (it had been taken
from the queue but not yet adopted).  The epoch layer closes it: a
pinned snapshot stages pending batches alongside adopted partitions
inside one critical section, so a reader always sees every sealed
element exactly once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import HybridQuantileEngine
from repro.core import EngineConfig

BATCH = 1000


def background_engine() -> HybridQuantileEngine:
    config = EngineConfig(
        epsilon=0.02,
        kappa=3,
        block_elems=64,
        ingest_mode="background",
    )
    return HybridQuantileEngine(config=config)


def seal_batches(engine: HybridQuantileEngine, rng, count: int) -> None:
    for _ in range(count):
        engine.stream_update_many(
            rng.integers(0, 1_000_000, BATCH, dtype=np.int64)
        )
        engine.end_time_step()


def test_pins_during_flush_always_see_every_sealed_element():
    engine = background_engine()
    rng = np.random.default_rng(41)
    seal_batches(engine, rng, 6)

    stop = threading.Event()
    observed = []
    errors = []

    def reader() -> None:
        try:
            while not stop.is_set():
                with engine.pin() as handle:
                    observed.append(
                        (handle.n_total, handle.m_stream)
                    )
                    handle.quantile(0.5, mode="quick")
        except BaseException as exc:  # pragma: no cover - fail loud
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        engine.flush()
    finally:
        stop.set()
        for thread in threads:
            thread.join()

    assert not errors
    assert observed
    # The stream is empty (everything sealed), so every pin — no matter
    # where adoption stood — must account for all six batches exactly:
    # never a half-adopted partition set, never a double-counted batch.
    for n_total, m_stream in observed:
        assert m_stream == 0
        assert n_total == 6 * BATCH
    engine.close()


def test_pins_during_sealing_see_whole_batches_only():
    engine = background_engine()
    rng = np.random.default_rng(43)

    stop = threading.Event()
    errors = []
    historical = []

    def reader() -> None:
        try:
            while not stop.is_set():
                with engine.pin() as handle:
                    historical.append(handle.n_historical)
        except BaseException as exc:  # pragma: no cover - fail loud
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        seal_batches(engine, rng, 8)
        engine.flush()
        with engine.pin() as handle:
            historical.append(handle.n_historical)
    finally:
        stop.set()
        for thread in threads:
            thread.join()

    assert not errors
    assert historical
    # Partitions hold whole sealed batches — staged or adopted — so a
    # reader's historical count is always a multiple of the batch size:
    # seal (stream -> pending) and adopt (pending -> layout) are atomic
    # from the pin's point of view.
    for count in historical:
        assert count % BATCH == 0
    assert max(historical) == 8 * BATCH
    engine.close()


def test_flush_returns_reports_while_pins_held():
    engine = background_engine()
    rng = np.random.default_rng(47)
    seal_batches(engine, rng, 4)
    # A long-lived pin must not deadlock or stall the drain.
    with engine.pin() as handle:
        reports = engine.flush()
        assert [r.step for r in reports] == [1, 2, 3, 4]
        assert handle.n_total == 4 * BATCH
    assert engine.epoch_stats.live_pins == 0
    with pytest.raises(ValueError):
        # still guarded after flush: bad modes rejected
        engine.quantile(0.5, mode="fast")
    engine.close()
