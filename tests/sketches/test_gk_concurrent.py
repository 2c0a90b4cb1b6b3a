"""GK sketch concurrency: copy-on-query snapshots under live updates."""

from __future__ import annotations

import threading

import numpy as np

from repro.sketches import GKSketch
from repro.sketches.base import rank_for_phi


def test_snapshot_is_frozen_against_further_updates():
    sketch = GKSketch(0.01)
    sketch.update_many(np.arange(1000, dtype=np.int64))
    frozen = sketch.snapshot()
    assert frozen.n == 1000
    sketch.update_many(np.arange(1000, 2000, dtype=np.int64))
    assert sketch.n == 2000
    assert frozen.n == 1000
    # The copy still answers, from the state at snapshot time.
    median = frozen.query_rank(rank_for_phi(0.5, frozen.n))
    assert abs(median - 500) <= 0.01 * 1000 + 1


def test_snapshot_races_concurrent_update_batches():
    sketch = GKSketch(0.02)
    stop = threading.Event()
    errors = []
    rng = np.random.default_rng(53)
    chunks = [
        rng.integers(0, 1_000_000, 500, dtype=np.int64)
        for _ in range(40)
    ]

    def writer() -> None:
        try:
            for chunk in chunks:
                if stop.is_set():
                    return
                sketch.update_many(chunk)
        except BaseException as exc:  # pragma: no cover - fail loud
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        seen = []
        while thread.is_alive():
            view = sketch.snapshot()
            # A snapshot is internally consistent: its count is frozen
            # and its rank queries are well-defined monotone values.
            n = view.n
            assert view.n == n
            if n:
                lo = view.query_rank(rank_for_phi(0.25, n))
                hi = view.query_rank(rank_for_phi(0.75, n))
                assert lo <= hi
            seen.append(n)
    finally:
        stop.set()
        thread.join()
    assert not errors
    # Counts never go backwards across snapshots.
    assert seen == sorted(seen)
    assert sketch.n == 40 * 500


def test_concurrent_point_updates_lose_nothing():
    sketch = GKSketch(0.05)

    def writer(base: int) -> None:
        for value in range(base, base + 2000):
            sketch.update(value)

    threads = [
        threading.Thread(target=writer, args=(i * 2000,))
        for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sketch.n == 8000
    median = sketch.snapshot().query_rank(rank_for_phi(0.5, 8000))
    assert abs(median - 4000) <= 0.05 * 8000 + 1
