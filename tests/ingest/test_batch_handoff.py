"""Batched ingest must make O(batches) hand-offs, not O(elements).

The write path funnels every batch — array or list — through one
buffer extend per call and leaves the GK sketch untouched until a
reader needs it.  These regression tests count the actual hand-offs so
the O(batches) shape can't silently regress.
"""

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.ingest.buffer import AppendBuffer
from repro.sketches.gk import GKSketch


class Spy:
    """Counts calls to a bound method, monkeypatch-style."""

    def __init__(self, monkeypatch, cls, name):
        self.calls = 0
        original = getattr(cls, name)

        def counted(receiver, *args, **kwargs):
            self.calls += 1
            return original(receiver, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


class TestHandoffCounts:
    def test_iterable_batch_is_one_buffer_extend(self, monkeypatch):
        extends = Spy(monkeypatch, AppendBuffer, "extend")
        appends = Spy(monkeypatch, AppendBuffer, "append")
        engine = HybridQuantileEngine(epsilon=0.01, kappa=3, block_elems=64)
        engine.stream_update_many(list(range(10_000)))
        # One array hand-off for the whole list, zero per-element
        # appends.
        assert extends.calls == 1
        assert appends.calls == 0
        assert engine.m_stream == 10_000

    def test_ingest_never_touches_sketch_per_element(self, monkeypatch):
        scalar_updates = Spy(monkeypatch, GKSketch, "update")
        bulk_updates = Spy(monkeypatch, GKSketch, "update_many")
        engine = HybridQuantileEngine(epsilon=0.01, kappa=3, block_elems=64)
        for lo in range(0, 8_000, 2_000):
            engine.stream_update_many(np.arange(lo, lo + 2_000))
        engine.stream_update_many(list(range(8_000, 9_000)))
        # Pure ingestion: the sketch is never consulted.
        assert scalar_updates.calls == 0
        assert bulk_updates.calls == 0
        # The first read point absorbs the whole tail in one bulk pass.
        assert engine.stream_sketch().n == 9_000
        assert bulk_updates.calls == 1
        assert scalar_updates.calls == 0
        # The approximate median lands within the eps*N rank bound.
        answer = engine.quantile(0.5, mode="quick").value
        assert abs(answer - 4_500) <= 0.01 * 9_000 + 1

    def test_background_mode_one_enqueue_per_step(self, monkeypatch):
        from repro.ingest.archiver import BackgroundArchiver

        enqueues = Spy(monkeypatch, BackgroundArchiver, "enqueue_reserved")
        config = EngineConfig(
            epsilon=0.01, kappa=3, block_elems=64, ingest_mode="background"
        )
        engine = HybridQuantileEngine(config=config)
        try:
            rng = np.random.default_rng(3)
            for _ in range(5):
                # Many update calls within a step...
                for _ in range(10):
                    engine.stream_update_many(rng.integers(0, 1000, size=100))
                engine.end_time_step()
            # ...still exactly one archiver hand-off per sealed step.
            assert enqueues.calls == 5
            assert engine.flush()
        finally:
            engine.close()
