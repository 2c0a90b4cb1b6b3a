"""The vectorized write path must be bit-identical to scalar replay.

The tentpole contract of the batched ingest path: feeding the same
elements through ``stream_update`` one at a time or through
``stream_update_many`` in arrays of any size or as a list of Python
ints must produce an engine that answers *everything* identically — mid-stream quick and
accurate queries, post-seal queries, window queries, aggregates, disk
counters, the leveled layout — in both sync and background ingest
modes.  Lazy absorption makes this hold by construction (the sketch
swallows the same buffer tail at the same query points regardless of
how the buffer was filled); this harness pins the property.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine

PHIS = (0.05, 0.25, 0.5, 0.75, 0.95)

FEED_STYLES = ("scalar", "many", "chunks", "list")


def feed(engine, batch, style):
    """Ingest ``batch`` through one of the equivalent write paths."""
    if style == "scalar":
        for value in batch:
            engine.stream_update(int(value))
    elif style == "many":
        engine.stream_update_many(batch)
    elif style == "chunks":
        for lo in range(0, batch.size, 64):
            engine.stream_update_many(batch[lo : lo + 64])
    elif style == "list":
        engine.stream_update_many([int(v) for v in batch])
    else:  # pragma: no cover - guard against typos in parametrization
        raise AssertionError(style)


def drive(style, ingest_mode, steps=6, batch=700, seed=11):
    """Run one scripted session; return (engine, observations)."""
    config = EngineConfig(
        epsilon=0.01,
        kappa=3,
        block_elems=64,
        ingest_mode=ingest_mode,
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(seed)
    observed = []
    for step in range(steps):
        feed(engine, rng.integers(0, 10**6, size=batch), style)
        # Mid-stream probes: these force (identical) absorptions of the
        # live tail before each seal.  The archiver queue is drained
        # first so background-mode probes see a deterministic layout
        # (who stages a pending batch is otherwise a thread race).
        if step % 2 == 0:
            engine.flush()
            observed.append(("quick", engine.quantile(0.5, mode="quick").value))
            observed.append(
                ("accurate", engine.quantile(0.75, mode="accurate").value)
            )
            observed.append(("m", engine.m_stream))
        engine.end_time_step()
    engine.flush()
    # Live tail left unsealed, then queried.
    feed(engine, rng.integers(0, 10**6, size=300), style)
    for phi in PHIS:
        for mode in ("quick", "accurate"):
            result = engine.quantile(phi, mode=mode)
            observed.append((phi, mode, result.value, result.disk_accesses))
    summary = engine.stream_summary()
    observed.append(("ss", summary.values.tolist(), summary.stream_size))
    observed.append(("agg", engine.aggregate()))
    observed.append(("n", engine.n_total, engine.n_historical))
    for window in engine.available_window_sizes():
        observed.append(
            ("window", window, engine.quantile(0.5, window_steps=window).value)
        )
    return engine, observed


def layout(engine):
    return [
        (p.level, p.start_step, p.end_step, len(p))
        for p in engine.store.partitions()
    ]


@pytest.mark.parametrize("ingest_mode", ["sync", "background"])
class TestBatchEquivalence:
    def test_all_write_paths_bit_identical(self, ingest_mode):
        baseline_engine, baseline = drive("scalar", ingest_mode)
        try:
            for style in FEED_STYLES[1:]:
                engine, observed = drive(style, ingest_mode)
                try:
                    assert observed == baseline, style
                    assert layout(engine) == layout(baseline_engine), style
                    for bucket in ("counters", "load", "sort", "merge",
                                   "query"):
                        assert getattr(engine.disk.stats, bucket) == getattr(
                            baseline_engine.disk.stats, bucket
                        ), (style, bucket)
                    engine.check_invariants()
                finally:
                    engine.close()
        finally:
            baseline_engine.close()

    def test_memory_report_matches_scalar_replay(self, ingest_mode):
        a, _ = drive("scalar", ingest_mode)
        b, _ = drive("many", ingest_mode)
        try:
            assert a.memory_report() == b.memory_report()
            assert a.memory_report().stream_sketch_words > 0
        finally:
            a.close()
            b.close()


class TestStreamUpdateManyContract:
    def test_returns_count_and_flattens(self):
        engine = HybridQuantileEngine(epsilon=0.01, kappa=3, block_elems=64)
        assert engine.stream_update_many(np.arange(12).reshape(3, 4)) == 12
        assert engine.stream_update_many(np.empty(0, dtype=np.int64)) == 0
        assert engine.m_stream == 12
        # Quick responses carry the summary quantization; the median of
        # 0..11 must land next to rank 6 either way.
        assert engine.quantile(0.5, mode="quick").value in (5, 6)

    def test_sketch_absorbs_lazily(self):
        engine = HybridQuantileEngine(epsilon=0.01, kappa=3, block_elems=64)
        engine.stream_update_many(np.arange(1000))
        # No reader has needed the sketch yet.
        assert engine._gk.n == 0
        assert engine.m_stream == 1000
        # Any sketch read point absorbs the full tail.
        assert engine.stream_sketch().n == 1000
        engine.stream_update(1_000)
        assert engine._gk.n == 1000
        assert engine.stream_summary().stream_size == 1001
