"""Tests for arbitrary historical step-range queries."""

import numpy as np
import pytest

from repro import ExactQuantiles, HybridQuantileEngine
from repro.core.windows import RangeNotAlignedError


def build(rng, steps=7, batch=1000, kappa=2):
    engine = HybridQuantileEngine(epsilon=0.05, kappa=kappa, block_elems=16)
    step_data = []
    for _ in range(steps):
        data = rng.integers(0, 10**6, batch)
        step_data.append(data)
        engine.stream_update_many(data)
        engine.end_time_step()
    engine.stream_update_many(rng.integers(0, 10**6, batch))
    return engine, step_data


class TestRangeQueries:
    def test_aligned_range(self, rng):
        engine, step_data = build(rng)
        # kappa=2, 7 steps -> partitions (1-4), (5-6), (7)
        result = engine.quantile(0.5, step_range=(5, 6))
        oracle = ExactQuantiles()
        oracle.update_many(np.concatenate(step_data[4:6]))
        assert result.total_size == oracle.n
        high = oracle.rank(result.value)
        low = oracle.rank_strict(result.value) + 1
        err = max(0, low - result.target_rank, result.target_rank - high)
        assert err <= 2  # no stream: only search slack remains

    def test_range_excludes_stream(self, rng):
        engine, step_data = build(rng)
        result = engine.quantile(0.5, step_range=(1, 7))
        assert result.total_size == sum(len(d) for d in step_data)

    def test_unaligned_range_raises(self, rng):
        engine, _ = build(rng)
        with pytest.raises(RangeNotAlignedError):
            engine.quantile(0.5, step_range=(2, 6))
        # (5, 5) splits the merged partition (5-6)
        with pytest.raises(RangeNotAlignedError):
            engine.quantile(0.5, step_range=(5, 5))

    def test_invalid_range_raises(self, rng):
        engine, _ = build(rng)
        with pytest.raises(RangeNotAlignedError):
            engine.quantile(0.5, step_range=(6, 5))
        with pytest.raises(RangeNotAlignedError):
            engine.quantile(0.5, step_range=(0, 4))

    def test_range_and_window_mutually_exclusive(self, rng):
        engine, _ = build(rng)
        with pytest.raises(ValueError):
            engine.query_rank(1, window_steps=1, step_range=(5, 6))

    def test_range_matches_distinct_distribution(self, rng):
        """Query an old interval whose distribution differs."""
        engine = HybridQuantileEngine(epsilon=0.05, kappa=2, block_elems=16)
        for _ in range(4):  # steps 1-4: low values
            engine.stream_update_many(rng.integers(0, 100, 1000))
            engine.end_time_step()
        for _ in range(3):  # steps 5-7: high values
            engine.stream_update_many(rng.integers(10**6, 2 * 10**6, 1000))
            engine.end_time_step()
        old = engine.quantile(0.5, step_range=(1, 4))
        assert old.value < 100
        recent = engine.quantile(0.5, step_range=(5, 6))
        assert recent.value >= 10**6
