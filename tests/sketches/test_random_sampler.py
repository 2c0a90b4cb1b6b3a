"""Tests for the RANDOM reservoir-sampling baseline."""

import numpy as np
import pytest

from repro.sketches import RandomSamplerSketch


class TestRandomSampler:
    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            RandomSamplerSketch(0)

    def test_for_epsilon_sizing(self):
        sketch = RandomSamplerSketch.for_epsilon(0.01, delta=0.01)
        # Hoeffding: s = ln(2/delta) / (2 eps^2) ~ 26 492
        assert 20_000 < sketch.sample_size < 40_000

    def test_for_epsilon_validation(self):
        with pytest.raises(ValueError):
            RandomSamplerSketch.for_epsilon(0.0)
        with pytest.raises(ValueError):
            RandomSamplerSketch.for_epsilon(0.1, delta=0.0)

    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            RandomSamplerSketch(10).query_rank(1)

    def test_small_stream_is_exact(self):
        sketch = RandomSamplerSketch(100, seed=0)
        for v in [5, 1, 9, 3]:
            sketch.update(v)
        assert sketch.query_rank(1) == 1
        assert sketch.query_rank(4) == 9

    def test_deterministic_with_seed(self):
        a = RandomSamplerSketch(50, seed=42)
        b = RandomSamplerSketch(50, seed=42)
        data = np.random.default_rng(0).integers(0, 1000, 2000)
        a.update_many(data)
        b.update_many(data)
        assert a.query_rank(1000) == b.query_rank(1000)

    def test_probabilistic_accuracy(self):
        sketch = RandomSamplerSketch.for_epsilon(0.05, delta=0.01, seed=7)
        rng = np.random.default_rng(8)
        data = rng.integers(0, 10**6, 50_000)
        sketch.update_many(data)
        arr = np.sort(data)
        n = len(arr)
        for r in (n // 4, n // 2, 3 * n // 4):
            value = sketch.query_rank(r)
            actual = int(np.searchsorted(arr, value, side="right"))
            # 3x slack over the w.h.p. bound keeps flake probability tiny
            assert abs(actual - r) <= 3 * 0.05 * n

    def test_memory_words_fixed(self):
        sketch = RandomSamplerSketch(100)
        assert sketch.memory_words() == 104
        sketch.update_many(np.arange(10_000))
        assert sketch.memory_words() == 104
