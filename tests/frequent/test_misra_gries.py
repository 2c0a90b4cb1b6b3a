"""Unit and property tests for the Misra-Gries sketch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frequent import MisraGriesSketch


def true_counts(data):
    values, counts = np.unique(np.asarray(data), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            MisraGriesSketch(0)
        with pytest.raises(ValueError):
            MisraGriesSketch.for_epsilon(0.0)

    def test_for_epsilon_sizing(self):
        assert MisraGriesSketch.for_epsilon(0.01).num_counters == 100

    def test_exact_when_few_distinct(self):
        sketch = MisraGriesSketch(10)
        for v in [1, 2, 1, 3, 1, 2]:
            sketch.update(v)
        assert sketch.estimate(1) == 3
        assert sketch.estimate(2) == 2
        assert sketch.estimate(3) == 1
        assert sketch.estimate(9) == 0

    def test_counter_cap_respected(self):
        sketch = MisraGriesSketch(5)
        sketch.update_many(np.arange(1000))
        assert len(sketch.candidates()) <= 5

    def test_heavy_hitters_threshold(self):
        sketch = MisraGriesSketch(10)
        data = [7] * 60 + list(range(100, 140))
        sketch.update_many(np.asarray(data))
        assert 7 in sketch.heavy_hitters(0.5)
        with pytest.raises(ValueError):
            sketch.heavy_hitters(0.0)

    def test_memory_words(self):
        sketch = MisraGriesSketch(10)
        sketch.update_many(np.asarray([1, 1, 2]))
        assert sketch.memory_words() == 2 * 2 + 3


class TestGuarantee:
    def _assert_guarantee(self, sketch, data):
        counts = true_counts(data)
        bound = sketch.error_bound + 1e-9
        for value, true in counts.items():
            est = sketch.estimate(value)
            assert est <= true
            assert est >= true - bound, (value, est, true, bound)

    def test_elementwise(self):
        sketch = MisraGriesSketch(20)
        data = np.random.default_rng(0).zipf(1.3, 5000) % 1000
        for v in data:
            sketch.update(int(v))
        self._assert_guarantee(sketch, data)

    def test_batched(self):
        sketch = MisraGriesSketch(20)
        rng = np.random.default_rng(1)
        chunks = [rng.zipf(1.3, 2000) % 1000 for _ in range(5)]
        for chunk in chunks:
            sketch.update_many(chunk)
        self._assert_guarantee(sketch, np.concatenate(chunks))

    def test_mixed_updates(self):
        sketch = MisraGriesSketch(15)
        rng = np.random.default_rng(2)
        chunk = rng.integers(0, 50, 3000)
        sketch.update_many(chunk)
        extra = rng.integers(0, 50, 200)
        for v in extra:
            sketch.update(int(v))
        self._assert_guarantee(sketch, np.concatenate([chunk, extra]))

    @given(
        data=st.lists(st.integers(0, 30), min_size=1, max_size=500),
        k=st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, data, k):
        sketch = MisraGriesSketch(k)
        sketch.update_many(np.asarray(data, dtype=np.int64))
        self._assert_guarantee(sketch, data)
