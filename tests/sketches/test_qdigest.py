"""Unit and property tests for the Q-Digest sketch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import QDigestSketch


def assert_qdigest_guarantee(sketch, data, ranks=None):
    """query_rank(r) must return a value with rank error <= eps * n.

    Q-Digest returns node range maxima, so the returned value may not
    be a stream element; the guarantee is on the value's rank interval.
    """
    arr = np.sort(np.asarray(data))
    n = len(arr)
    allowed = sketch.epsilon * n + 1e-9
    if ranks is None:
        ranks = [1, max(1, n // 4), max(1, n // 2), max(1, 3 * n // 4), n]
    for r in ranks:
        value = sketch.query_rank(r)
        high = int(np.searchsorted(arr, value, side="right"))
        low = int(np.searchsorted(arr, value, side="left")) + 1
        err = max(0, low - r, r - high)
        assert err <= allowed, (
            f"rank {r}: value {value} rank interval [{low},{high}], "
            f"allowed {allowed}"
        )


class TestBasics:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            QDigestSketch(0.0)

    def test_rejects_bad_universe(self):
        with pytest.raises(ValueError):
            QDigestSketch(0.1, universe_log2=0)
        with pytest.raises(ValueError):
            QDigestSketch(0.1, universe_log2=63)

    def test_rejects_out_of_universe_value(self):
        sketch = QDigestSketch(0.1, universe_log2=4)
        with pytest.raises(ValueError):
            sketch.update(16)
        with pytest.raises(ValueError):
            sketch.update(-1)

    def test_rejects_out_of_universe_batch(self):
        sketch = QDigestSketch(0.1, universe_log2=4)
        with pytest.raises(ValueError):
            sketch.update_many(np.asarray([1, 2, 99]))

    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            QDigestSketch(0.1).query_rank(1)

    def test_single_element(self):
        sketch = QDigestSketch(0.1, universe_log2=8)
        sketch.update(42)
        assert sketch.query_rank(1) == 42

    def test_n_counts(self):
        sketch = QDigestSketch(0.1, universe_log2=8)
        sketch.update_many(np.arange(100))
        sketch.update(5)
        assert sketch.n == 101

    def test_memory_words(self):
        sketch = QDigestSketch(0.1, universe_log2=8)
        sketch.update_many(np.arange(200))
        assert sketch.memory_words() == 2 * len(sketch._counts) + 4


class TestCompression:
    def test_space_stays_bounded(self):
        sketch = QDigestSketch(0.05, universe_log2=16)
        rng = np.random.default_rng(0)
        for _ in range(20):
            sketch.update_many(rng.integers(0, 2**16, 5000))
        # compressed bound is O(log(U)/eps); allow the 2x lazy slack
        assert len(sketch._counts) <= sketch._max_nodes

    def test_compress_preserves_count(self):
        sketch = QDigestSketch(0.05, universe_log2=12)
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2**12, 50_000)
        sketch.update_many(data)
        assert sum(sketch._counts.values()) == len(data)


class TestAccuracy:
    def test_uniform(self):
        sketch = QDigestSketch(0.05, universe_log2=16)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2**16, 20_000)
        sketch.update_many(data)
        assert_qdigest_guarantee(sketch, data, ranks=range(1, 20_001, 997))

    def test_skewed(self):
        sketch = QDigestSketch(0.05, universe_log2=20)
        rng = np.random.default_rng(3)
        data = np.minimum(rng.zipf(1.3, 20_000), 2**20 - 1)
        sketch.update_many(data)
        assert_qdigest_guarantee(sketch, data)

    def test_elementwise_matches_guarantee(self):
        sketch = QDigestSketch(0.1, universe_log2=10)
        rng = np.random.default_rng(4)
        data = rng.integers(0, 1024, 3000)
        for v in data:
            sketch.update(int(v))
        assert_qdigest_guarantee(sketch, data)

    def test_all_equal(self):
        sketch = QDigestSketch(0.1, universe_log2=10)
        sketch.update_many(np.full(1000, 77))
        assert sketch.query_rank(500) == 77


class TestQDigestProperty:
    @given(
        data=st.lists(st.integers(0, 1023), min_size=1, max_size=800),
        eps=st.sampled_from([0.2, 0.1]),
    )
    @settings(max_examples=50, deadline=None)
    def test_guarantee_holds(self, data, eps):
        sketch = QDigestSketch(eps, universe_log2=10)
        sketch.update_many(np.asarray(data, dtype=np.int64))
        assert_qdigest_guarantee(sketch, data)
