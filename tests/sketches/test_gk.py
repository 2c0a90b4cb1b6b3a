"""Unit and property tests for the Greenwald-Khanna sketch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import GKSketch


def true_rank(data, value):
    return int(np.searchsorted(np.sort(np.asarray(data)), value, side="right"))


def assert_gk_guarantee(sketch, data, ranks=None):
    """query_rank(r) must return a value with true rank within eps*n."""
    n = len(data)
    allowed = sketch.epsilon * n + 1e-9
    if ranks is None:
        ranks = [1, max(1, n // 4), max(1, n // 2), max(1, 3 * n // 4), n]
    for r in ranks:
        value = sketch.query_rank(r)
        actual = true_rank(data, value)
        low = int(np.searchsorted(np.sort(np.asarray(data)), value, side="left")) + 1
        # distance from r to the value's rank interval
        err = max(0, low - r, r - actual)
        assert err <= allowed, (
            f"rank {r}: value {value} has rank interval [{low},{actual}], "
            f"allowed {allowed}"
        )


class TestBasics:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            GKSketch(0.0)
        with pytest.raises(ValueError):
            GKSketch(1.0)

    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            GKSketch(0.1).query_rank(1)

    def test_single_element(self):
        sketch = GKSketch(0.1)
        sketch.update(42)
        assert sketch.query_rank(1) == 42
        assert sketch.min_value() == 42
        assert sketch.max_value() == 42

    def test_tracks_exact_min_max(self):
        sketch = GKSketch(0.05)
        data = np.random.default_rng(0).integers(0, 10_000, 5000)
        for v in data:
            sketch.update(int(v))
        assert sketch.min_value() == data.min()
        assert sketch.max_value() == data.max()

    def test_n_counts_updates(self):
        sketch = GKSketch(0.1)
        for i in range(57):
            sketch.update(i)
        assert sketch.n == 57

    def test_memory_words_tracks_tuples(self):
        sketch = GKSketch(0.1)
        for i in range(100):
            sketch.update(i)
        assert sketch.memory_words() == 3 * sketch.tuple_count() + 4

    def test_quantile_phi_validation(self):
        sketch = GKSketch(0.1)
        sketch.update(1)
        with pytest.raises(ValueError):
            sketch.quantile(0.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)


class TestAccuracy:
    def test_sorted_input(self):
        sketch = GKSketch(0.05)
        data = list(range(2000))
        for v in data:
            sketch.update(v)
        assert_gk_guarantee(sketch, data)

    def test_reverse_sorted_input(self):
        sketch = GKSketch(0.05)
        data = list(range(2000, 0, -1))
        for v in data:
            sketch.update(v)
        assert_gk_guarantee(sketch, data)

    def test_random_input(self):
        sketch = GKSketch(0.02)
        data = np.random.default_rng(7).integers(0, 10**9, 5000)
        for v in data:
            sketch.update(int(v))
        assert_gk_guarantee(sketch, data, ranks=range(1, 5001, 250))

    def test_heavy_duplicates(self):
        sketch = GKSketch(0.05)
        data = [5] * 1000 + [7] * 1000 + [9] * 500
        for v in data:
            sketch.update(v)
        assert_gk_guarantee(sketch, data)

    def test_all_equal(self):
        sketch = GKSketch(0.1)
        data = [3] * 500
        for v in data:
            sketch.update(v)
        assert sketch.query_rank(250) == 3

    def test_space_is_sublinear(self):
        sketch = GKSketch(0.01)
        rng = np.random.default_rng(3)
        for v in rng.integers(0, 10**9, 20_000):
            sketch.update(int(v))
        # worst case O((1/eps) log(eps n)); generous constant
        assert sketch.tuple_count() < 20_000 / 4
        assert sketch.tuple_count() < (11 / (2 * 0.01)) * np.log2(
            2 * 0.01 * 20_000
        )


class TestBatchUpdates:
    def test_batch_equals_loop_on_accuracy(self):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 10**6, 10_000)
        sketch = GKSketch(0.02)
        sketch.update_many(data)
        assert sketch.n == len(data)
        assert_gk_guarantee(sketch, data, ranks=range(1, 10_001, 500))

    def test_multiple_batches(self):
        rng = np.random.default_rng(13)
        sketch = GKSketch(0.02)
        chunks = [rng.integers(0, 10**6, 3000) for _ in range(5)]
        for chunk in chunks:
            sketch.update_many(chunk)
        data = np.concatenate(chunks)
        assert sketch.n == len(data)
        assert_gk_guarantee(sketch, data, ranks=range(1, len(data), 500))

    def test_batch_then_elementwise(self):
        rng = np.random.default_rng(17)
        sketch = GKSketch(0.05)
        chunk = rng.integers(0, 1000, 2000)
        sketch.update_many(chunk)
        extra = rng.integers(0, 1000, 300)
        for v in extra:
            sketch.update(int(v))
        data = np.concatenate([chunk, extra])
        assert_gk_guarantee(sketch, data)

    def test_batch_preserves_min_max(self):
        rng = np.random.default_rng(19)
        sketch = GKSketch(0.05)
        chunk = rng.integers(0, 10**9, 5000)
        sketch.update_many(chunk)
        assert sketch.min_value() == chunk.min()
        assert sketch.max_value() == chunk.max()

    def test_batch_space_stays_compressed(self):
        rng = np.random.default_rng(23)
        sketch = GKSketch(0.01)
        for _ in range(10):
            sketch.update_many(rng.integers(0, 10**9, 10_000))
        assert sketch.tuple_count() < 3000

    def test_empty_batch_noop(self):
        sketch = GKSketch(0.1)
        sketch.update_many(np.empty(0, dtype=np.int64))
        assert sketch.n == 0

    def test_small_batch_uses_elementwise_path(self):
        sketch = GKSketch(0.1)
        sketch.update_many([3, 1, 2])
        assert sketch.n == 3
        assert sketch.min_value() == 1


class TestRankBounds:
    def test_bounds_bracket_true_rank(self):
        rng = np.random.default_rng(29)
        data = rng.integers(0, 10**6, 5000)
        sketch = GKSketch(0.02)
        for v in data:
            sketch.update(int(v))
        for probe in rng.integers(0, 10**6, 50):
            lo, hi = sketch.rank_bounds(int(probe))
            actual = true_rank(data, int(probe))
            assert lo <= actual <= hi

    def test_bounds_empty(self):
        assert GKSketch(0.1).rank_bounds(5) == (0, 0)


class TestGKProperty:
    @given(
        data=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=600),
        eps=st.sampled_from([0.2, 0.1, 0.05]),
    )
    @settings(max_examples=60, deadline=None)
    def test_guarantee_holds_elementwise(self, data, eps):
        sketch = GKSketch(eps)
        for v in data:
            sketch.update(v)
        assert_gk_guarantee(sketch, data)

    @given(
        data=st.lists(st.integers(-(10**6), 10**6), min_size=300, max_size=900),
        eps=st.sampled_from([0.2, 0.1]),
    )
    @settings(max_examples=30, deadline=None)
    def test_guarantee_holds_batch(self, data, eps):
        sketch = GKSketch(eps)
        sketch.update_many(np.asarray(data, dtype=np.int64))
        assert_gk_guarantee(sketch, data)


def _loop_query_rank(sketch, rank):
    """The original O(s) loop implementation, kept as a reference."""
    from repro.sketches.base import clamp_rank

    rank = clamp_rank(rank, sketch.n)
    allowed = sketch.epsilon * sketch.n
    rmin = 0
    for i, g in enumerate(sketch._g):
        rmin += g
        if rmin + sketch._delta[i] > rank + allowed:
            return sketch._values[max(0, i - 1)]
    return sketch._values[-1]


def _loop_rank_bounds(sketch, value):
    """The original O(s) loop implementation, kept as a reference."""
    if sketch.n == 0:
        return (0, 0)
    rmin = 0
    last_rmin = 0
    for i, v in enumerate(sketch._values):
        rmin += sketch._g[i]
        if v > value:
            return (last_rmin, max(last_rmin, rmin + sketch._delta[i] - 1))
        last_rmin = rmin
    return (last_rmin, sketch.n)


class TestVectorizedQueriesMatchLoops:
    """The cached-array query paths must agree with the loop reference."""

    @given(
        values=st.lists(
            st.integers(-(2**40), 2**40), min_size=1, max_size=400
        ),
        epsilon=st.sampled_from([0.001, 0.01, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_query_rank_equivalence(self, values, epsilon):
        sketch = GKSketch(epsilon)
        for value in values:
            sketch.update(value)
        for rank in {1, len(values) // 3, len(values) // 2, len(values)}:
            assert sketch.query_rank(rank) == _loop_query_rank(sketch, rank)

    @given(
        values=st.lists(
            st.integers(-1000, 1000), min_size=1, max_size=300
        ),
        probes=st.lists(st.integers(-1100, 1100), min_size=1, max_size=20),
        epsilon=st.sampled_from([0.01, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_bounds_equivalence(self, values, probes, epsilon):
        sketch = GKSketch(epsilon)
        for value in values:
            sketch.update(value)
        for probe in probes:
            assert sketch.rank_bounds(probe) == _loop_rank_bounds(
                sketch, probe
            )

    def test_equivalence_after_batch_updates(self):
        rng = np.random.default_rng(5)
        sketch = GKSketch(0.01)
        for _ in range(5):
            sketch.update_many(rng.integers(0, 10**6, size=2000))
            # interleave scalar updates so both mutation paths invalidate
            for value in rng.integers(0, 10**6, size=10):
                sketch.update(int(value))
            for rank in (1, sketch.n // 2, sketch.n):
                assert sketch.query_rank(rank) == _loop_query_rank(
                    sketch, rank
                )
            for probe in rng.integers(0, 10**6, size=10):
                assert sketch.rank_bounds(int(probe)) == _loop_rank_bounds(
                    sketch, int(probe)
                )

    def test_cache_invalidated_by_update(self):
        sketch = GKSketch(0.1)
        sketch.update_many(np.arange(1000))
        first = sketch.query_rank(500)
        assert sketch._query_arrays is not None
        sketch.update(10**9)  # must invalidate the cached arrays
        assert sketch._query_arrays is None
        assert sketch.rank_bounds(10**9)[1] == sketch.n
        assert sketch.query_rank(500) == _loop_query_rank(sketch, 500)
        assert isinstance(first, int)
