"""Tests for the exact quantile oracle."""

import numpy as np
import pytest

from repro.sketches import ExactQuantiles


class TestExactQuantiles:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ExactQuantiles().query_rank(1)

    def test_rank_counts_le(self):
        oracle = ExactQuantiles()
        oracle.update_many([1, 3, 3, 7])
        assert oracle.rank(0) == 0
        assert oracle.rank(3) == 3
        assert oracle.rank(7) == 4

    def test_rank_strict(self):
        oracle = ExactQuantiles()
        oracle.update_many([1, 3, 3, 7])
        assert oracle.rank_strict(3) == 1
        assert oracle.rank_strict(8) == 4

    def test_query_rank_selects(self):
        oracle = ExactQuantiles()
        oracle.update_many([10, 30, 20])
        assert oracle.query_rank(1) == 10
        assert oracle.query_rank(2) == 20
        assert oracle.query_rank(3) == 30

    def test_query_rank_clamps(self):
        oracle = ExactQuantiles()
        oracle.update_many([5, 6])
        assert oracle.query_rank(0) == 5
        assert oracle.query_rank(99) == 6

    def test_incremental_batches(self):
        oracle = ExactQuantiles()
        oracle.update_many(np.arange(50))
        oracle.update(100)
        oracle.update_many(np.arange(50, 100))
        assert oracle.n == 101
        assert oracle.query_rank(101) == 100

    def test_quantile_median(self):
        oracle = ExactQuantiles()
        oracle.update_many(np.arange(1, 102))  # 1..101
        assert oracle.quantile(0.5) == 51

    def test_quantile_definition_1(self):
        # phi-quantile: smallest element with rank >= ceil(phi * n)
        oracle = ExactQuantiles()
        oracle.update_many([1, 2, 2, 2, 10])
        assert oracle.quantile(0.5) == 2   # rank target 3
        assert oracle.quantile(1.0) == 10

    def test_empty_batch_noop(self):
        oracle = ExactQuantiles()
        oracle.update_many([])
        assert oracle.n == 0
