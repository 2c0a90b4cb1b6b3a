"""Tests for the accuracy metrics."""

from repro import ExactQuantiles
from repro.core.query_path import QueryResult
from repro.evaluation import measure, rank_error_is_inherent


def make_result(value, target_rank, total=100):
    return QueryResult(
        value=value,
        target_rank=target_rank,
        total_size=total,
        mode="accurate",
        estimated_rank=float(target_rank),
        disk_accesses=0,
        iterations=0,
        truncated=False,
        wall_seconds=0.0,
        sim_seconds=0.0,
    )


class TestMeasure:
    def test_exact_answer_has_zero_error(self):
        oracle = ExactQuantiles()
        oracle.update_many(range(1, 101))
        accuracy = measure(make_result(value=50, target_rank=50), oracle)
        assert accuracy.rank_error == 0
        assert accuracy.relative_error == 0.0

    def test_off_by_k(self):
        oracle = ExactQuantiles()
        oracle.update_many(range(1, 101))
        accuracy = measure(make_result(value=57, target_rank=50), oracle)
        assert accuracy.rank_error == 7
        assert accuracy.relative_error == 7 / 50

    def test_duplicates_span_is_error_free(self):
        """Any target rank inside a duplicate run counts as exact."""
        oracle = ExactQuantiles()
        oracle.update_many([1] * 10 + [2] * 80 + [3] * 10)
        for target in (11, 50, 90):
            accuracy = measure(make_result(value=2, target_rank=target), oracle)
            assert accuracy.rank_error == 0

    def test_duplicates_outside_span(self):
        oracle = ExactQuantiles()
        oracle.update_many([1] * 10 + [2] * 80 + [3] * 10)
        accuracy = measure(make_result(value=2, target_rank=95), oracle)
        assert accuracy.rank_error == 5

    def test_phi_property(self):
        result = make_result(value=1, target_rank=50, total=100)
        assert result.phi == 0.5


class TestRankErrorIsInherent:
    def test_exact_element_detected(self):
        oracle = ExactQuantiles()
        oracle.update_many([10, 20, 30])
        assert rank_error_is_inherent(make_result(20, 2), oracle)
        assert not rank_error_is_inherent(make_result(30, 2), oracle)
