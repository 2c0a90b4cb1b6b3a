"""End-to-end tests for the hybrid quantile engine.

The headline guarantee (Theorem 2): a rank-r query returns an element
whose rank in T is within O(eps * m) of r, where m is the *stream*
size — independent of how much historical data has accumulated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, ExactQuantiles, HybridQuantileEngine

from ..conftest import fill_engine


def interval_error(oracle, value, target):
    high = oracle.rank(value)
    low = oracle.rank_strict(value) + 1
    return max(0, low - target, target - high)


def run_experiment(engine, rng, steps=5, batch=1500, live=1500, **kw):
    data = fill_engine(engine, rng, steps=steps, batch=batch, live=live, **kw)
    oracle = ExactQuantiles()
    oracle.update_many(data)
    return oracle


class TestAccurateGuarantee:
    def test_error_bounded_by_eps_m(self, rng):
        epsilon = 0.05
        engine = HybridQuantileEngine(epsilon=epsilon, kappa=3, block_elems=16)
        oracle = run_experiment(engine, rng)
        m = engine.m_stream
        for phi in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
            result = engine.quantile(phi)
            err = interval_error(oracle, result.value, result.target_rank)
            assert err <= 1.5 * epsilon * m + 2, (phi, err, epsilon * m)

    def test_error_independent_of_history_size(self, rng):
        """More history must not worsen absolute error (Lemma 5)."""
        epsilon = 0.05
        errors = {}
        for steps in (3, 12):
            engine = HybridQuantileEngine(
                epsilon=epsilon, kappa=3, block_elems=16
            )
            oracle = run_experiment(engine, rng, steps=steps)
            result = engine.quantile(0.5)
            errors[steps] = interval_error(
                oracle, result.value, result.target_rank
            )
            assert errors[steps] <= 1.5 * epsilon * engine.m_stream + 2

    def test_returns_actual_element(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        oracle = run_experiment(engine, rng)
        for phi in (0.1, 0.5, 0.9):
            result = engine.quantile(phi)
            assert oracle.rank(result.value) > oracle.rank_strict(result.value)

    def test_query_without_stream(self, rng):
        """Queries must work between end_time_step and new arrivals."""
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        chunks = []
        for _ in range(4):
            data = rng.integers(0, 10**6, 1000)
            chunks.append(data)
            engine.stream_update_many(data)
            engine.end_time_step()
        oracle = ExactQuantiles()
        oracle.update_many(np.concatenate(chunks))
        result = engine.quantile(0.5)
        # pure historical: only search slack remains
        err = interval_error(oracle, result.value, result.target_rank)
        assert err <= 2

    def test_query_stream_only(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        data = rng.integers(0, 10**6, 3000)
        engine.stream_update_many(data)
        oracle = ExactQuantiles()
        oracle.update_many(data)
        result = engine.quantile(0.5)
        err = interval_error(oracle, result.value, result.target_rank)
        assert err <= 1.5 * 0.05 * 3000 + 2

    def test_duplicate_heavy_data(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        oracle = run_experiment(engine, rng, low=0, high=50)
        result = engine.quantile(0.5)
        err = interval_error(oracle, result.value, result.target_rank)
        assert err <= 1.5 * 0.05 * engine.m_stream + 2

    def test_extreme_ranks(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        oracle = run_experiment(engine, rng)
        for rank in (1, engine.n_total):
            result = engine.query_rank(rank)
            err = interval_error(oracle, result.value, rank)
            assert err <= 1.5 * 0.05 * engine.m_stream + 2


class TestQuickResponse:
    def test_error_bounded_by_eps_n(self, rng):
        epsilon = 0.05
        engine = HybridQuantileEngine(epsilon=epsilon, kappa=3, block_elems=16)
        oracle = run_experiment(engine, rng)
        for phi in (0.1, 0.5, 0.9):
            result = engine.quantile(phi, mode="quick")
            err = interval_error(oracle, result.value, result.target_rank)
            assert err <= 2 * epsilon * engine.n_total + 2

    def test_partitions_shorter_than_one_over_eps1(self, rng):
        """1 500-element steps at eps1 = 5e-4: every summary stores its
        whole partition, and the quick answer must still be within the
        bound its own result reports."""
        engine = HybridQuantileEngine(config=EngineConfig(epsilon=1e-3))
        oracle = run_experiment(engine, rng, steps=3, batch=1500, live=6000)
        for phi in np.linspace(0.01, 0.99, 50):
            result = engine.quantile(float(phi), mode="quick")
            err = interval_error(oracle, result.value, result.target_rank)
            assert err <= result.rank_error_bound + 2, phi

    def test_quick_makes_no_disk_accesses(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        run_experiment(engine, rng)
        result = engine.quantile(0.5, mode="quick")
        assert result.disk_accesses == 0

    def test_accurate_beats_quick_on_average(self, rng):
        epsilon = 0.02
        engine = HybridQuantileEngine(epsilon=epsilon, kappa=3, block_elems=16)
        oracle = run_experiment(engine, rng, steps=8, batch=3000, live=3000)
        quick_err = 0
        accurate_err = 0
        for phi in (0.1, 0.25, 0.5, 0.75, 0.9):
            quick = engine.quantile(phi, mode="quick")
            accurate = engine.quantile(phi, mode="accurate")
            quick_err += interval_error(oracle, quick.value, quick.target_rank)
            accurate_err += interval_error(
                oracle, accurate.value, accurate.target_rank
            )
        assert accurate_err <= quick_err


class TestQueryMechanics:
    def test_invalid_mode_rejected(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05)
        engine.stream_update_many(rng.integers(0, 100, 100))
        with pytest.raises(ValueError):
            engine.query_rank(1, mode="warp")

    def test_needs_epsilon_or_config(self):
        with pytest.raises(ValueError):
            HybridQuantileEngine()

    def test_config_object_accepted(self):
        config = EngineConfig(epsilon=0.1, kappa=5, block_elems=8)
        engine = HybridQuantileEngine(config=config)
        assert engine.config.kappa == 5

    def test_disk_accesses_counted(self, rng):
        engine = HybridQuantileEngine(epsilon=0.02, kappa=3, block_elems=16)
        run_experiment(engine, rng, steps=8, batch=3000)
        result = engine.quantile(0.5)
        assert result.disk_accesses > 0
        assert result.sim_seconds > 0

    def test_probe_budget_truncates(self, rng):
        config = EngineConfig(
            epsilon=0.005, kappa=3, block_elems=4, probe_budget=3
        )
        engine = HybridQuantileEngine(config=config)
        run_experiment(engine, rng, steps=8, batch=3000)
        result = engine.quantile(0.5)
        assert result.disk_accesses <= 3 + 16  # final estimate may add blocks
        assert result.truncated or result.disk_accesses <= 3

    def test_block_cache_reduces_accesses(self, rng):
        results = {}
        for cached in (True, False):
            config = EngineConfig(
                epsilon=0.02, kappa=3, block_elems=16, block_cache=cached
            )
            engine = HybridQuantileEngine(config=config)
            inner_rng = np.random.default_rng(99)
            fill_engine(engine, inner_rng, steps=8, batch=3000, live=3000)
            results[cached] = engine.quantile(0.5).disk_accesses
        assert results[True] <= results[False]

    def test_stream_update_single_element(self):
        engine = HybridQuantileEngine(epsilon=0.1)
        for v in (5, 3, 8):
            engine.stream_update(v)
        assert engine.m_stream == 3
        # With eps*m < 1 the guarantee only pins the answer to within a
        # couple of ranks; any stream element qualifies here.
        assert engine.quantile(0.5).value in (3, 5, 8)


class TestStepReports:
    def test_plain_step_io_is_batch_blocks(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=10)
        engine.stream_update_many(rng.integers(0, 100, 1000))
        report = engine.end_time_step()
        assert report.io_total == 100  # 1000 elems / 10 per block
        assert report.io_merge == 0
        assert not report.merged_levels

    def test_merge_step_reports_merge_io(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=2, block_elems=10)
        reports = []
        for _ in range(3):
            engine.stream_update_many(rng.integers(0, 100, 1000))
            reports.append(engine.end_time_step())
        assert reports[2].merged_levels
        assert reports[2].io_merge == 400  # read 200 + write 200

    def test_stream_reset_after_step(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05)
        engine.stream_update_many(rng.integers(0, 100, 500))
        assert engine.m_stream == 500
        engine.end_time_step()
        assert engine.m_stream == 0
        assert engine.n_historical == 500

    def test_cpu_seconds_reported(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05)
        engine.stream_update_many(rng.integers(0, 100, 500))
        report = engine.end_time_step()
        assert set(report.cpu_seconds) == {"load", "sort", "merge", "summary"}
        assert all(v >= 0 for v in report.cpu_seconds.values())


class TestMemoryReport:
    def test_breakdown_positive(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        run_experiment(engine, rng)
        report = engine.memory_report()
        assert report.stream_sketch_words > 0
        assert report.historical_summary_words > 0
        assert report.total_words == (
            report.stream_words + report.historical_summary_words
        )
        assert report.total_megabytes > 0

    def test_memory_far_below_data_size(self, rng):
        engine = HybridQuantileEngine(epsilon=0.02, kappa=3, block_elems=16)
        run_experiment(engine, rng, steps=8, batch=5000, live=5000)
        report = engine.memory_report()
        assert report.total_words < engine.n_total / 4


class TestInvariants:
    def test_check_invariants_passes(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        run_experiment(engine, rng, steps=11)
        engine.check_invariants()


class TestEngineProperty:
    @given(
        seed=st.integers(0, 10**6),
        steps=st.integers(1, 6),
        kappa=st.sampled_from([2, 3, 4]),
        phi=st.floats(0.01, 1.0),
        spread=st.sampled_from([10, 10**4]),
    )
    @settings(max_examples=25, deadline=None)
    def test_guarantee_randomized(self, seed, steps, kappa, phi, spread):
        epsilon = 0.1
        engine = HybridQuantileEngine(
            epsilon=epsilon, kappa=kappa, block_elems=8
        )
        inner = np.random.default_rng(seed)
        chunks = []
        for _ in range(steps):
            data = inner.integers(0, spread, 400)
            chunks.append(data)
            engine.stream_update_many(data)
            engine.end_time_step()
        live = inner.integers(0, spread, 400)
        chunks.append(live)
        engine.stream_update_many(live)
        oracle = ExactQuantiles()
        oracle.update_many(np.concatenate(chunks))
        result = engine.quantile(phi)
        err = interval_error(oracle, result.value, result.target_rank)
        assert err <= 1.5 * epsilon * engine.m_stream + 2
        engine.check_invariants()
