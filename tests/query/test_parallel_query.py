"""End-to-end guarantees of the parallel accurate-query path.

The issue's contract, verbatim:

(a) serial and parallel answers are identical for the same seed;
(b) I/O counters under concurrency sum to the serial counts;
(c) ``query_workers=1`` exactly matches the pre-executor code path
    (inline execution, no thread pool ever started).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine

from ..conftest import fill_engine

PHIS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def build_engine(query_workers: int, **overrides) -> HybridQuantileEngine:
    config = EngineConfig(
        epsilon=0.05,
        kappa=3,
        block_elems=16,
        query_workers=query_workers,
        **overrides,
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(2026)
    fill_engine(engine, rng, steps=9, batch=900, live=700)
    return engine


def result_fingerprint(result):
    """Everything about a QueryResult except timing and worker count."""
    return (
        result.value,
        result.target_rank,
        result.total_size,
        result.estimated_rank,
        result.disk_accesses,
        result.iterations,
        result.truncated,
    )


class TestSerialParallelEquivalence:
    """(a): answers are bit-identical for any worker count."""

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_quantiles_identical(self, workers):
        with build_engine(1) as serial, build_engine(workers) as parallel:
            for phi in PHIS:
                lhs = serial.quantile(phi)
                rhs = parallel.quantile(phi)
                assert result_fingerprint(lhs) == result_fingerprint(rhs)
                assert rhs.query_workers == workers

    def test_windowed_and_batched_queries_identical(self):
        with build_engine(1) as serial, build_engine(4) as parallel:
            window = serial.available_window_sizes()[0]
            for engine_pair in ((serial, parallel),):
                lhs, rhs = engine_pair
                assert result_fingerprint(
                    lhs.quantile(0.5, window_steps=window)
                ) == result_fingerprint(
                    rhs.quantile(0.5, window_steps=window)
                )
            phis = [0.25, 0.5, 0.75]
            lhs_batch = serial.quantile_many(phis, mode="accurate")
            rhs_batch = parallel.quantile_many(phis, mode="accurate")
            assert [result_fingerprint(r) for r in lhs_batch] == [
                result_fingerprint(r) for r in rhs_batch
            ]

    def test_parallel_sim_never_exceeds_serial_sim(self):
        with build_engine(4) as engine:
            for phi in PHIS:
                result = engine.quantile(phi)
                assert result.parallel_sim_seconds <= (
                    result.sim_seconds + 1e-12
                )


class TestIoAccountingUnderConcurrency:
    """(b): concurrent probes charge exactly the serial I/O."""

    def test_counters_sum_to_serial_counts(self):
        with build_engine(1) as serial, build_engine(6) as parallel:
            for phi in PHIS:
                serial.quantile(phi)
                parallel.quantile(phi)
            lhs = serial.disk.stats.counters.snapshot()
            rhs = parallel.disk.stats.counters.snapshot()
            assert lhs.sequential_reads == rhs.sequential_reads
            assert lhs.sequential_writes == rhs.sequential_writes
            assert lhs.random_reads == rhs.random_reads
            assert (
                serial.disk.stats.query.random_reads
                == parallel.disk.stats.query.random_reads
            )

    def test_many_threads_driving_one_engine(self):
        """Atomic counters survive user-level concurrency too."""
        with build_engine(1) as oracle:
            expected = {phi: oracle.quantile(phi).value for phi in PHIS}
            expected_io = oracle.disk.stats.query.random_reads

        with build_engine(3) as engine:
            errors = []

            def worker(phi):
                try:
                    for _ in range(3):
                        result = engine.quantile(phi)
                        assert result.value == expected[phi], phi
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(phi,)) for phi in PHIS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            # Each query charges the same blocks regardless of
            # interleaving, so the grand total is exactly 3x the
            # one-pass-per-phi serial total.
            assert engine.disk.stats.query.random_reads == 3 * expected_io


class TestSerialPathUnchanged:
    """(c): the default configuration never touches a thread."""

    def test_default_config_is_serial(self):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        assert engine.config.query_workers == 1
        assert not engine.query_executor.parallel

    def test_serial_engine_never_starts_a_pool(self):
        with build_engine(1) as engine:
            for phi in PHIS:
                engine.quantile(phi)
            engine.quantile_many([0.25, 0.75], mode="accurate")
            assert not engine.query_executor.pool_started

    def test_explicit_workers_1_matches_default(self):
        explicit = build_engine(1)
        default_engine = HybridQuantileEngine(
            config=EngineConfig(epsilon=0.05, kappa=3, block_elems=16)
        )
        fill_engine(
            default_engine, np.random.default_rng(2026),
            steps=9, batch=900, live=700,
        )
        for phi in PHIS:
            assert result_fingerprint(explicit.quantile(phi)) == \
                result_fingerprint(default_engine.quantile(phi))


class TestRuntimeResizing:
    def test_set_query_workers_round_trip(self):
        with build_engine(1) as engine:
            baseline = [result_fingerprint(engine.quantile(p)) for p in PHIS]
            engine.set_query_workers(4)
            assert engine.config.query_workers == 4
            assert [
                result_fingerprint(engine.quantile(p)) for p in PHIS
            ] == baseline
            engine.set_query_workers(1)
            assert not engine.query_executor.parallel
            assert [
                result_fingerprint(engine.quantile(p)) for p in PHIS
            ] == baseline

    def test_set_query_workers_rejects_zero(self):
        with build_engine(1) as engine:
            with pytest.raises(ValueError):
                engine.set_query_workers(0)

    def test_config_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            EngineConfig(epsilon=0.05, query_workers=0)
