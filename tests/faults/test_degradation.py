"""Graceful degradation of accurate queries under disk faults."""

import numpy as np
import pytest

from repro import (
    EngineConfig,
    FaultPlan,
    FaultyDisk,
    HybridQuantileEngine,
    QuantileWatcher,
    TransientReadError,
)

pytestmark = pytest.mark.usefixtures("no_backoff")

ALL_READS_FAIL = FaultPlan(seed=1, read_error_rate=1.0)


def build_engine(plan, steps=5, batch=500, live=100, **overrides):
    config = EngineConfig(
        epsilon=0.02,
        kappa=10,  # > steps: ingestion merges nothing, reads nothing
        block_elems=64,
        **overrides,
    )
    engine = HybridQuantileEngine(
        config=config, disk=FaultyDisk(plan, block_elems=64)
    )
    rng = np.random.default_rng(0)
    for _ in range(steps):
        engine.stream_update_many(rng.integers(0, 10**6, batch))
        engine.end_time_step()
    if live:
        engine.stream_update_many(rng.integers(0, 10**6, live))
    return engine


class TestDegradedQueries:
    def test_falls_back_to_quick_response(self):
        engine = build_engine(ALL_READS_FAIL)
        result = engine.quantile(0.5)
        assert result.degraded
        assert result.truncated
        assert result.mode == "accurate"
        # The degraded bound is the quick bound: eps1*n + eps2*m.
        config = engine.config
        expected = (
            config.epsilon1 * engine.n_historical
            + config.epsilon2 * engine.m_stream
        )
        assert result.rank_error_bound == pytest.approx(expected)
        quick = engine.quantile(0.5, mode="quick")
        assert result.value == quick.value
        engine.close()

    def test_counters_track_degradation(self):
        engine = build_engine(ALL_READS_FAIL)
        engine.quantile(0.5)
        engine.quantile(0.9)
        report = engine.reliability
        assert report.degraded_queries == 2
        assert report.probe_retries > 0
        assert report.disk_faults >= report.probe_retries
        assert not report.healthy
        engine.close()

    def test_degrade_disabled_raises_typed_fault(self):
        engine = build_engine(ALL_READS_FAIL, degrade_on_fault=False)
        with pytest.raises(TransientReadError):
            engine.quantile(0.5)
        engine.close()

    def test_quick_queries_unaffected(self):
        engine = build_engine(ALL_READS_FAIL)
        result = engine.quantile(0.5, mode="quick")
        assert not result.degraded
        assert engine.reliability.degraded_queries == 0
        engine.close()

    def test_accurate_succeeds_after_transient_burst(self):
        """A burst smaller than the retry budget heals invisibly."""
        plan = FaultPlan(seed=3, read_error_rate=1.0, max_faults=2)
        engine = build_engine(plan)
        result = engine.quantile(0.5)
        assert not result.degraded
        report = engine.reliability
        assert report.probe_retries == 2
        assert report.degraded_queries == 0
        engine.close()

    def test_quantiles_degrade_per_phi(self):
        engine = build_engine(ALL_READS_FAIL)
        results = engine.quantile_many([0.25, 0.5, 0.75], mode="accurate")
        assert all(r.degraded for r in results)
        assert engine.reliability.degraded_queries == 3
        engine.close()

    def test_snapshot_degrades_like_engine(self):
        engine = build_engine(ALL_READS_FAIL)
        view = engine.pin()
        result = view.quantile(0.5)
        assert result.degraded
        assert engine.reliability.degraded_queries == 1
        engine.close()


class TestWatcherIntegration:
    def test_quantile_alert_marks_degraded_observation(self):
        engine = build_engine(ALL_READS_FAIL)
        watcher = QuantileWatcher(engine)
        watcher.add("p50", 0.5, above=0, mode="accurate")
        alerts = watcher.evaluate()
        assert len(alerts) == 1
        assert alerts[0].degraded
        engine.close()


class TestContextManagerExit:
    def test_exit_clean_after_degraded_query(self):
        with build_engine(ALL_READS_FAIL) as engine:
            assert engine.quantile(0.5).degraded
        # reaching here without an exception is the assertion

    def test_exit_does_not_mask_original_exception(self):
        plan = FaultPlan(seed=2, write_error_rate=1.0)
        config = EngineConfig(
            epsilon=0.02,
            kappa=10,
            block_elems=64,
            ingest_mode="background",
        )
        rng = np.random.default_rng(0)
        with pytest.raises(KeyError):
            with HybridQuantileEngine(
                config=config, disk=FaultyDisk(plan, block_elems=64)
            ) as engine:
                engine.stream_update_many(rng.integers(0, 10**6, 500))
                engine.end_time_step()  # archiver will die on the write
                raise KeyError("original")  # must not be masked by close
