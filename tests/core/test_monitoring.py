"""Tests for quantile monitors and alerting."""

import numpy as np
import pytest

from repro import HybridQuantileEngine, QuantileWatcher
from repro.core.monitoring import MonitorRule


def build_engine(rng, low=0, high=1000):
    engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
    for _ in range(3):
        engine.stream_update_many(rng.integers(low, high, 1500))
        engine.end_time_step()
    engine.stream_update_many(rng.integers(low, high, 1500))
    return engine


class TestMonitorRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonitorRule("x", phi=0.0, threshold=1, direction="above")
        with pytest.raises(ValueError):
            MonitorRule("x", phi=0.5, threshold=1, direction="sideways")
        with pytest.raises(ValueError):
            MonitorRule("x", phi=0.5, threshold=1, direction="above",
                        mode="psychic")

    def test_direction_semantics(self):
        above = MonitorRule("a", 0.5, 100, "above")
        below = MonitorRule("b", 0.5, 100, "below")
        assert above.triggered_by(101)
        assert not above.triggered_by(100)
        assert below.triggered_by(99)
        assert not below.triggered_by(100)


class TestQuantileWatcher:
    def test_no_rules_no_alerts(self, rng):
        engine = build_engine(rng)
        assert QuantileWatcher(engine).evaluate() == []

    def test_add_validation(self, rng):
        watcher = QuantileWatcher(build_engine(rng))
        with pytest.raises(ValueError):
            watcher.add("x", 0.5)
        with pytest.raises(ValueError):
            watcher.add("x", 0.5, above=1, below=2)
        watcher.add("x", 0.5, above=1)
        with pytest.raises(ValueError):
            watcher.add("x", 0.5, above=2)  # duplicate name

    def test_remove(self, rng):
        watcher = QuantileWatcher(build_engine(rng))
        watcher.add("x", 0.5, above=1)
        watcher.remove("x")
        assert watcher.rules == []
        with pytest.raises(KeyError):
            watcher.remove("x")

    def test_triggering_above(self, rng):
        engine = build_engine(rng, low=0, high=1000)
        watcher = QuantileWatcher(engine)
        watcher.add("median-high", phi=0.5, above=100)  # median ~500
        watcher.add("median-low", phi=0.5, above=2000)  # never
        alerts = watcher.evaluate()
        assert [a.rule.name for a in alerts] == ["median-high"]
        assert alerts[0].observed > 100

    def test_triggering_below(self, rng):
        engine = build_engine(rng, low=0, high=1000)
        watcher = QuantileWatcher(engine)
        watcher.add("p95-dip", phi=0.95, below=2000)  # p95 ~950 < 2000
        assert len(watcher.evaluate()) == 1

    def test_alert_fires_after_distribution_shift(self, rng):
        engine = build_engine(rng, low=0, high=1000)
        watcher = QuantileWatcher(engine)
        watcher.add("p99-latency", phi=0.99, above=5000)
        assert watcher.evaluate() == []
        # tail blowup in the live stream
        engine.stream_update_many(np.full(2000, 50_000))
        alerts = watcher.evaluate()
        assert len(alerts) == 1
        assert alerts[0].observed >= 5000

    def test_accurate_mode_rules(self, rng):
        engine = build_engine(rng)
        watcher = QuantileWatcher(engine)
        watcher.add("exact-median", phi=0.5, above=100, mode="accurate")
        alerts = watcher.evaluate()
        assert len(alerts) == 1

    def test_alerts_share_one_snapshot(self, rng):
        """All rules in one evaluate() see identical N."""
        engine = build_engine(rng)
        watcher = QuantileWatcher(engine)
        for i, phi in enumerate((0.1, 0.5, 0.9)):
            watcher.add(f"rule{i}", phi=phi, above=0)  # always fires
        alerts = watcher.evaluate()
        assert len(alerts) == 3
        assert len({a.total_size for a in alerts}) == 1
        assert len({a.at_step for a in alerts}) == 1

    def test_empty_engine(self):
        engine = HybridQuantileEngine(epsilon=0.1)
        watcher = QuantileWatcher(engine)
        watcher.add("x", 0.5, above=1)
        assert watcher.evaluate() == []
