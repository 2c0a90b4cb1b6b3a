"""Tests for the four evaluation workloads."""

import numpy as np
import pytest

from repro.baselines import PureStreamingEngine, StrawmanEngine
from repro.cluster import ClusterEngine
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.workloads import (
    ALL_WORKLOADS,
    NetworkTraceWorkload,
    NormalWorkload,
    UniformWorkload,
    WikipediaWorkload,
)


class TestCommonProperties:
    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_deterministic_with_seed(self, workload_cls):
        a = workload_cls(seed=42).generate(1000)
        b = workload_cls(seed=42).generate(1000)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_different_seeds_differ(self, workload_cls):
        a = workload_cls(seed=1).generate(1000)
        b = workload_cls(seed=2).generate(1000)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_values_fit_universe(self, workload_cls):
        w = workload_cls(seed=0)
        data = w.generate(5000)
        assert data.dtype == np.int64
        assert data.min() >= 0
        assert data.max() < 2**w.universe_log2

    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_batches_iterator(self, workload_cls):
        w = workload_cls(seed=0)
        batches = list(w.batches(3, 100))
        assert len(batches) == 3
        assert all(len(b) == 100 for b in batches)

    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_reset_rewinds(self, workload_cls):
        w = workload_cls(seed=9)
        first = w.generate(500)
        w.generate(500)
        w.reset()
        np.testing.assert_array_equal(w.generate(500), first)


class TestNormal:
    def test_moments(self):
        data = NormalWorkload(seed=0).generate(200_000)
        assert abs(data.mean() - 1e8) < 1e6
        assert abs(data.std() - 1e7) < 1e6


class TestUniform:
    def test_range_and_flatness(self):
        w = UniformWorkload(seed=0)
        data = w.generate(200_000)
        assert data.min() >= 10**8
        assert data.max() < 10**9
        # quartiles of a uniform distribution are evenly spaced
        q1, q2, q3 = np.percentile(data, [25, 50, 75])
        span = 9e8
        assert abs((q2 - q1) - span / 4) < span / 40
        assert abs((q3 - q2) - span / 4) < span / 40

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformWorkload(low=10, high=10)


class TestWikipedia:
    def test_heavy_tail_and_duplicates(self):
        data = WikipediaWorkload(seed=0).generate(100_000)
        # heavy duplication from popular pages
        unique_fraction = len(np.unique(data)) / len(data)
        assert unique_fraction < 0.5
        # right-skewed: mean well above median
        assert data.mean() > np.median(data)


class TestNetworkTrace:
    def test_pair_packing(self):
        w = NetworkTraceWorkload(seed=0, num_hosts=1000)
        data = w.generate(10_000)
        sources = data >> 20
        destinations = data & ((1 << 20) - 1)
        assert sources.max() < 1000
        assert destinations.max() < 1000

    def test_zipf_concentration(self):
        data = NetworkTraceWorkload(seed=0).generate(100_000)
        values, counts = np.unique(data, return_counts=True)
        counts.sort()
        # top 1% of pairs carry a disproportionate share of traffic
        top = counts[-max(1, len(counts) // 100):].sum()
        assert top / len(data) > 0.05

    def test_num_hosts_validation(self):
        with pytest.raises(ValueError):
            NetworkTraceWorkload(num_hosts=1 << 20)


def _cluster():
    return ClusterEngine(
        shards=2,
        config=EngineConfig(
            epsilon=0.05, block_elems=16, sketch_backend="kll"
        ),
    )


class TestFeed:
    """``Workload.feed`` drives every system through the same three
    calls: ``stream_update_many`` (returning the count),
    ``end_time_step``, and ``quantile``."""

    SYSTEMS = {
        "engine": lambda: HybridQuantileEngine(epsilon=0.05, block_elems=16),
        "cluster": _cluster,
        "strawman": lambda: StrawmanEngine(epsilon=0.05, block_elems=16),
        "pure-streaming": lambda: PureStreamingEngine(
            epsilon=0.05, block_elems=16
        ),
    }

    @pytest.mark.parametrize("update_batch", [None, 150])
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_feed_equals_feeding_by_hand(self, name, update_batch):
        fed, by_hand = self.SYSTEMS[name](), self.SYSTEMS[name]()
        total = UniformWorkload(seed=4).feed(
            fed, 3, 400, update_batch=update_batch
        )
        for batch in UniformWorkload(seed=4).batches(3, 400):
            assert by_hand.stream_update_many(batch) == 400
            by_hand.end_time_step()
        assert total == fed.n_total == by_hand.n_total == 1200
        assert fed.m_stream == 0
        if update_batch is None:  # a sketch fed directly sees the chunking
            assert fed.quantile(0.5).value == by_hand.quantile(0.5).value
        for system in (fed, by_hand):
            if hasattr(system, "close"):
                system.close()

    def test_unsealed_feed_stays_in_the_stream(self):
        engine = StrawmanEngine(epsilon=0.05, block_elems=16)
        assert NormalWorkload(seed=1).feed(
            engine, 2, 300, end_steps=False
        ) == 600
        assert (engine.m_stream, engine.n_historical) == (600, 0)
