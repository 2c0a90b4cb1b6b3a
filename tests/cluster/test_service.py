"""QueryService over a ClusterEngine: the duck-typed serving contract.

The serving layer never special-cases clusters — it drives ``pin()``
and the snapshot protocol.  These tests hold that contract: coalesced
quick batches share one fused merge, accurate requests scatter/gather,
every answer matches a serial replay against the same pinned state,
and admission control behaves exactly as over a single engine.
"""

import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.core.config import EngineConfig, ServingConfig
from repro.serving import Overloaded, QueryService

PHIS = (0.1, 0.25, 0.5, 0.75, 0.9)


@pytest.fixture()
def cluster():
    config = EngineConfig(
        epsilon=0.02, block_elems=100, sketch_backend="kll"
    )
    engine = ClusterEngine(shards=4, config=config)
    rng = np.random.default_rng(77)
    for _ in range(3):
        engine.stream_update_many(
            rng.integers(0, 2**30, 5_000, dtype=np.int64)
        )
        engine.end_time_step()
    engine.flush()
    engine.stream_update_many(
        rng.integers(0, 2**30, 2_000, dtype=np.int64)
    )
    yield engine
    engine.close()


class TestServingOverCluster:
    def test_quick_and_accurate_serve(self, cluster):
        with QueryService(
            cluster, ServingConfig(accurate_workers=2)
        ) as service:
            quick = [service.submit(phi, mode="quick") for phi in PHIS]
            accurate = [
                service.submit(phi, mode="accurate") for phi in PHIS
            ]
            quick_results = [f.result(timeout=60) for f in quick]
            accurate_results = [f.result(timeout=60) for f in accurate]
            snapshot = service.metrics_snapshot()
        assert snapshot.served["quick"] == len(PHIS)
        assert snapshot.served["accurate"] == len(PHIS)
        # Serial replay against the quiescent cluster must agree.
        for phi, result in zip(PHIS, quick_results):
            assert (
                result.value == cluster.quantile(phi, mode="quick").value
            ), phi
        for phi, result in zip(PHIS, accurate_results):
            assert (
                result.value
                == cluster.quantile(phi, mode="accurate").value
            ), phi

    def test_coalescing_shares_fused_merges(self, cluster):
        with QueryService(
            cluster,
            ServingConfig(coalesce=True, coalesce_window_ms=20.0),
        ) as service:
            requests = [
                service.submit(phi, mode="quick")
                for phi in list(PHIS) * 8
            ]
            for request in requests:
                request.result(timeout=60)
            snapshot = service.metrics_snapshot()
        assert snapshot.served["quick"] == len(PHIS) * 8
        # Batches formed, and fused TS merges stayed below one per
        # request — the coalescer's contract, now across four shards.
        assert snapshot.coalesced_batches >= 1
        assert snapshot.ts_merges < snapshot.served["quick"]

    def test_epoch_tuple_tracks_seals(self, cluster):
        with cluster.pin() as before:
            epoch_before = before.epoch
        cluster.stream_update_many(
            np.random.default_rng(5).integers(
                0, 2**30, 1_000, dtype=np.int64
            )
        )
        cluster.end_time_step()
        cluster.flush()
        with cluster.pin() as after:
            epoch_after = after.epoch
        assert isinstance(epoch_before, tuple)
        assert len(epoch_before) == 4
        assert epoch_after != epoch_before

    def test_admission_control_still_bounds_queue(self, cluster):
        config = ServingConfig(
            max_queue=4, accurate_queue=2, accurate_workers=1,
        )
        with QueryService(cluster, config) as service:
            service.pause()
            accepted = []
            rejected = 0
            for phi in np.linspace(0.05, 0.95, 12):
                try:
                    accepted.append(
                        service.submit(float(phi), mode="accurate")
                    )
                except Overloaded:
                    rejected += 1
            assert rejected > 0
            assert len(accepted) <= config.accurate_queue_bound
            service.resume()
            for request in accepted:
                request.result(timeout=60)

    def test_windowed_requests_over_cluster(self, cluster):
        window = cluster.available_window_sizes()[0]
        with QueryService(cluster) as service:
            result = service.quantile(
                0.5, mode="accurate", window_steps=window, timeout=60
            )
        assert result.window_steps == window
        assert (
            result.value
            == cluster.quantile(
                0.5, mode="accurate", window_steps=window
            ).value
        )
