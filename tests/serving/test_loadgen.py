"""The closed/open-loop load harness: determinism and accounting."""

from __future__ import annotations

import threading
import time

from repro.core import ServingConfig
from repro.serving import QueryService
from .loadgen import LoadGenerator, LoadResult


class TestDeterminism:
    def test_phi_plans_reproduce_across_instances(self, filled_engine):
        with QueryService(filled_engine) as service:
            a = LoadGenerator(service, seed=42)
            b = LoadGenerator(service, seed=42)
            assert a._phi_plan(50, stream=3) == b._phi_plan(50, stream=3)

    def test_plans_differ_across_streams_and_seeds(self, filled_engine):
        with QueryService(filled_engine) as service:
            gen = LoadGenerator(service, seed=42)
            other = LoadGenerator(service, seed=43)
            assert gen._phi_plan(50, 0) != gen._phi_plan(50, 1)
            assert gen._phi_plan(50, 0) != other._phi_plan(50, 0)

    def test_plan_draws_only_configured_phis(self, filled_engine):
        with QueryService(filled_engine) as service:
            gen = LoadGenerator(service, phis=(0.5, 0.9), seed=1)
            assert set(gen._phi_plan(200, 0)) == {0.5, 0.9}


class TestClosedLoop:
    def test_serves_every_request_and_answers_match(self, filled_engine):
        with QueryService(filled_engine) as service:
            gen = LoadGenerator(service, seed=7)
            result = gen.closed_loop(clients=4, requests_per_client=5)
            assert result.requests == 20
            assert result.served == 20
            assert result.rejected == 0
            assert len(result.answers) == 20
            assert result.throughput_qps > 0
            # The engine is quiescent, so every answer must equal the
            # direct quick response for its phi.
            for phi, value, epoch in result.answers:
                assert value == filled_engine.quantile(
                    phi, mode="quick"
                ).value
                assert epoch == filled_engine.epoch_stats.current_epoch

    def test_warmup_guarantees_a_real_first_batch(self, filled_engine):
        with QueryService(filled_engine) as service:
            gen = LoadGenerator(service, seed=7)
            result = gen.closed_loop(
                clients=8, requests_per_client=5, pause_until_queued=2
            )
            assert result.served == 40
            snapshot = service.metrics_snapshot()
            assert snapshot.max_batch >= 2
            assert snapshot.ts_merges < snapshot.served["quick"]
            assert snapshot.coalescing_ratio < 1.0


class TestOpenLoop:
    def test_all_admitted_when_queue_is_large(self, filled_engine):
        with QueryService(filled_engine) as service:
            gen = LoadGenerator(service, seed=7)
            result = gen.open_loop(
                rate_qps=10_000, total_requests=30, mode="quick"
            )
            assert result.served == 30
            assert result.rejected == 0

    def test_overload_sheds_with_typed_rejections(self, filled_engine):
        config = ServingConfig(max_queue=2)
        with QueryService(filled_engine, config) as service:
            gen = LoadGenerator(service, seed=7)
            service.pause()
            outcome = {}

            def run():
                outcome["result"] = gen.open_loop(
                    rate_qps=100_000, total_requests=20, mode="quick"
                )

            thread = threading.Thread(target=run)
            thread.start()
            # Admissions stop at the bound while the service is paused;
            # resume to let the two admitted requests complete.
            deadline = time.perf_counter() + 5.0
            while (
                service.metrics_snapshot().rejections == 0
                and time.perf_counter() < deadline
            ):
                time.sleep(0.001)
            service.resume()
            thread.join(timeout=10.0)
            result = outcome["result"]
            assert result.served + result.rejected == 20
            assert result.rejected > 0
            snapshot = service.metrics_snapshot()
            assert snapshot.rejections == result.rejected


class TestLoadResult:
    def test_throughput_handles_zero_wall(self):
        result = LoadResult(
            requests=0, served=0, rejected=0, degraded=0, wall_seconds=0.0
        )
        assert result.throughput_qps == 0.0
