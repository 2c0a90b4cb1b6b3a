"""QueryService end-to-end: dispatch, overload, dedup, monitoring."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine
from repro.core import ServingConfig
from repro.faults import FaultPlan, FaultyDisk
from repro.serving import Overloaded, QueryService


def wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class SlowSearches:
    """Wraps ``engine.pin`` so every accurate search first sleeps.

    Records how many searches run at once (their peak) and when each
    one finished.
    """

    def __init__(self, engine, seconds):
        self.running = 0
        self.peak = 0
        self.finished_at = []
        lock = threading.Lock()
        pin = engine.pin

        def slow_pin():
            handle = pin()
            search = handle.quantile

            def slow_search(*args, **kwargs):
                with lock:
                    self.running += 1
                    self.peak = max(self.peak, self.running)
                try:
                    time.sleep(seconds)
                    return search(*args, **kwargs)
                finally:
                    with lock:
                        self.running -= 1
                        self.finished_at.append(time.perf_counter())

            handle.quantile = slow_search
            return handle

        engine.pin = slow_pin


class TestCallerServesItself:
    def test_quantile_pins_on_the_calling_thread(self, filled_engine):
        pinned_on = []
        pin = filled_engine.pin

        def recording_pin():
            pinned_on.append(threading.current_thread())
            return pin()

        filled_engine.pin = recording_pin
        with QueryService(filled_engine) as service:
            service.quantile(0.5, timeout=5.0)
            service.quantile(0.9, mode="accurate", timeout=10.0)
        assert pinned_on == [threading.current_thread()] * 2

    def test_a_quick_answer_does_not_wait_out_the_window(
        self, filled_engine
    ):
        config = ServingConfig(coalesce_window_ms=500)
        with QueryService(filled_engine, config) as service:
            started = time.perf_counter()
            for phi in np.linspace(0.05, 0.95, 10):
                service.quantile(float(phi), timeout=5.0)
            assert time.perf_counter() - started < 0.5

    def test_quick_waits_only_while_a_search_runs(self, filled_engine):
        slow = SlowSearches(filled_engine, 0.2)

        def quick_beside_a_search(window_ms):
            slow.finished_at.clear()
            config = ServingConfig(coalesce_window_ms=window_ms)
            with QueryService(filled_engine, config) as service:
                searcher = threading.Thread(
                    target=service.quantile,
                    args=(0.5, "accurate"),
                    kwargs={"timeout": 10.0},
                )
                searcher.start()
                assert wait_until(lambda: slow.running == 1)
                asked = time.perf_counter()
                service.quantile(0.9, timeout=5.0)
                answered = time.perf_counter()
                searcher.join(10.0)
                assert not searcher.is_alive()
            (search_done,) = slow.finished_at
            return asked, answered, search_done

        # Held behind the search and released when it ends, long
        # before the window would run out...
        asked, answered, search_done = quick_beside_a_search(1000)
        assert search_done <= answered < asked + 0.6
        # ...but never held longer than the window.
        asked, answered, search_done = quick_beside_a_search(20)
        assert answered < search_done

    def test_constructing_a_service_starts_no_thread(self, filled_engine):
        before = set(threading.enumerate())
        service = QueryService(filled_engine)
        try:
            assert set(threading.enumerate()) <= before
            assert not any(
                t.name.startswith("repro-serve")
                for t in threading.enumerate()
            )
        finally:
            service.close()

    def test_unawaited_submissions_are_served(self, filled_engine):
        with QueryService(filled_engine) as service:
            quick = [
                service.submit(phi) for phi in (0.1, 0.3, 0.5, 0.7, 0.9)
            ]
            accurate = [
                service.submit(phi, mode="accurate") for phi in (0.2, 0.8)
            ]
            # A later caller's quick batch takes every queued quick one.
            service.quantile(0.6, timeout=5.0)
            assert all(r.done for r in quick)
            assert not any(r.done for r in accurate)
            service.drain()
            assert all(r.done for r in accurate)

    def test_accurate_workers_bounds_searches_on_caller_threads(
        self, filled_engine
    ):
        slow = SlowSearches(filled_engine, 0.05)
        config = ServingConfig(accurate_workers=1)
        with QueryService(filled_engine, config) as service:
            clients = [
                threading.Thread(
                    target=service.quantile,
                    args=(phi, "accurate"),
                    kwargs={"timeout": 10.0},
                )
                for phi in (0.2, 0.4, 0.6, 0.8)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(10.0)
                assert not client.is_alive()
            snapshot = service.metrics_snapshot()
        assert snapshot.served["accurate"] == 4
        assert slow.peak == 1

    def test_a_caller_that_gives_up_leaves_its_request_served(
        self, filled_engine
    ):
        slow = SlowSearches(filled_engine, 0.3)
        config = ServingConfig(accurate_workers=1)
        with QueryService(filled_engine, config) as service:
            searcher = threading.Thread(
                target=service.quantile,
                args=(0.5, "accurate"),
                kwargs={"timeout": 10.0},
            )
            searcher.start()
            assert wait_until(lambda: slow.running == 1)
            request = service.submit(0.8, "accurate")
            with pytest.raises(TimeoutError):
                request.result(timeout=0.05)
            # Still queued, and answered by the next wait for it.
            assert service.queue_depth == 1
            assert not request.done
            assert request.result(timeout=10.0).mode == "accurate"
            assert service.metrics_snapshot().served["accurate"] == 2
            searcher.join(10.0)
            assert not searcher.is_alive()

    def test_a_quantile_that_times_out_frees_its_slot(self, filled_engine):
        slow = SlowSearches(filled_engine, 0.3)
        config = ServingConfig(accurate_workers=1, accurate_queue=1)
        with QueryService(filled_engine, config) as service:
            searcher = threading.Thread(
                target=service.quantile,
                args=(0.5, "accurate"),
                kwargs={"timeout": 10.0},
            )
            searcher.start()
            assert wait_until(lambda: slow.running == 1)
            with pytest.raises(TimeoutError):
                service.quantile(0.8, "accurate", timeout=0.05)
            # Nobody holds that future, so it left the queue.
            assert service.queue_depth == 0
            assert service.admission.waiting("accurate") == 0
            request = service.submit(0.8, "accurate")
            assert request.result(timeout=10.0).mode == "accurate"
            searcher.join(10.0)
            assert not searcher.is_alive()

    def test_callers_and_unawaited_submissions_race_cleanly(
        self, filled_engine
    ):
        slow = SlowSearches(filled_engine, 0.001)
        config = ServingConfig(accurate_workers=2)
        unawaited = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(filled_engine, config) as service:

                def client(index):
                    for turn in range(12):
                        phi = (index * 12 + turn + 1) / 100
                        if turn % 4 == 3:
                            unawaited.append(service.submit(phi, "accurate"))
                        mode = "accurate" if turn % 3 == 0 else "quick"
                        service.quantile(phi, mode, timeout=10.0)

                clients = [
                    threading.Thread(target=client, args=(index,))
                    for index in range(6)
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(30.0)
                    assert not thread.is_alive()
                service.drain()
                # Each answer is counted just after its future resolves.
                assert wait_until(
                    lambda: service.metrics_snapshot().requests_served
                    == 6 * 12 + len(unawaited)
                )
        finally:
            sys.setswitchinterval(interval)
        assert all(r.done for r in unawaited)
        assert service.admission.queue_depth == 0
        assert service.queue_depth == 0
        assert slow.peak <= 2


class TestDispatch:
    def test_quick_matches_direct_engine_answer(self, filled_engine):
        with QueryService(filled_engine) as service:
            for phi in (0.25, 0.5, 0.99):
                served = service.quantile(phi, timeout=5.0)
                direct = filled_engine.quantile(phi, mode="quick")
                assert served.value == direct.value
                assert served.mode == "quick"

    def test_accurate_matches_direct_engine_answer(self, filled_engine):
        with QueryService(filled_engine) as service:
            served = service.quantile(0.5, mode="accurate", timeout=10.0)
            direct = filled_engine.quantile(0.5, mode="accurate")
            assert served.value == direct.value
            assert served.mode == "accurate"

    def test_window_scope_routed_through(self, filled_engine):
        with QueryService(filled_engine) as service:
            served = service.quantile(0.5, window_steps=1, timeout=5.0)
            direct = filled_engine.quantile(
                0.5, mode="quick", window_steps=1
            )
            assert served.value == direct.value

    def test_paused_submissions_coalesce_into_one_batch(
        self, filled_engine
    ):
        with QueryService(filled_engine) as service:
            service.pause()
            requests = [
                service.submit(phi)
                for phi in (0.25, 0.5, 0.75, 0.95, 0.99)
            ]
            assert service.queue_depth == 5
            service.resume()
            for request in requests:
                request.result(timeout=5.0)
            snapshot = service.metrics_snapshot()
            assert snapshot.served["quick"] == 5
            assert snapshot.max_batch == 5
            assert snapshot.ts_merges == 1
            assert snapshot.coalescing_ratio < 1.0
            # One pinned epoch served the whole batch.
            assert len({r.epoch for r in requests}) == 1

    def test_coalescing_disabled_pays_per_request(self, filled_engine):
        config = ServingConfig(coalesce=False)
        with QueryService(filled_engine, config) as service:
            service.pause()
            requests = [service.submit(0.5) for _ in range(4)]
            service.resume()
            for request in requests:
                request.result(timeout=5.0)
            snapshot = service.metrics_snapshot()
            assert snapshot.served["quick"] == 4
            assert snapshot.ts_merges >= 4

    def test_duplicate_accurate_probes_share_one_search(
        self, filled_engine
    ):
        config = ServingConfig(accurate_workers=1)
        with QueryService(filled_engine, config) as service:
            service.pause()
            requests = [
                service.submit(0.95, mode="accurate") for _ in range(4)
            ]
            service.resume()
            values = {r.result(timeout=10.0).value for r in requests}
            assert len(values) == 1
            snapshot = service.metrics_snapshot()
            assert snapshot.served["accurate"] == 4
            assert snapshot.deduped_probes == 3

    def test_close_serves_the_backlog_first(self, filled_engine):
        service = QueryService(filled_engine)
        service.pause()
        requests = [service.submit(0.5) for _ in range(3)]
        service.close()
        for request in requests:
            assert request.result(timeout=5.0).value is not None
        assert service.queue_depth == 0

    def test_drain_blocks_until_empty(self, filled_engine):
        with QueryService(filled_engine) as service:
            requests = [service.submit(0.5) for _ in range(8)]
            service.drain()
            assert service.queue_depth == 0
            # Drain empties the queues; the in-flight batch resolves
            # promptly afterwards.
            for request in requests:
                request.result(timeout=5.0)

    def test_drain_refuses_while_paused(self, filled_engine):
        with QueryService(filled_engine) as service:
            service.pause()
            service.submit(0.5)
            with pytest.raises(RuntimeError):
                service.drain()
            service.resume()
            service.drain()


class TestWarmingIsBestEffort:
    def test_failed_warming_pass_fails_no_request(self, caplog):
        # Every read faults once history is sealed: the warming pass
        # cannot prefetch, but a quick request needs no disk and an
        # accurate one has its own degradation path.
        config = EngineConfig(
            epsilon=0.02, kappa=3, block_elems=64,
            shared_cache_blocks=64,
        )
        disk = FaultyDisk(FaultPlan(seed=1), block_elems=64)
        rng = np.random.default_rng(11)
        with HybridQuantileEngine(config=config, disk=disk) as engine:
            for _ in range(4):
                engine.stream_update_many(rng.integers(0, 1_000_000, 1200))
                engine.end_time_step()
            engine.stream_update_many(rng.integers(0, 1_000_000, 800))
            disk.plan = FaultPlan(seed=1, read_error_rate=1.0)
            direct = engine.quantile(0.5, mode="quick")
            with QueryService(engine) as service:
                with caplog.at_level("WARNING", logger="repro.serving.service"):
                    served = service.quantile(0.5, timeout=5.0)
                assert served.value == direct.value
                accurate = service.quantile(0.5, mode="accurate", timeout=5.0)
                assert accurate.degraded
                assert accurate.value == direct.value
                snapshot = service.metrics_snapshot()
            # The epoch stays marked: one failed pass, not one per request.
            assert snapshot.warm_failures == 1
            assert snapshot.warm_passes == 0
            assert "warming pass" in caplog.text

    def test_warm_pass_rewarms_evicted_blocks(self):
        # Each pass reads through a cache of its own, so blocks the
        # shared tier dropped since an earlier pass are read again.
        config = EngineConfig(
            epsilon=0.02, kappa=10, block_elems=64,
            shared_cache_blocks=4096,
        )
        rng = np.random.default_rng(11)
        with HybridQuantileEngine(config=config) as engine:
            for _ in range(4):
                engine.stream_update_many(rng.integers(0, 1_000_000, 1200))
                engine.end_time_step()
            engine.stream_update_many(rng.integers(0, 1_000_000, 800))
            with QueryService(engine) as service:
                service.quantile(0.5, timeout=5.0)
                assert service.metrics_snapshot().warm_blocks > 0
                engine.shared_cache.clear()
                engine.end_time_step()
                service.quantile(0.5, timeout=5.0)
                assert service.metrics_snapshot().warm_passes == 2
            assert engine.warm_shared_cache([0.5]) == 0


class TestValidationAndShutdown:
    def test_submit_after_close_raises(self, filled_engine):
        service = QueryService(filled_engine)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(0.5)

    def test_invalid_arguments(self, filled_engine):
        with QueryService(filled_engine) as service:
            with pytest.raises(ValueError):
                service.submit(0.5, mode="fast")
            with pytest.raises(ValueError):
                service.submit(0.0)
            with pytest.raises(ValueError):
                service.submit(1.5)

    def test_result_timeout(self, filled_engine):
        with QueryService(filled_engine) as service:
            service.pause()
            request = service.submit(0.5)
            with pytest.raises(TimeoutError):
                request.result(timeout=0.01)
            service.resume()
            request.result(timeout=5.0)


class TestOverload:
    def test_full_queue_rejects_with_typed_error(self, filled_engine):
        config = ServingConfig(
            max_queue=8, accurate_queue=1, accurate_workers=1
        )
        with QueryService(filled_engine, config) as service:
            service.pause()
            admitted = service.submit(0.5, mode="accurate")
            with pytest.raises(Overloaded) as info:
                service.submit(0.5, mode="accurate")
            assert info.value.mode == "accurate"
            assert info.value.bound == 1
            snapshot = service.metrics_snapshot()
            assert snapshot.rejections == 1
            assert snapshot.rejected["accurate"] == 1
            service.resume()
            admitted.result(timeout=10.0)

    def test_degrade_on_overload_serves_quick_instead(
        self, filled_engine
    ):
        config = ServingConfig(
            max_queue=8,
            accurate_queue=1,
            accurate_workers=1,
            degrade_on_overload=True,
        )
        with QueryService(filled_engine, config) as service:
            service.pause()
            first = service.submit(0.5, mode="accurate")
            second = service.submit(0.5, mode="accurate")
            assert not first.degraded_by_overload
            assert second.degraded_by_overload
            assert second.effective_mode == "quick"
            service.resume()
            assert first.result(timeout=10.0).mode == "accurate"
            assert second.result(timeout=10.0).mode == "quick"
            snapshot = service.metrics_snapshot()
            assert snapshot.degraded_to_quick == 1
            assert snapshot.rejections == 0


class TestMonitoringIntegration:
    """What an operator polls: ``metrics_snapshot()`` carries the queue
    depth and the rejection count directly."""

    def test_snapshot_reports_queue_depth(self, filled_engine):
        with QueryService(filled_engine) as service:
            assert service.metrics_snapshot().queue_depth == 0
            service.pause()
            service.submit(0.5)
            service.submit(0.75)
            assert service.metrics_snapshot().queue_depth == 2
            service.resume()
            service.drain()
            assert wait_until(
                lambda: service.metrics_snapshot().queue_depth == 0
            )

    def test_snapshot_reports_rejections(self, filled_engine):
        config = ServingConfig(max_queue=1)
        with QueryService(filled_engine, config) as service:
            service.pause()
            service.submit(0.5)
            assert service.metrics_snapshot().rejections == 0
            with pytest.raises(Overloaded):
                service.submit(0.5)
            assert service.metrics_snapshot().rejections == 1
            service.resume()
