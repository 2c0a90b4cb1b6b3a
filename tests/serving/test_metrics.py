"""Service metrics: GK-backed latency histograms and counters."""

from __future__ import annotations

import threading

from repro.serving import ServiceMetrics
from repro.serving.metrics import LatencySummary, MetricsSnapshot


class TestLatencyHistograms:
    def test_percentiles_from_known_distribution(self):
        metrics = ServiceMetrics(epsilon=0.01)
        # 1ms..1000ms, uniformly; p50 should land near 500ms.
        for ms in range(1, 1001):
            metrics.record("quick", ms / 1e3)
        snapshot = metrics.snapshot()
        summary = snapshot.latency["quick"]
        assert summary.count == 1000
        assert 0.45 <= summary.p50 <= 0.55
        assert 0.90 <= summary.p95 <= 1.00
        assert summary.p99 >= summary.p95 >= summary.p50
        assert snapshot.p99("quick") == summary.p99

    def test_modes_are_independent(self):
        metrics = ServiceMetrics()
        metrics.record("quick", 0.001)
        metrics.record("accurate", 0.5)
        snapshot = metrics.snapshot()
        assert snapshot.served == {"quick": 1, "accurate": 1}
        assert snapshot.latency["quick"].p99 < 0.01
        assert snapshot.latency["accurate"].p99 >= 0.4

    def test_empty_summary_reads_zero(self):
        snapshot = ServiceMetrics().snapshot()
        assert snapshot.latency["quick"] == LatencySummary.empty()
        assert snapshot.p99("quick") == 0.0
        assert snapshot.p99("accurate") == 0.0

    def test_negative_latency_clamped(self):
        metrics = ServiceMetrics()
        metrics.record("quick", -0.5)
        assert metrics.snapshot().latency["quick"].count == 1

    def test_recording_races_snapshotting(self):
        metrics = ServiceMetrics()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                metrics.record("quick", 0.001)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                snapshot = metrics.snapshot()
                summary = snapshot.latency["quick"]
                assert summary.count >= 0
                assert summary.p50 <= summary.p95 <= summary.p99
        finally:
            stop.set()
            thread.join()


class TestCounters:
    def test_batch_accounting(self):
        metrics = ServiceMetrics()
        metrics.note_batch(requests=8, merges=1)
        metrics.note_batch(requests=3, merges=2)
        metrics.note_merges(4)
        metrics.note_dedup(2)
        metrics.note_degraded()
        metrics.observe_queue_depth(5)
        metrics.observe_queue_depth(2)
        snapshot = metrics.snapshot()
        assert snapshot.coalesced_batches == 2
        assert snapshot.coalesced_requests == 11
        assert snapshot.max_batch == 8
        assert snapshot.ts_merges == 7
        assert snapshot.deduped_probes == 2
        assert snapshot.degraded_to_quick == 1
        assert snapshot.peak_queue_depth == 5

    def test_coalescing_ratio_counts_quick_batch_merges_only(self):
        # One quick request in one batch, four accurate searches: the
        # accurate path's merges are not merges per *quick* request.
        metrics = ServiceMetrics()
        metrics.note_batch(requests=1, merges=1)
        metrics.record("quick", 0.001)
        for _ in range(4):
            metrics.note_merges(1)
            metrics.record("accurate", 0.01)
        snapshot = metrics.snapshot()
        assert snapshot.ts_merges == 5
        assert snapshot.coalescing_ratio == 1.0

    def test_snapshot_peak_includes_current_depth(self):
        metrics = ServiceMetrics()
        metrics.observe_queue_depth(3)
        snapshot = metrics.snapshot(queue_depth=9)
        assert snapshot.queue_depth == 9
        assert snapshot.peak_queue_depth == 9


class TestMetricsSnapshot:
    def make(self, served_quick, ts_merges):
        return MetricsSnapshot(
            served={"quick": served_quick, "accurate": 2},
            rejected={"quick": 1, "accurate": 3},
            degraded_to_quick=0,
            queue_depth=0,
            peak_queue_depth=0,
            coalesced_batches=0,
            coalesced_requests=0,
            max_batch=0,
            ts_merges=ts_merges,
            deduped_probes=0,
        )

    def test_totals(self):
        snapshot = self.make(served_quick=10, ts_merges=2)
        assert snapshot.requests_served == 12
        assert snapshot.rejections == 4

    def test_coalescing_ratio(self):
        assert self.make(10, 2).coalescing_ratio == 0.2
        # No quick requests served yet: the ratio defaults to 1.0
        # (no sharing demonstrated) rather than dividing by zero.
        assert self.make(0, 0).coalescing_ratio == 1.0
