"""The quick-path coalescer: one TS read answers a whole batch."""

from __future__ import annotations

import pytest

from repro.core.query_path import PinnedQueries
from repro.serving import ServiceMetrics
from repro.serving.coalescer import answer_quick_batch, dedupe_key
from repro.serving.service import PendingQuery, QueryService

#: The coalescer settles these requests itself, so their service is
#: never asked to answer one and needs no engine.
IDLE_SERVICE = QueryService(engine=None)


def make_request(phi, window_steps=None, mode="quick"):
    return PendingQuery(IDLE_SERVICE, phi, mode, mode, window_steps)


class TestAnswerQuickBatch:
    def test_whole_batch_rides_one_merge(self, filled_engine):
        metrics = ServiceMetrics()
        batch = [
            make_request(phi)
            for phi in (0.25, 0.5, 0.75, 0.5, 0.25, 0.99)
        ]
        answer_quick_batch(filled_engine, batch, metrics)
        snapshot = metrics.snapshot()
        assert snapshot.ts_merges == 1
        assert snapshot.coalesced_batches == 1
        assert snapshot.coalesced_requests == 6
        assert snapshot.max_batch == 6
        for request in batch:
            assert request.done
            result = request.result(timeout=1.0)
            want = filled_engine.quantile(request.phi, mode="quick")
            assert result.value == want.value
        # Every request of the batch was pinned at one epoch.
        assert len({r.epoch for r in batch}) == 1

    def test_duplicate_phis_share_one_answer(self, filled_engine):
        metrics = ServiceMetrics()
        batch = [make_request(0.5) for _ in range(8)]
        answer_quick_batch(filled_engine, batch, metrics)
        values = {r.result(timeout=1.0).value for r in batch}
        assert len(values) == 1

    def test_window_scopes_get_their_own_merge(self, filled_engine):
        metrics = ServiceMetrics()
        batch = [
            make_request(0.5),
            make_request(0.9),
            make_request(0.5, window_steps=1),
        ]
        answer_quick_batch(filled_engine, batch, metrics)
        snapshot = metrics.snapshot()
        assert snapshot.ts_merges == 2
        windowed = batch[2].result(timeout=1.0)
        want = filled_engine.quantile(0.5, mode="quick", window_steps=1)
        assert windowed.value == want.value

    def test_failure_fans_out_to_every_waiter(self):
        class BrokenEngine(PinnedQueries):
            def _current_ts(self, *scope):
                raise RuntimeError("read exploded")

        metrics = ServiceMetrics()
        batch = [make_request(0.5), make_request(0.9)]
        with pytest.raises(RuntimeError, match="read exploded"):
            answer_quick_batch(BrokenEngine(), batch, metrics)
        for request in batch:
            assert request.done
            with pytest.raises(RuntimeError, match="read exploded"):
                request.result(timeout=1.0)
        # A failed batch spends no merges.
        assert metrics.snapshot().ts_merges == 0


class TestDedupeKey:
    def test_equal_for_identical_probes(self):
        a = make_request(0.95, window_steps=4, mode="accurate")
        b = make_request(0.95, window_steps=4, mode="accurate")
        assert dedupe_key(a) == dedupe_key(b)

    def test_distinct_for_different_scope(self):
        a = make_request(0.95, mode="accurate")
        b = make_request(0.95, window_steps=4, mode="accurate")
        c = make_request(0.5, mode="accurate")
        assert dedupe_key(a) != dedupe_key(b)
        assert dedupe_key(a) != dedupe_key(c)
