"""Unit tests for the background archiver thread."""

import threading

import numpy as np
import pytest

from repro.core.summaries import PartitionSummary
from repro.ingest import BackgroundArchiver, PendingBatch
from repro.storage.disk import SimulatedDisk
from repro.warehouse.leveled_store import LeveledStore


def make_store(kappa=3, block_elems=64):
    disk = SimulatedDisk(block_elems=block_elems)
    return LeveledStore(
        disk,
        kappa=kappa,
        summary_builder=lambda p: PartitionSummary.build(p, 0.01),
    )


def make_batch(step, size=100, seed=0):
    rng = np.random.default_rng(seed + step)
    return PendingBatch(
        step=step, values=rng.integers(0, 10**6, size=size).astype(np.int64)
    )


class TestBackgroundArchiver:
    def test_archives_in_step_order(self):
        store = make_store()
        archiver = BackgroundArchiver(store, max_pending=8)
        try:
            for step in range(1, 8):
                archiver.submit(make_batch(step))
            records = archiver.drain()
        finally:
            archiver.close()
        assert [r.step for r in records] == list(range(1, 8))
        assert store.steps_loaded == 7
        store.check_invariant()

    def test_drain_returns_each_record_once(self):
        store = make_store()
        archiver = BackgroundArchiver(store)
        try:
            archiver.submit(make_batch(1))
            first = archiver.drain()
            second = archiver.drain()
        finally:
            archiver.close()
        assert [r.step for r in first] == [1]
        assert second == []

    def test_queue_depth_high_water_mark(self):
        store = make_store()
        archiver = BackgroundArchiver(store, max_pending=8)
        try:
            archiver.pause()
            for step in range(1, 4):
                archiver.submit(make_batch(step))
            assert archiver.queue_depth == 3
            assert archiver.stats.max_queue_depth == 3
            archiver.resume()
            archiver.drain()
            assert archiver.queue_depth == 0
        finally:
            archiver.close()
        assert archiver.stats.batches_enqueued == 3
        assert archiver.stats.batches_archived == 3

    def test_backpressure_blocks_submit(self):
        store = make_store()
        archiver = BackgroundArchiver(store, max_pending=1)
        submitted = threading.Event()
        try:
            archiver.pause()
            archiver.submit(make_batch(1))

            def overflow():
                archiver.submit(make_batch(2))
                submitted.set()

            thread = threading.Thread(target=overflow)
            thread.start()
            assert not submitted.wait(timeout=0.1)
            archiver.resume()
            assert submitted.wait(timeout=5.0)
            thread.join()
            records = archiver.drain()
        finally:
            archiver.close()
        assert [r.step for r in records] == [1, 2]

    def test_pending_batches_snapshot_while_paused(self):
        store = make_store()
        archiver = BackgroundArchiver(store, max_pending=4)
        try:
            archiver.pause()
            archiver.submit(make_batch(1))
            archiver.submit(make_batch(2))
            pending = archiver.pending_batches()
            assert [b.step for b in pending] == [1, 2]
            archiver.resume()
            archiver.drain()
        finally:
            archiver.close()

    def test_drain_on_paused_archiver_raises(self):
        store = make_store()
        archiver = BackgroundArchiver(store, max_pending=4)
        try:
            archiver.pause()
            archiver.submit(make_batch(1))
            with pytest.raises(RuntimeError):
                archiver.drain()
            archiver.resume()
            archiver.drain()
        finally:
            archiver.close()

    def test_error_propagates_to_producer(self):
        store = make_store()
        archiver = BackgroundArchiver(store, max_pending=4)
        try:
            bad = make_batch(1)
            bad._values = None  # staging will blow up
            archiver.submit(bad)
            with pytest.raises(RuntimeError, match="archiving failed"):
                archiver.drain()
            with pytest.raises(RuntimeError, match="archiving failed"):
                archiver.submit(make_batch(2))
        finally:
            archiver.close()

    def test_close_is_idempotent_and_drains(self):
        store = make_store()
        archiver = BackgroundArchiver(store, max_pending=8)
        for step in range(1, 4):
            archiver.submit(make_batch(step))
        archiver.close()
        archiver.close()
        assert store.steps_loaded == 3

    def test_submit_after_close_raises(self):
        store = make_store()
        archiver = BackgroundArchiver(store)
        archiver.close()
        with pytest.raises(RuntimeError):
            archiver.submit(make_batch(1))

    def test_records_carry_io_and_wall_time(self):
        store = make_store()
        archiver = BackgroundArchiver(store)
        try:
            archiver.submit(make_batch(1, size=500))
            (record,) = archiver.drain()
        finally:
            archiver.close()
        assert record.batch_elems == 500
        assert record.io.total.total > 0
        assert record.io.phase("load").sequential_writes > 0
        assert record.archive_wall_seconds > 0.0

    def test_rejects_bad_max_pending(self):
        with pytest.raises(ValueError):
            BackgroundArchiver(make_store(), max_pending=0)


class TestWorkStealingStaging:
    def test_query_thread_can_stage_while_paused(self):
        store = make_store()
        archiver = BackgroundArchiver(store, max_pending=4)
        try:
            archiver.pause()
            batch = make_batch(1, size=300)
            archiver.submit(batch)
            # a query thread stages the pending batch itself
            partition = batch.ensure_staged(store)
            assert batch.staged
            assert len(partition) == 300
            # idempotent: the second call returns the same partition
            assert batch.ensure_staged(store) is partition
            before = store.disk.stats.counters.snapshot()
            batch.ensure_staged(store)
            assert store.disk.stats.counters.delta_since(before).total == 0
            archiver.resume()
            (record,) = archiver.drain()
        finally:
            archiver.close()
        # the staging charges still land in the step's record
        assert record.io.phase("load").sequential_writes > 0
        assert store.steps_loaded == 1

    def test_concurrent_staging_races_stage_once(self):
        store = make_store()
        batch = make_batch(1, size=2000)
        results = []

        def stage():
            results.append(batch.ensure_staged(store))

        threads = [threading.Thread(target=stage) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(p) for p in results}) == 1
        # exactly one set of staging charges
        blocks = store.disk.blocks_for(2000)
        assert store.disk.stats.counters.sequential_writes == blocks
