"""Self-healing behaviour of the background archiver under faults."""

import time

import pytest

from repro.core.summaries import PartitionSummary
from repro.faults import FaultPlan, RetryPolicy
from repro.ingest import BackgroundArchiver
from repro.ingest.archiver import ArchiveFailedError
from repro.storage import SimulatedDisk
from repro.warehouse.leveled_store import LeveledStore

from ..ingest.archiver_helpers import enqueue, make_batch

FAST_RETRY = RetryPolicy(max_retries=64, backoff_seconds=0.0)


def make_store(plan=None, kappa=3, block_elems=64):
    return LeveledStore(
        SimulatedDisk(block_elems, plan=plan),
        kappa=kappa,
        summary_builder=lambda p: PartitionSummary.build(p, 0.01),
    )


class TestRetrySurvival:
    def test_completes_all_batches_under_transient_faults(self):
        store = make_store(FaultPlan(seed=4, write_error_rate=0.2,
                                     read_error_rate=0.2))
        archiver = BackgroundArchiver(store, max_pending=8, retry=FAST_RETRY)
        try:
            for step in range(1, 10):
                enqueue(archiver, make_batch(step))
            records = archiver.drain()
        finally:
            archiver.close()
        assert [r.step for r in records] == list(range(1, 10))
        assert store.steps_loaded == 9
        stats = archiver.stats()
        assert stats.batches_archived == 9
        assert stats.fault_retries > 0
        assert store.disk.faults_fired >= stats.fault_retries
        store.check_invariant()

    def test_batch_stays_queued_and_queryable_across_retries(self):
        """A faulted attempt must not drop the batch from the pending
        set — the union a concurrent query sees stays complete."""
        # The first two write operations are pinned to fault, so the
        # first two archive attempts fail deterministically.
        store = make_store(FaultPlan(fail_at={("write", 0), ("write", 1)}))
        archiver = BackgroundArchiver(store, max_pending=4, retry=FAST_RETRY)
        try:
            enqueue(archiver, make_batch(1))
            archiver.drain()
        finally:
            archiver.close()
        assert store.steps_loaded == 1
        stats = archiver.stats()
        assert stats.fault_retries == 2
        assert stats.batches_archived == 1


class TestFatalErrors:
    def test_exhausted_retries_poison_the_archiver(self):
        store = make_store(FaultPlan(seed=2, write_error_rate=1.0))
        archiver = BackgroundArchiver(
            store, retry=RetryPolicy(max_retries=2)
        )
        with pytest.raises(ArchiveFailedError, match="archiving failed"):
            enqueue(archiver, make_batch(1))
            archiver.drain()
        archiver.close()  # error already delivered: close is clean

    def test_close_raises_undelivered_error(self):
        store = make_store(FaultPlan(seed=2, write_error_rate=1.0))
        archiver = BackgroundArchiver(store)  # no retries: first fault fatal
        enqueue(archiver, make_batch(1))
        while not archiver.failed:
            time.sleep(0.001)
        with pytest.raises(ArchiveFailedError) as excinfo:
            archiver.close()
        assert excinfo.value.__cause__ is not None

    def test_failed_flag_reports_thread_state(self):
        store = make_store(FaultPlan(seed=2, write_error_rate=1.0))
        archiver = BackgroundArchiver(store)
        assert not archiver.failed
        enqueue(archiver, make_batch(1))
        with pytest.raises(ArchiveFailedError):
            archiver.drain()
        assert archiver.failed
        archiver.close()

    def test_submit_after_failure_raises_typed_error(self):
        store = make_store(FaultPlan(seed=2, write_error_rate=1.0))
        archiver = BackgroundArchiver(store)
        enqueue(archiver, make_batch(1))
        while not archiver.failed:
            time.sleep(0.001)
        with pytest.raises(ArchiveFailedError):
            enqueue(archiver, make_batch(2))
        archiver.close()
