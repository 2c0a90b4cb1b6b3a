"""Single-flight fetch coalescing stress tests.

The contract under test (ISSUE 10, cold-read fast path): N threads
racing cold probes on the same run observe exactly one backend fetch
per distinct block range — the first racer claims and charges it,
everyone else joins the in-flight fetch — and a fetch failure (an
injected :class:`~repro.faults.errors.DiskFault`) is delivered to
every waiter without poisoning the cache.  Each block is charged
exactly once however many threads race for it, so aggregate charge
totals are those of a serial run.
"""

import threading
import time

import numpy as np

from repro.faults.errors import DiskFault
from repro.storage import (
    BlockCache,
    ObjectStoreBackend,
    ObjectStoreLatency,
    SharedBlockCache,
    SimulatedDisk,
    SortedRun,
)

N_THREADS = 16


def _run_racers(n, target):
    """Start n threads on target(i), join them, return their errors."""
    errors = [None] * n
    barrier = threading.Barrier(n)

    def wrapped(i):
        barrier.wait()
        try:
            target(i)
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            errors[i] = exc

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestSingleFlightDedup:
    def test_racers_on_one_range_charge_once(self):
        cache = SharedBlockCache(64)
        lock = threading.Lock()
        calls = {"ops": 0, "blocks": 0}

        def slow_charge(blocks):
            with lock:
                calls["ops"] += 1
                calls["blocks"] += blocks
            time.sleep(0.01)  # hold the flight open so racers pile up

        errors = _run_racers(
            N_THREADS,
            lambda i: cache.fetch_range(1, 0, 3, slow_charge),
        )
        assert errors == [None] * N_THREADS
        # Exactly one fetch for the distinct range, no matter how many
        # threads raced on it.
        assert calls == {"ops": 1, "blocks": 4}
        stats = cache.stats()
        assert stats.misses == 4
        # Everyone else hit (either by joining the flight or by
        # arriving after it resolved).
        assert stats.hits == (N_THREADS - 1) * 4

    def test_distinct_ranges_each_charge_once(self):
        cache = SharedBlockCache(256)
        lock = threading.Lock()
        charged = []

        def charge_factory(lo, hi):
            def charge(blocks):
                with lock:
                    charged.append((lo, hi, blocks))
                time.sleep(0.005)

            return charge

        # 4 distinct ranges x 4 racers each.
        ranges = [(0, 3), (10, 13), (20, 23), (30, 33)]

        def work(i):
            lo, hi = ranges[i % len(ranges)]
            cache.fetch_range(5, lo, hi, charge_factory(lo, hi))

        errors = _run_racers(N_THREADS, work)
        assert errors == [None] * N_THREADS
        assert sorted(charged) == [
            (lo, hi, 4) for lo, hi in sorted(ranges)
        ]

    def test_waiters_counted_as_coalesced(self):
        cache = SharedBlockCache(64)
        started = threading.Event()
        release = threading.Event()

        def blocking_charge(blocks):
            started.set()
            release.wait(5.0)

        owner = threading.Thread(
            target=cache.fetch_range, args=(1, 0, 0, blocking_charge)
        )
        owner.start()
        assert started.wait(5.0)
        # A racer arriving while the flight is open must join it.
        waiter_done = threading.Event()

        def wait_side():
            hits, misses = cache.fetch_range(1, 0, 0, blocking_charge)
            assert (hits, misses) == (1, 0)
            waiter_done.set()

        waiter = threading.Thread(target=wait_side)
        waiter.start()
        time.sleep(0.02)
        assert not waiter_done.is_set()  # genuinely waiting, not re-fetching
        release.set()
        owner.join()
        waiter.join()
        assert waiter_done.is_set()
        stats = cache.stats()
        assert stats.coalesced_waits == 1
        assert stats.misses == 1

    def test_aggregate_charges_match_serialized_mode(self):
        """Racing block-at-a-time probes charge each distinct block once."""
        cache = SharedBlockCache(256)
        lock = threading.Lock()
        calls = {"blocks": 0}

        def charge(blocks):
            with lock:
                calls["blocks"] += blocks
            time.sleep(0.001)

        def work(i):
            for block in range(8):
                cache.fetch_range(7, block, block, charge)

        errors = _run_racers(N_THREADS, work)
        assert errors == [None] * N_THREADS
        assert calls["blocks"] == 8


class TestSingleFlightFailure:
    def test_failure_delivered_to_every_waiter(self):
        cache = SharedBlockCache(64)
        started = threading.Event()
        release = threading.Event()
        fault = DiskFault("read", 0)

        def failing_charge(blocks):
            started.set()
            release.wait(5.0)
            raise fault

        owner_error = []

        def owner_side():
            try:
                cache.fetch_range(1, 0, 3, failing_charge)
            except DiskFault as exc:
                owner_error.append(exc)

        owner = threading.Thread(target=owner_side)
        owner.start()
        assert started.wait(5.0)

        waiter_errors = []
        waiter_lock = threading.Lock()

        def waiter_side():
            try:
                cache.fetch_range(1, 0, 3, failing_charge)
            except DiskFault as exc:
                with waiter_lock:
                    waiter_errors.append(exc)

        waiters = [
            threading.Thread(target=waiter_side) for _ in range(6)
        ]
        for t in waiters:
            t.start()
        time.sleep(0.02)  # let the waiters join the open flight
        release.set()
        owner.join()
        for t in waiters:
            t.join()
        assert owner_error and owner_error[0] is fault
        # Every waiter that joined the failed flight saw the fault;
        # any that arrived after resolution retried (and failed on its
        # own charge) — either way, everyone got the DiskFault.
        assert len(waiter_errors) == 6
        assert all(isinstance(exc, DiskFault) for exc in waiter_errors)
        # The cache is not poisoned: nothing resident, and a healthy
        # retry charges and succeeds.
        for block in range(4):
            assert not cache.contains(1, block)
        ok = {"blocks": 0}
        cache.fetch_range(1, 0, 3, lambda n: ok.__setitem__("blocks", n))
        assert ok["blocks"] == 4
        assert cache.contains(1, 0)


class TestSingleFlightEndToEnd:
    def test_racing_cold_probes_issue_one_get(self, tmp_path):
        """32 per-query caches racing one cold block: one object GET."""
        backend = ObjectStoreBackend(
            tmp_path / "o",
            object_tier_level=1,
            # free request setup: break-even readahead is 0 blocks
            latency=ObjectStoreLatency(seconds_per_get=0.0),
        )
        disk = SimulatedDisk(block_elems=4, backend=backend)
        run = SortedRun(disk, np.arange(400, dtype=np.int64))
        backend.place_run(run.run_id, level=1)
        shared = SharedBlockCache(256)

        values = [None] * 32

        def probe(i):
            cache = BlockCache(disk, shared=shared)
            values[i] = run.element_at(57, cache=cache)

        errors = _run_racers(32, probe)
        assert errors == [None] * 32
        assert values == [57] * 32
        stats = backend.stats()
        assert stats.gets == 1
        assert stats.get_blocks == 1
        backend.close()
