"""Unit tests for I/O counters and the latency model."""

import pytest

from repro.storage.stats import DiskLatencyModel, DiskStats, IoCounters


class TestIoCounters:
    def test_starts_at_zero(self):
        counters = IoCounters()
        assert counters.total == 0
        assert counters.sequential == 0
        assert counters.random_reads == 0

    def test_total_sums_all_kinds(self):
        counters = IoCounters(
            sequential_reads=3, sequential_writes=4, random_reads=5
        )
        assert counters.total == 12
        assert counters.sequential == 7

    def test_add_accumulates(self):
        a = IoCounters(sequential_reads=1, sequential_writes=2, random_reads=3)
        b = IoCounters(sequential_reads=10, sequential_writes=20, random_reads=30)
        a.add(b)
        assert a.sequential_reads == 11
        assert a.sequential_writes == 22
        assert a.random_reads == 33


class TestDiskLatencyModel:
    def test_seconds_weights_random_more(self):
        model = DiskLatencyModel(
            seconds_per_sequential_block=0.1, seconds_per_random_block=1.0
        )
        counters = IoCounters(
            sequential_reads=2, sequential_writes=3, random_reads=4
        )
        assert model.seconds(counters) == pytest.approx(0.5 + 4.0)

    def test_default_matches_paper_assumption(self):
        # Section 2.4 assumes 1 block per millisecond for random access.
        model = DiskLatencyModel()
        assert model.seconds_per_random_block == pytest.approx(1e-3)


class TestDiskStats:
    def test_phase_buckets(self):
        stats = DiskStats()
        stats.set_phase("load")
        stats.record_sequential_write(5)
        stats.set_phase("merge")
        stats.record_sequential_read(3)
        stats.record_sequential_write(3)
        stats.set_phase("query")
        stats.record_random_read(2)
        assert stats.load.sequential_writes == 5
        assert stats.merge.sequential == 6
        assert stats.query.random_reads == 2
        assert stats.counters.total == 13

    def test_unknown_phase_rejected(self):
        stats = DiskStats()
        with pytest.raises(ValueError):
            stats.set_phase("banana")

    def test_totals_track_all_phases(self):
        stats = DiskStats()
        stats.set_phase("sort")
        stats.record_sequential_read(7)
        stats.set_phase("load")
        stats.record_sequential_write(1)
        assert stats.counters.sequential_reads == 7
        assert stats.counters.sequential_writes == 1
        assert stats.sort.sequential_reads == 7


class TestThreadLocalPhases:
    def test_phase_is_per_thread(self):
        import threading

        stats = DiskStats()
        stats.set_phase("merge")
        seen = {}

        def worker():
            seen["initial"] = stats.current_phase
            stats.set_phase("query")
            stats.record_random_read(1)
            stats.record_sequential_read(2)
            seen["final"] = stats.current_phase

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        # the worker defaulted to "load", not this thread's "merge"
        assert seen == {"initial": "load", "final": "query"}
        assert stats.current_phase == "merge"
        # and its charges went to its own phase
        assert stats.query.random_reads == 1
        assert stats.query.sequential_reads == 2
        assert stats.merge.total == 0

    def test_phase_scope_restores(self):
        stats = DiskStats()
        stats.set_phase("query")
        with stats.phase_scope("sort"):
            stats.record_sequential_read(3)
            assert stats.current_phase == "sort"
        assert stats.current_phase == "query"
        assert stats.sort.sequential_reads == 3


class TestCapture:
    def test_capture_tallies_own_thread_only(self):
        import threading

        stats = DiskStats()
        inside = threading.Event()
        done = threading.Event()

        def noise():
            inside.wait(timeout=5)
            stats.set_phase("merge")
            stats.record_sequential_write(100)
            done.set()

        thread = threading.Thread(target=noise)
        thread.start()
        with stats.capture() as tally:
            stats.set_phase("sort")
            stats.record_sequential_read(4)
            inside.set()
            done.wait(timeout=5)
            stats.record_sequential_write(2)
        thread.join()
        # the concurrent thread's 100 writes are absent from the tally
        assert tally.counters.sequential_reads == 4
        assert tally.counters.sequential_writes == 2
        assert tally.sort.sequential_reads == 4
        assert tally.sort.sequential_writes == 2
        # ...but present in the global counters
        assert stats.counters.sequential_writes == 102

    def test_captures_nest(self):
        stats = DiskStats()
        with stats.capture() as outer:
            stats.record_sequential_read(1)
            with stats.capture() as inner:
                stats.record_sequential_read(2)
        assert inner.counters.sequential_reads == 2
        assert outer.counters.sequential_reads == 3

    def test_random_reads_attributed_to_query_phase(self):
        stats = DiskStats()
        stats.set_phase("merge")
        with stats.capture() as tally:
            stats.record_random_read(5)
        assert tally.query.random_reads == 5
        assert tally.merge.total == 0

    def test_tally_add(self):
        stats = DiskStats()
        with stats.capture() as first:
            stats.record_sequential_read(1)
        with stats.capture() as second:
            with stats.phase_scope("merge"):
                stats.record_sequential_write(2)
        combined = DiskStats()
        combined.add(first)
        combined.add(second)
        assert combined.counters.total == 3
        assert combined.load.sequential_reads == 1
        assert combined.merge.sequential_writes == 2
