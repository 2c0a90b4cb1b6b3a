"""``SortedRun.rank_of`` against the per-probe loop it replaced.

Two identical set-ups (disk, run, cache, optional shared tier) are
driven side by side — one through :func:`reference_rank_of`, one through
the real method — and must agree on the rank and on everything the
accounting can see, in order.  The real side additionally has to make
do with one backend read per (run, block).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.errors import TransientReadError
from repro.storage import BlockCache, SimulatedDisk, SortedRun
from repro.storage.shared_cache import SharedBlockCache

from .rank_of_reference import reference_rank_of


class RecordingDisk(SimulatedDisk):
    """Logs every random-read charge; faults the ``fail_on``-th one."""

    def __init__(self, block_elems, log):
        super().__init__(block_elems=block_elems)
        self._log = log
        self.fail_on = None
        self._charges = 0

    def charge_random_read(self, blocks=1):
        self._charges += 1
        if self._charges == self.fail_on:
            self._log.append(("fault", blocks))
            raise TransientReadError("read", self._charges)
        self._log.append(("charge", blocks))
        super().charge_random_read(blocks)


class RecordingHandle:
    """A run handle that logs GET accounting and counts real reads."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log
        self.run_id = inner.run_id
        self.block_elems = inner.block_elems
        self.reads = []

    @property
    def tier(self):
        return self._inner.tier

    @property
    def data(self):
        return self._inner.data

    def read_blocks(self, first, last, charged=0):
        if charged:
            self._log.append(("note", first, last, charged))
        self.reads.append((first, last))
        return self._inner.read_blocks(first, last, charged)


class RecordingCache(BlockCache):
    """Logs the result of every one-block touch that was not free."""

    def __init__(self, disk, log, **kwargs):
        super().__init__(disk, **kwargs)
        self._log = log

    def touch_range(self, run_id, first_block, last_block, prefetch=False):
        paid_before = self._enabled and first_block in self._seen.get(
            run_id, ()
        )
        result = super().touch_range(
            run_id, first_block, last_block, prefetch
        )
        if first_block == last_block and not paid_before:
            self._log.append(("touch", first_block, result))
        return result


CACHE_STATES = ("cold", "partly-seen", "shared", "shared-warm", "disabled")


def build(data, block_elems, state, seen_blocks, fail_on=None):
    """One side of the comparison: ``(run, cache, log)``."""
    log = []
    disk = RecordingDisk(block_elems, log)
    run = SortedRun(disk, data, charge_write=False)
    run._handle = RecordingHandle(run._handle, log)
    shared = SharedBlockCache(64) if state.startswith("shared") else None
    cache = RecordingCache(
        disk, log, enabled=state != "disabled", shared=shared
    )
    if state == "partly-seen":
        # Charged by an earlier probe of this query, bytes not held.
        for block in seen_blocks:
            cache.touch_range(run.run_id, block, block)
    elif state == "shared-warm":
        # Resident from an earlier *query*: free here, still unseen.
        other = BlockCache(disk, shared=shared)
        for block in seen_blocks:
            other.touch_range(run.run_id, block, block)
    del log[:]
    disk._charges = 0
    disk.fail_on = fail_on
    return run, cache, log


def counters(cache, disk):
    return (
        cache.blocks_charged,
        cache.shared_hits,
        sorted(cache.blocks_per_run.values()),
        sorted(map(sorted, cache._seen.values())),
        disk.stats.counters.random_reads,
        cache.shared.stats() if cache.shared is not None else None,
    )


def real_rank_of(run, value, lo, hi, cache):
    return run.rank_of(value, lo=lo, hi=hi, cache=cache)


@st.composite
def cases(draw):
    block_elems = draw(st.sampled_from([1, 2, 4, 16]))
    length = draw(st.integers(0, 130))
    # A narrow universe forces duplicates, also across block borders.
    universe = draw(st.sampled_from([3, 20, 1000]))
    data = np.sort(
        np.asarray(
            draw(
                st.lists(
                    st.integers(-universe, universe),
                    min_size=length,
                    max_size=length,
                )
            ),
            dtype=np.int64,
        )
    )
    lo = draw(st.integers(-3, length + 3))
    hi = draw(st.one_of(st.none(), st.integers(-3, length + 3)))
    edges = [int(x) for x in data[::block_elems]]
    edges += [int(x) for x in data[block_elems - 1 :: block_elems]]
    value = draw(
        st.one_of(
            st.integers(-universe - 2, universe + 2),
            st.sampled_from(edges) if edges else st.just(0),
        )
    )
    state = draw(st.sampled_from(CACHE_STATES))
    blocks = -(-length // block_elems)
    seen = draw(st.sets(st.integers(0, max(blocks - 1, 0)), max_size=4))
    return data, block_elems, lo, hi, value, state, sorted(seen)


class TestSameAccounting:
    @settings(max_examples=400, deadline=None)
    @given(cases())
    def test_rank_and_event_sequence_match(self, case):
        data, block_elems, lo, hi, value, state, seen = case
        ref_run, ref_cache, ref_log = build(data, block_elems, state, seen)
        run, cache, log = build(data, block_elems, state, seen)

        expected = reference_rank_of(ref_run, value, lo, hi, ref_cache)
        assert run.rank_of(value, lo=lo, hi=hi, cache=cache) == expected
        if hi is None and lo <= 0:
            assert expected == int(np.searchsorted(data, value, "right"))
        assert log == ref_log
        assert counters(cache, run.disk) == counters(ref_cache, ref_run.disk)

        # A second probe of the same query sees what the first left.
        other = value + 1
        expected = reference_rank_of(ref_run, other, lo, hi, ref_cache)
        assert run.rank_of(other, lo=lo, hi=hi, cache=cache) == expected
        assert log == ref_log
        assert counters(cache, run.disk) == counters(ref_cache, ref_run.disk)

        reads = run._handle.reads
        if state == "disabled":
            # Nothing to pin into: a read per probe, exactly as before.
            assert reads == ref_run._handle.reads
        else:
            assert len(reads) == len(set(reads))
            assert all(first == last for first, last in reads)

    @settings(max_examples=200, deadline=None)
    @given(cases(), st.integers(1, 4))
    def test_faulted_charge_is_recharged_by_the_retry(self, case, fail_on):
        data, block_elems, lo, hi, value, state, seen = case
        sides = []
        for rank_of in (reference_rank_of, real_rank_of):
            run, cache, log = build(data, block_elems, state, seen, fail_on)
            try:
                rank = rank_of(run, value, lo, hi, cache)
            except TransientReadError:
                # Whichever block the failed charge was for, it was not
                # recorded: only paid-for blocks hold bytes.
                pinned = cache._pinned.get(run.run_id, {})
                assert set(pinned) <= cache._seen.get(run.run_id, set())
                rank = rank_of(run, value, lo, hi, cache)
            sides.append((rank, log, counters(cache, run.disk)))
        # Equal logs: the retry's charge for the faulted block included.
        assert sides[0] == sides[1]


class TestPinnedBytes:
    def test_fault_then_retry_recharges_the_same_block(self):
        data = np.arange(64, dtype=np.int64)
        run, cache, log = build(data, 8, "cold", [], fail_on=1)
        with pytest.raises(TransientReadError):
            run.rank_of(20, cache=cache)
        assert cache._pinned.get(run.run_id, {}) == {}
        assert run._handle.reads == []
        assert run.rank_of(20, cache=cache) == 21
        # fault on block 4, then the same block charged by the retry.
        assert log[:3] == [("fault", 1), ("charge", 1), ("touch", 4, 1)]

    def test_confined_search_is_one_touch_and_one_read(self):
        data = np.arange(0, 200, 2, dtype=np.int64)
        run, cache, log = build(data, 16, "cold", [])
        assert run.rank_of(75, lo=33, hi=47, cache=cache) == 38
        assert log == [("charge", 1), ("touch", 2, 1), ("note", 2, 2, 1)]
        assert run._handle.reads == [(2, 2)]
        # The pinned block now answers without cache or backend traffic.
        assert run.element_at(37, cache=cache) == 74
        assert run.rank_of(70, lo=32, hi=48, cache=cache) == 36
        assert len(log) == 3 and run._handle.reads == [(2, 2)]

    def test_ranged_read_pins_each_block_for_later_probes(self):
        data = np.arange(100, dtype=np.int64)
        run, cache, log = build(data, 8, "cold", [])
        run.read_block_range(3, 5, cache=cache)
        assert run._handle.reads == [(3, 5)]
        assert run.rank_of(30, lo=24, hi=48, cache=cache) == 31
        assert run.element_at(47, cache=cache) == 47
        assert run._handle.reads == [(3, 5)]
        assert cache.blocks_charged == 3

    def test_disabled_cache_pins_nothing(self):
        data = np.arange(64, dtype=np.int64)
        run, cache, _ = build(data, 8, "disabled", [])
        run.rank_of(20, cache=cache)
        run.read_block_range(0, 3, cache=cache)
        assert not cache.pins(run.run_id)
        assert cache._pinned == {}
