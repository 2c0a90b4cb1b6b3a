"""The step is sorted once, where it sits (count-based guards).

The GK bulk absorb sorts the buffer tail it swallows; when that tail is
the whole step the engine hands the sketch its buffer and the sort runs
there, in place, so the seal's copy of the buffer (``AppendBuffer.take``)
is ascending and the seal's sorter, which looks at the bytes it is
handed, finds nothing to sort.  Whatever the chunking, the partition
bytes, the ``PartitionSummary``, the ``StepReport`` I/O and every later
answer must be those of a twin engine that sealed the same feed without
ever being polled (nothing absorbed, nothing sorted in place: the path
every seal took before) — only the number of sorts may differ.

The step is also stored once: a polled step's run is the seal's copy,
a simulated-backend merge's run is the merge output
(``np.shares_memory``), a file-backed merge still goes through its own
mapping, and a caller's array is still copied.  The poll that absorbs a
whole step allocates nothing step-sized (``tracemalloc``).
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine
from repro.ingest.archiver import MAX_PENDING_BATCHES
from repro.ingest.buffer import AppendBuffer
from repro.ingest.wal import WriteAheadLog
from repro.persistence import load_engine, save_engine
from repro.storage import external_sort
from repro.storage.external_sort import ExternalSorter

from .test_query_doors import same

STEP = 5700  # 19 chunks of 300, each above GK's 256-element bulk threshold
STEPS = 7    # kappa = 3: two level-0 -> 1 cascades
PHIS = (0.01, 0.25, 0.5, 0.9, 0.999)


def make_engine(**overrides):
    config = dict(epsilon=0.02, kappa=3, block_elems=64)
    config.update(overrides)
    return HybridQuantileEngine(config=EngineConfig(**config))


def feeds(seed=3):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 10**6, STEP) if index % 2 == 0
        else rng.zipf(1.3, STEP).astype(np.int64)  # duplicate-heavy
        for index in range(STEPS)
    ]


def poll(engine):
    engine.quantile(0.99, mode="quick")


# Each scenario feeds one step's values, polling as it likes, and says
# how many times the seal's sorter must then sort an array.


def one_chunk(engine, values):
    for lo in range(0, STEP, 300):
        engine.stream_update_many(values[lo : lo + 300])
    poll(engine)
    return 0


def two_chunks(engine, values):
    for half in np.array_split(values, 2):
        engine.stream_update_many(half)
        poll(engine)
    return 1


def nineteen_chunks(engine, values):
    for lo in range(0, STEP, 300):
        engine.stream_update_many(values[lo : lo + 300])
        poll(engine)
    return 1


def late_arrivals(engine, values):
    engine.stream_update_many(values[:5000])
    poll(engine)
    engine.stream_update_many(values[5000:])  # after the last poll
    return 1


def scalar_tail(engine, values):
    engine.stream_update_many(values[:5600])
    poll(engine)
    engine.stream_update_many(values[5600:])  # 100: absorbed one by one
    poll(engine)
    return 1


def unpolled(engine, values):
    engine.stream_update_many(values)
    return 1


SCENARIOS = [
    one_chunk, two_chunks, nineteen_chunks, late_arrivals, scalar_tail,
]


@contextmanager
def sorter_calls(monkeypatch):
    """Every ``ExternalSorter.sorted_array`` call while the block runs,
    as the number of ``ndarray.sort`` calls inside it, read off the
    profile hook of the thread running it (an archiver's or a query's
    staging too); another thread's sort (a merge beside a staging
    archiver) is not this call's."""
    calls, real_sorted_array = [], ExternalSorter.sorted_array

    def sorted_array(self, data, *args):
        sorts = []

        def profile(frame, event, arg):
            if event == "c_call" and arg.__name__ == "sort" and isinstance(
                getattr(arg, "__self__", None), np.ndarray
            ):
                sorts.append(arg.__self__.size)

        sys.setprofile(profile)
        try:
            return real_sorted_array(self, data, *args)
        finally:
            sys.setprofile(None)
            calls.append(len(sorts))

    with monkeypatch.context() as patch:
        patch.setattr(ExternalSorter, "sorted_array", sorted_array)
        yield calls


def partition_print(partition):
    summary = partition.summary
    return (
        partition.level, partition.start_step, partition.end_step,
        partition.run.values.tobytes(),
        summary.values.tobytes(), summary.positions.tobytes(),
        summary.partition_size, summary.eps1, partition.stats,
    )


def layout_print(engine):
    with engine.pin() as handle:
        return [partition_print(p) for p in handle.partitions]


def io_print(report):
    return (
        report.step, report.batch_elems, report.io_total, report.io_load,
        report.io_sort, report.io_merge, report.sim_seconds,
        report.merged_levels,
    )


def same_answers(engine, twin):
    """A fixed query schedule over a fixed live tail, on both: equal on
    every ``QueryResult`` field but the measured wall time."""
    for system in (engine, twin):
        system.stream_update_many(np.arange(0, 10**6, 997))
    return all(
        same(engine.quantile(phi, mode=mode), twin.quantile(phi, mode=mode))
        for mode in ("quick", "accurate") for phi in PHIS
    )


def seal_like_the_twin(engine, twin, monkeypatch, sorts):
    """Seal both; the polled engine's sorter sorted ``sorts`` times, the
    twin's once, and the two steps are the same step."""
    with sorter_calls(monkeypatch) as calls:
        report = engine.end_time_step()
    assert calls == [sorts]
    with sorter_calls(monkeypatch) as calls:
        twin_report = twin.end_time_step()
    assert calls == [1]
    assert io_print(report) == io_print(twin_report)
    assert layout_print(engine) == layout_print(twin)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_seal_equals_the_unpolled_twin(scenario, monkeypatch):
    with make_engine() as engine, make_engine() as twin:
        for values in feeds():
            sorts = scenario(engine, values)
            unpolled(twin, values)
            seal_like_the_twin(engine, twin, monkeypatch, sorts)
        assert same_answers(engine, twin)
        engine.check_invariants()


def test_kll_sorts_nothing_and_takes_the_plain_path(monkeypatch):
    with make_engine(sketch_backend="kll") as engine, make_engine(
        sketch_backend="kll"
    ) as twin:
        for values in feeds():
            one_chunk(engine, values)
            unpolled(twin, values)
            seal_like_the_twin(engine, twin, monkeypatch, 1)


@pytest.mark.parametrize("stager", ["archiver", "query"])
def test_background_seal_equals_the_unpolled_twin(stager, monkeypatch):
    """``stage_partition`` finds the sealed batch ascending, whether the
    archiver stages it or a query steals the work."""
    background = dict(ingest_mode="background")
    with make_engine(**background) as engine, make_engine(
        **background
    ) as twin, sorter_calls(monkeypatch) as calls:
        reports = []
        if stager == "query":
            engine._archiver.pause()
        for sealed, values in enumerate(feeds(), start=1):
            one_chunk(engine, values)
            unpolled(twin, values)
            engine.end_time_step()
            twin.end_time_step()
            if stager == "query":
                assert not engine._archiver.pending_batches()[-1].staged
                poll(engine)  # stages the pending batch on this thread
                assert engine._archiver.pending_batches()[-1].staged
                if sealed % (MAX_PENDING_BATCHES - 1) == 0:
                    # One more seal would block on the paused queue.
                    engine._archiver.resume()
                    reports += engine.flush()
                    engine._archiver.pause()
        if stager == "query":
            engine._archiver.resume()
        reports += engine.flush()
        twin_reports = twin.flush()
        assert sorted(calls) == [0] * STEPS + [1] * STEPS
        assert list(map(io_print, reports)) == list(map(io_print, twin_reports))
        assert layout_print(engine) == layout_print(twin)
        assert same_answers(engine, twin)


def test_checkpoint_between_poll_and_seal(tmp_path, monkeypatch):
    """Nothing about the order is persisted but the bytes themselves:
    the restored buffer is ascending, and its seal sees that."""
    values, more = feeds()[:2]
    with make_engine() as engine, make_engine() as twin:
        one_chunk(engine, values)
        unpolled(twin, values)
        save_engine(engine, tmp_path / "ckpt")
        with load_engine(tmp_path / "ckpt") as restored:
            seal_like_the_twin(restored, twin, monkeypatch, 0)
            sorts = one_chunk(restored, more)
            unpolled(twin, more)
            seal_like_the_twin(restored, twin, monkeypatch, sorts)
            assert same_answers(restored, twin)


def test_wal_replay_then_seal(tmp_path, monkeypatch):
    first, second, third = feeds()[:3]
    engine = make_engine()
    engine.attach_wal(WriteAheadLog(tmp_path / "wal"))
    with make_engine() as twin:
        one_chunk(engine, first)
        engine.end_time_step()
        save_engine(engine, tmp_path / "ckpt")
        one_chunk(engine, second)  # acked after the checkpoint, then lost
        wal = engine.detach_wal()
        wal._file.close()
        for values in (first, second):
            unpolled(twin, values)
            if values is first:
                twin.end_time_step()
        with load_engine(
            tmp_path / "ckpt", wal_dir=tmp_path / "wal"
        ) as recovered:
            poll(recovered)  # absorbs the replayed step in one chunk
            seal_like_the_twin(recovered, twin, monkeypatch, 0)
            sorts = two_chunks(recovered, third)
            unpolled(twin, third)
            seal_like_the_twin(recovered, twin, monkeypatch, sorts)
            assert same_answers(recovered, twin)


def test_write_back_loses_nothing_under_concurrent_appends():
    """The absorb sorts buffer elements in place while other threads
    append and seal: every element fed must come out of the warehouse or
    the stream exactly once."""
    import sys
    import threading
    import time

    chunks = [
        np.random.default_rng(seed).integers(0, 10**6, 300)
        for seed in range(600)
    ]
    done = threading.Event()
    polls = []

    def write(mine):
        for chunk in mine:
            engine.stream_update_many(chunk)
            time.sleep(0.0002)  # let polls and seals in between

    def keep_polling():
        while not done.is_set():
            poll(engine)
            polls.append(engine.steps_sealed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with make_engine() as engine:
            engine.stream_update_many(np.arange(300))
            writers = [
                threading.Thread(target=write, args=(chunks[i::3],))
                for i in range(3)
            ]
            poller = threading.Thread(target=keep_polling)
            for thread in (*writers, poller):
                thread.start()
            while any(thread.is_alive() for thread in writers):
                if engine.m_stream >= 1500:
                    engine.end_time_step()
            done.set()
            for thread in (*writers, poller):
                thread.join(timeout=30)
                assert not thread.is_alive()
            engine.end_time_step()
            # Polls and seals did interleave with the appends.
            assert len(set(polls)) > 3
            stored = np.concatenate(
                [p.run.values for p in engine.store.partitions()]
            )
            fed = np.concatenate([np.arange(300), *chunks])
            assert np.array_equal(np.sort(stored), np.sort(fed))
            engine.check_invariants()
    finally:
        sys.setswitchinterval(interval)


# Each sealed step and each merged run is materialised once, in the
# array the run then keeps; a caller's array is never adopted.


@contextmanager
def returned_by(monkeypatch, owner, name):
    """Every array ``owner.name`` returns while the block runs."""
    seen, real = [], getattr(owner, name)

    def record(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append(result)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, record)
        yield seen


def test_a_polled_step_is_sorted_in_the_buffer_and_stored_as_the_seals_copy(
    monkeypatch,
):
    values = feeds()[0]
    real_sort, sorts = np.sort, []

    def counted_sort(array, *args, **kwargs):
        sorts.append(len(array))
        return real_sort(array, *args, **kwargs)

    with make_engine() as engine, make_engine() as twin:
        engine.stream_update_many(values)
        with monkeypatch.context() as patch:
            patch.setattr(np, "sort", counted_sort)
            poll(engine)
        assert sorts == []  # sorted where it sits, not into a copy
        assert np.array_equal(engine._buffer.slice_from(0), np.sort(values))
        with returned_by(monkeypatch, AppendBuffer, "take") as taken:
            engine.end_time_step()
        unpolled(twin, values)
        twin.end_time_step()
    (copy,) = taken
    (partition,) = engine.store.partitions()
    (twin_partition,) = twin.store.partitions()
    assert np.shares_memory(partition.run.values, copy)
    assert not copy.flags.writeable
    assert copy.tobytes() == twin_partition.run.values.tobytes()


def test_the_poll_that_absorbs_a_step_allocates_nothing_step_sized():
    """What the quick answer keeps (the sketch's tuples, SS and TS) is
    about half the step's bytes at this size; on top of it the call may
    peak by a quarter of them.  A sort copy alone is the whole step."""
    import tracemalloc

    step = np.random.default_rng(11).integers(0, 10**9, 75_000)
    with HybridQuantileEngine(epsilon=1e-3) as engine:
        for lo in range(0, step.size, 4096):
            engine.stream_update_many(step[lo : lo + 4096])
        tracemalloc.start()
        try:
            engine.quantile(0.99, mode="quick")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - retained <= 0.25 * step.nbytes
    assert retained <= 0.75 * step.nbytes


def test_a_ten_run_merge_allocates_only_its_output():
    """An int32-range merge is concatenated into an int32 output and
    sorted there: beside the output's 1.2 MB, only a few kilobytes of
    bookkeeping are allocated, and nothing is widened after."""
    import tracemalloc

    rng = np.random.default_rng(12)
    runs = [np.sort(rng.integers(0, 10**9, 30_000)) for _ in range(10)]
    tracemalloc.start()
    try:
        merged = external_sort.kway_merge(runs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert merged.dtype == np.int32 and merged.nbytes == 4 * 300_000
    assert peak - merged.nbytes <= 8 * 1024
    assert np.array_equal(merged, np.sort(np.concatenate(runs)))


def test_a_simulated_cascade_keeps_the_merge_output(monkeypatch):
    with make_engine() as engine, returned_by(
        monkeypatch, external_sort, "kway_merge"
    ) as merged:
        for values in feeds()[:4]:  # kappa = 3: the fourth seal merges
            unpolled(engine, values)
            engine.end_time_step()
    (output,) = merged
    top = engine.store.partitions()[0]
    assert top.level == 1 and np.shares_memory(top.run.values, output)
    assert output.flags.owndata


@pytest.mark.parametrize("backend", ["mmap", "object"])
def test_a_file_backed_merge_goes_through_the_mapping(backend, monkeypatch):
    """A 1 MiB merge (three int32 steps) is built in its own mapping
    and written out; the run reads the file, not the mapping."""
    import mmap

    rng = np.random.default_rng(1)
    with make_engine(storage_backend=backend) as engine:
        with returned_by(monkeypatch, external_sort, "kway_merge") as merged:
            for _ in range(4):
                engine.stream_update_many(rng.integers(0, 10**6, 90_000))
                engine.end_time_step()
        (output,) = merged
        assert isinstance(output.base.obj, mmap.mmap)
        top = engine.store.partitions()[0]
        assert top.level == 1 and top.run.tier != "memory"
        assert not np.shares_memory(top.run.values, output)


def test_a_caller_array_is_copied():
    from repro.storage import SimulatedDisk, SortedRun
    from repro.warehouse.leveled_store import LeveledStore

    ascending = np.arange(100, dtype=np.int64)
    disk = SimulatedDisk(block_elems=8)
    assert not np.shares_memory(SortedRun(disk, ascending).values, ascending)
    store = LeveledStore(disk, kappa=3)
    partition = store.add_batch(ascending)
    assert not np.shares_memory(partition.run.values, ascending)
    ascending[0] = -1
    assert partition.run.values[0] == 0
    # A read-only view does not own its bytes: copied too.
    frozen = np.arange(100, dtype=np.int64)
    frozen.setflags(write=False)
    view = frozen[10:]
    assert not np.shares_memory(SortedRun(disk, view).values, frozen)
