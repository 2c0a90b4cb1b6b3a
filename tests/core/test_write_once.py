"""The step is sorted once (count-based guards).

The GK bulk absorb sorts the buffer tail it swallows; when
that tail is the whole step the engine writes the order back over the
buffer (``AppendBuffer.keep_sorted``) and the seal's sorter, which looks
at the bytes it is handed, finds nothing to sort.  Whatever the chunking,
the partition bytes, the ``PartitionSummary``, the ``StepReport`` I/O and
every later answer must be those of a twin engine that sealed the same
feed without ever being polled (nothing absorbed, nothing written back:
the path every seal took before) — only the number of sorts may differ.
"""

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine
from repro.ingest.archiver import MAX_PENDING_BATCHES
from repro.ingest.wal import WriteAheadLog
from repro.persistence import load_engine, save_engine
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
# how many times the seal's sorter must then call ``np.sort``.


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
    as the number of ``np.sort`` calls inside it — on the calling
    thread: ``np.sort`` is patched process-wide, and another thread's
    sort (a GK absorb beside a staging archiver) is not this call's."""
    calls, mine = [], threading.local()
    real_sort, real_sorted_array = np.sort, ExternalSorter.sorted_array

    def sort(array, *args, **kwargs):
        if getattr(mine, "sorts", None) is not None:
            mine.sorts += 1
        return real_sort(array, *args, **kwargs)

    def sorted_array(self, data):
        mine.sorts = 0
        try:
            return real_sorted_array(self, data)
        finally:
            calls.append(mine.sorts)
            mine.sorts = None

    with monkeypatch.context() as patch:
        patch.setattr(np, "sort", sort)
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
    return [partition_print(p) for p in engine._queryable_partitions()]


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
            engine._ensure_archiver().pause()
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
    """The write-back overwrites buffer elements in place while other
    threads append and seal: every element fed must come out of the
    warehouse or the stream exactly once."""
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
