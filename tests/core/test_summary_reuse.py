"""Summaries live as long as their inputs: reuse must be invisible.

SS is extracted once per sketch version (``StreamView``) and TS fused
once per (partition set, sketch version) (``HistoricalMemo``).  Whatever
a handle is given must equal, array for array, an extraction of a fresh
snapshot and a build that never saw the memo — after any interleaving
of writes, seals, flushes, pins, restores and queries.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterEngine, EngineConfig, HybridQuantileEngine
from repro.cluster import load_cluster, save_cluster
from repro.core.bounds import CombinedSummary
from repro.core.summaries import StreamSummary

from .test_bounds import assert_memoless, assert_same_ts

UPDATE_SIZES = (0, 1, 255, 256, 4096)
MODES = ("quick", "accurate")
SCOPES = ("full", "window_newest", "window_all", "range_newest", "range_all")
DOORS = ("engine", "handle", "cluster", "cluster_snapshot")


def assert_same_ss(got: StreamSummary, want: StreamSummary):
    assert np.array_equal(got.values, want.values)
    assert (got.strict_uppers is None) == (want.strict_uppers is None)
    if want.strict_uppers is not None:
        assert np.array_equal(got.strict_uppers, want.strict_uppers)
    assert (got.stream_size, got.eps2) == (want.stream_size, want.eps2)


def assert_from_scratch(view, **scope):
    """``view.combined(**scope)`` equals a build that never saw a memo
    (for a handle or a cluster snapshot), or the scope holds nothing."""
    partitions, summary = view.scope(**scope)
    if not any(map(len, partitions)) and summary.stream_size == 0:
        with pytest.raises(ValueError, match="empty dataset"):
            view.combined(**scope)
        return
    assert_same_ts(
        view.combined(**scope),
        CombinedSummary.build(
            [p.summary for p in partitions if len(p) > 0], summary
        ),
    )


def scope_kwargs(scope, sealed):
    """A scope that is aligned whatever the archiver has merged so far:
    the newest sealed step is always its own level-0 partition, and the
    whole sealed history always ends on a partition boundary."""
    if scope == "full" or sealed == 0:
        return {}
    return {
        "window_newest": dict(window_steps=1),
        "window_all": dict(window_steps=sealed),
        "range_newest": dict(step_range=(sealed, sealed)),
        "range_all": dict(step_range=(1, sealed)),
    }[scope]


def fingerprint(result):
    return (
        result.value, result.target_rank, result.total_size,
        result.estimated_rank, result.disk_accesses, result.iterations,
        result.rank_error_bound,
    )


def ask(query, *args, **kwargs):
    """The answer's fingerprint, or ``"empty"`` for a scope with no data."""
    try:
        return fingerprint(query(*args, **kwargs))
    except ValueError as exc:
        assert "empty" in str(exc)
        return "empty"


def answers(view, newest_window=False):
    """One fixed schedule of queries against a pinned view."""
    scopes = [{}, dict(window_steps=1)] if newest_window else [{}]
    return [
        ask(view.quantile, phi, mode=mode, **kwargs)
        for kwargs in scopes
        for mode in MODES
        for phi in (0.2, 0.5)
    ]


class System:
    """A cluster of ``shards`` background-ingest engines, and its doors."""

    def __init__(self, sketch, shards):
        self.cluster = ClusterEngine(
            shards=shards,
            config=EngineConfig(
                epsilon=0.05,
                kappa=2,
                block_elems=16,
                sketch_backend=sketch,
                ingest_mode="background",
            ),
        )
        #: (pinned cluster snapshot, whether a step was sealed, answers).
        self.held = []

    def check(self):
        """Every summary a pin hands out equals its from-scratch twin."""
        sealed = self.cluster.steps_sealed
        for engine in self.cluster.shards:
            with engine.pin() as handle:
                fresh = StreamSummary.extract(
                    engine.stream_sketch().snapshot(), engine.config.epsilon2
                )
                assert_same_ss(handle.stream_summary(), fresh)
                assert engine.stream_summary() is handle.stream_summary()
                assert_from_scratch(handle)
                if sealed:
                    assert_from_scratch(handle, window_steps=1)
                    assert_from_scratch(handle, step_range=(1, sealed))
        with self.cluster.pin() as snapshot:
            assert_from_scratch(snapshot)
            if sealed:
                assert_from_scratch(snapshot, window_steps=sealed)
                assert_from_scratch(snapshot, step_range=(sealed, sealed))
        for snapshot, windowed, expected in self.held:
            assert answers(snapshot, windowed) == expected
        self.cluster.check_invariants()

    def release_held(self):
        for snapshot, _, _ in self.held:
            snapshot.release()
        self.held = []

    def apply(self, op, rng, tmp_path_factory):
        cluster = self.cluster
        kind = op[0]
        if kind == "update":
            cluster.stream_update(op[1])
        elif kind == "update_many":
            cluster.stream_update_many(rng.integers(0, 10**6, op[1]))
        elif kind == "seal":
            cluster.end_time_step()
        elif kind == "flush":
            cluster.flush()
        elif kind == "pin" and len(self.held) < 2:
            snapshot = cluster.pin()
            windowed = cluster.steps_sealed > 0
            self.held.append((snapshot, windowed, answers(snapshot, windowed)))
        elif kind == "save_load":
            self.release_held()
            directory = tmp_path_factory.mktemp("reuse") / "ckpt"
            save_cluster(cluster, directory)
            cluster.close()
            self.cluster = load_cluster(directory)
        elif kind == "query":
            self.query(*op[1:])

    def query(self, mode, scope, door):
        cluster = self.cluster
        if door in ("engine", "handle"):
            view = cluster.shards[0]
        else:
            view = cluster
        kwargs = scope_kwargs(scope, cluster.steps_sealed)
        if door == "engine" or door == "cluster":
            ask(view.quantile, 0.5, mode=mode, **kwargs)
            return
        with view.pin() as pinned:
            ask(pinned.quantile, 0.5, mode=mode, **kwargs)
            ask(pinned.query_rank, 7, mode=mode, **kwargs)
            if "step_range" not in kwargs:
                try:
                    pinned.quantile_many((0.1, 0.9), mode=mode, **kwargs)
                except ValueError as exc:
                    assert "empty" in str(exc)

    def close(self):
        self.release_held()
        self.cluster.close()


operations = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 10**6)),
        st.tuples(st.just("update_many"), st.sampled_from(UPDATE_SIZES)),
        st.tuples(st.just("seal")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("pin")),
        st.tuples(st.just("save_load")),
        st.tuples(
            st.just("query"),
            st.sampled_from(MODES),
            st.sampled_from(SCOPES),
            st.sampled_from(DOORS),
        ),
    ),
    min_size=1,
    max_size=16,
)


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("sketch", ["kll"])
@given(ops=operations, seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_any_interleaving_hands_out_from_scratch_summaries(
    tmp_path_factory, sketch, shards, ops, seed
):
    rng = np.random.default_rng(seed)
    system = System(sketch, shards)
    try:
        for op in ops:
            system.apply(op, rng, tmp_path_factory)
            system.check()
    finally:
        system.close()


def make_engine(**overrides):
    config = dict(epsilon=0.05, kappa=2, block_elems=16)
    config.update(overrides)
    return HybridQuantileEngine(config=EngineConfig(**config))


def feed(engine, rng, size=600, seal=False):
    engine.stream_update_many(rng.integers(0, 10**6, size))
    if seal:
        engine.end_time_step()


def fusions(engine):
    stats = engine.epoch_stats
    return stats.ts_merges - stats.ts_reuses


class TestOneFusionPerVersion:
    def test_queries_between_appends_share_one_ts(self):
        rng = np.random.default_rng(3)
        with make_engine() as engine:
            feed(engine, rng, seal=True)
            feed(engine, rng)
            first = engine.pin()
            for _ in range(5):
                engine.quantile(0.5, mode="quick")
                engine.quantile(0.5)
            with engine.pin() as again:
                assert again.gk is first.gk
                assert again.stream_summary() is first.stream_summary()
                assert again.combined() is first.combined()
            stats = engine.epoch_stats
            assert (stats.ts_merges, stats.ts_reuses) == (12, 11)
            # One element is a new version: new snapshot, SS and TS.
            engine.stream_update(5)
            with engine.pin() as later:
                assert later.gk is not first.gk
                assert later.stream_summary() is not first.stream_summary()
                assert later.combined() is not first.combined()
                assert_memoless(later)
            assert fusions(engine) == 2
            assert_memoless(first)
            first.release()

    def test_an_empty_append_is_not_a_new_version(self):
        rng = np.random.default_rng(4)
        with make_engine() as engine:
            feed(engine, rng)
            with engine.pin() as before:
                engine.stream_update_many(np.empty(0, dtype=np.int64))
                with engine.pin() as after:
                    assert after.gk is before.gk

    def test_writing_to_the_handed_out_live_sketch_is_a_new_version(self):
        """``stream_sketch()`` returns the live object; the version test
        must notice a caller updating it behind the engine's back."""
        rng = np.random.default_rng(5)
        with make_engine() as engine:
            feed(engine, rng)
            with engine.pin() as before:
                engine.stream_sketch().update(123)
                with engine.pin() as after:
                    assert after.gk is not before.gk
                    assert after.m_stream == before.m_stream + 1

    def test_seal_drops_the_view_and_a_restore_starts_a_new_one(
        self, tmp_path
    ):
        from repro.persistence import load_engine, save_engine

        rng = np.random.default_rng(6)
        with make_engine() as engine:
            feed(engine, rng)
            with engine.pin() as live:
                engine.end_time_step()
                assert engine._stream_view is None
                with engine.pin() as sealed:
                    assert sealed.m_stream == 0
                    assert sealed.gk is not live.gk
                    assert_memoless(sealed)
            feed(engine, rng, size=300)
            with engine.pin() as handle:
                before = handle.combined()
            save_engine(engine, tmp_path / "ckpt")
        with load_engine(tmp_path / "ckpt") as restored:
            with restored.pin() as handle:
                assert_same_ts(handle.combined(), before)
                assert_memoless(handle)
            restored.check_invariants()

    def test_a_step_range_query_never_extracts(self, monkeypatch):
        rng = np.random.default_rng(7)
        with make_engine() as engine:
            feed(engine, rng, seal=True)
            feed(engine, rng)

            def refuse(*args):
                raise AssertionError("step_range needs no stream summary")

            monkeypatch.setattr(StreamSummary, "extract", refuse)
            assert engine.quantile(0.5, step_range=(1, 1)).total_size == 600

    def test_an_older_handle_resolving_late_gets_its_own_ts(self):
        """Only the newest version's TS is retained: a handle that
        resolves after a newer one pays a fusion, never a wrong TS."""
        rng = np.random.default_rng(8)
        with make_engine() as engine:
            feed(engine, rng, seal=True)
            feed(engine, rng)
            with engine.pin() as old:
                feed(engine, rng, size=10)
                with engine.pin() as new:
                    assert_memoless(new)
                    assert_memoless(old)
                    assert old.combined().total_size == 1200
                    assert new.combined().total_size == 1210
            assert fusions(engine) == 2
            engine.quantile(0.5, mode="quick")  # the newest again: re-fused
            assert fusions(engine) == 3
            engine.check_invariants()

    def test_only_the_newest_partition_set_keeps_a_ts(self):
        rng = np.random.default_rng(9)
        with make_engine() as engine:
            for _ in range(2):
                feed(engine, rng, seal=True)
            feed(engine, rng)
            with engine.pin() as handle:
                handle.combined()
                handle.combined(window_steps=1)
            retained = [
                entry.combined is not None
                for entry in engine._historical_memo._entries.values()
            ]
            assert retained == [False, True]


class TestStreamSummaryDoor:
    """``engine.stream_summary()`` goes through the pinned view."""

    @pytest.mark.parametrize("sketch", ["gk", "kll"])
    def test_never_reads_the_live_sketch(self, monkeypatch, sketch):
        rng = np.random.default_rng(11)
        with make_engine(sketch_backend=sketch) as engine:
            feed(engine, rng, seal=True)
            feed(engine, rng)
            live = engine.stream_sketch()

            def refuse(*args, **kwargs):
                raise AssertionError("read of the live sketch")

            for name in ("query_ranks", "rank_bounds", "min_value"):
                monkeypatch.setattr(live, name, refuse)
            summary = engine.stream_summary()
            assert summary.stream_size == 600
            with engine.pin() as handle:
                assert handle.stream_summary() is summary
                assert_same_ss(
                    summary,
                    StreamSummary.extract(handle.gk, engine.config.epsilon2),
                )
            assert engine.quantile(0.5).total_size == 1200
            feed(engine, rng, size=1)
            assert engine.stream_summary() is not summary


class TestPinnedDeterminism:
    @pytest.mark.parametrize("sketch", ["gk", "kll"])
    def test_a_handle_answers_the_same_after_append_seal_and_merge(
        self, sketch
    ):
        rng = np.random.default_rng(13)
        with make_engine(sketch_backend=sketch) as engine:
            for _ in range(2):
                feed(engine, rng, seal=True)
            feed(engine, rng)
            with engine.pin() as handle:
                expected = answers(handle, newest_window=True)
                summary = handle.stream_summary()
                feed(engine, rng, size=4096)
                engine.quantile(0.5)
                assert answers(handle, newest_window=True) == expected
                # kappa = 2: this seal merges both pinned partitions.
                engine.end_time_step()
                feed(engine, rng, seal=True)
                engine.quantile(0.5)
                assert [len(p) for p in engine.store.partitions()] == [
                    1200, 4696, 600,
                ]
                assert answers(handle, newest_window=True) == expected
                assert handle.stream_summary() is summary
                assert_memoless(handle)
            engine.check_invariants()


WRITER_CHUNKS = (300, 1, 512, 40, 700, 256)


def writer_script(seed, steps=3):
    """Per step, the chunks one writer appends before it seals (the
    last step stays live)."""
    rng = np.random.default_rng(seed)
    return [
        [rng.integers(0, 10**6, size) for size in WRITER_CHUNKS]
        for _ in range(steps)
    ]


@pytest.mark.serving
class TestConcurrentReaders:
    def test_readers_at_one_version_share_one_fusion(self):
        rng = np.random.default_rng(17)
        with make_engine() as engine:
            feed(engine, rng, seal=True)
            feed(engine, rng)
            barrier = threading.Barrier(8)
            results = []

            def read():
                barrier.wait(timeout=30)
                with engine.pin() as handle:
                    results.append(
                        (handle.gk, handle.combined(), answers(handle))
                    )

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(results) == 8
            assert len({id(gk) for gk, _, _ in results}) == 1
            assert len({id(ts) for _, ts, _ in results}) == 1
            assert all(r[2] == results[0][2] for r in results)
            stats = engine.epoch_stats
            assert stats.ts_merges - stats.ts_reuses == 1
            assert stats.hs_builds == 1

    @pytest.mark.parametrize("sketch", ["gk", "kll"])
    def test_readers_racing_an_appender_equal_their_serial_replay(
        self, sketch
    ):
        """Readers pin and resolve one at a time (so versions resolve
        in the order they were created — the late-resolver case is
        ``test_an_older_handle_resolving_late_gets_its_own_ts``) and
        answer concurrently, all while the writer appends and seals."""
        script = writer_script(23)
        observed = {}
        errors = []
        done = threading.Event()
        gate = threading.Lock()
        engine = make_engine(sketch_backend=sketch)

        def write():
            try:
                for step, chunks in enumerate(script):
                    for chunk in chunks:
                        engine.stream_update_many(chunk)
                        done.wait(0.002)
                    if step < len(script) - 1:
                        engine.end_time_step()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                last = False
                while not last:
                    last = done.is_set()
                    with gate:
                        handle = engine.pin()
                        if handle.n_total:
                            handle.combined()
                    with handle:
                        key = (handle.created_at_step, handle.m_stream)
                        got = answers(handle)
                        if observed.setdefault(key, got) != got:
                            raise AssertionError(f"two answers at {key}")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors, errors
        live = len(script) - 1
        assert (live, sum(WRITER_CHUNKS)) in observed

        stats = engine.epoch_stats
        # Distinct (partition set, sketch version) pairs with data.
        pairs = len(observed.keys() - {(0, 0)})
        assert stats.ts_merges - stats.ts_reuses <= pairs
        engine.check_invariants()
        engine.close()

        # Serial replay: same elements, same seals, and a pin (the only
        # thing that absorbs) at exactly the versions the readers saw.
        with make_engine(sketch_backend=sketch) as replay:
            for step, chunks in enumerate(script):
                data = np.concatenate(chunks)
                fed = 0
                for m in sorted(m for s, m in observed if s == step):
                    replay.stream_update_many(data[fed:m])
                    fed = m
                    with replay.pin() as handle:
                        assert (handle.created_at_step, handle.m_stream) == (
                            step, m,
                        )
                        assert answers(handle) == observed[(step, m)]
                replay.stream_update_many(data[fed:])
                if step < live:
                    replay.end_time_step()
