"""The historical half of TS is grown when a partition is adopted.

Once a query has put an entry in the engine's ``HistoricalMemo``, every
adoption grows the HS of the adopted partition set — on the sealing
thread in sync mode, on the archiver thread in background mode — so the
first quick query after a seal only fuses the stream half: it calls
neither ``HistoricalSummary.extended`` nor ``HistoricalSummary.fold``.
A cascade merge, which leaves no memoised prefix, is folded at the
adoption too.  A sync seal also derives its epoch's layout there, so
that query derives none.  Memos that no query reads (a cluster's shards,
an engine nobody queries) stay empty, and no seal derives a layout for
them.
"""

import numpy as np
import pytest

from repro import ClusterEngine, EngineConfig, HybridQuantileEngine
from repro.core.bounds import CombinedSummary, HistoricalSummary

from .test_bounds import assert_same_ts
from .test_epoch_layout import count_derivations

PHIS = (0.01, 0.25, 0.5, 0.9, 0.999)


@pytest.fixture
def hs_calls(monkeypatch):
    """Names of the ``HistoricalSummary`` growth verbs called, in order
    (``fold`` grows an empty summary, so it logs an ``extended`` too)."""
    calls = []
    extended = HistoricalSummary.extended
    fold = HistoricalSummary.__dict__["fold"].__func__

    def spy_extended(self, *summaries):
        calls.append("extended")
        return extended(self, *summaries)

    def spy_fold(cls, summaries):
        calls.append("fold")
        return fold(cls, summaries)

    monkeypatch.setattr(HistoricalSummary, "extended", spy_extended)
    monkeypatch.setattr(HistoricalSummary, "fold", classmethod(spy_fold))
    return calls


def assert_answers_from_scratch(engine):
    """Quick answers, and the TS the memo retains for them, equal what a
    TS built without the memo gives; the memo passes its own check."""
    results = engine.quantile_many(PHIS, "quick")
    partitions = engine.store.partitions()
    scratch = CombinedSummary.build(
        [p.summary for p in partitions if len(p) > 0], engine.stream_summary()
    )
    for result in results:
        assert result.total_size == scratch.total_size
        assert result.value == scratch.quick_response(result.target_rank)
    *_, newest = engine._historical_memo._entries.values()
    assert_same_ts(newest.combined, scratch)
    engine.check_invariants()


@pytest.mark.parametrize("mode", ["sync", "background"])
def test_the_seal_grows_hs_and_the_next_quick_only_fuses(mode, hs_calls):
    config = EngineConfig(
        epsilon=0.05, kappa=2, block_elems=16, ingest_mode=mode
    )
    rng = np.random.default_rng(17)
    with HybridQuantileEngine(config=config) as engine:

        def seal():
            engine.end_time_step()
            engine.flush()
            engine.stream_update_many(rng.integers(0, 10**6, 100))

        engine.stream_update_many(rng.integers(0, 10**6, 300))
        seal()
        engine.quantile(0.5, "quick")  # the first query folds HS
        assert (engine.epoch_stats.hs_builds, engine.epoch_stats.hs_extends) \
            == (1, 0)
        # Seal 2 appends a partition: grown from the memoised prefix.
        # Seal 3 (kappa = 2) merges the two older ones: no prefix is
        # left, so the adoption folds the new set from scratch.
        for sizes, counts in (([300, 300], (1, 1)), ([600, 300], (2, 1))):
            engine.stream_update_many(rng.integers(0, 10**6, 200))
            hs_calls.clear()
            seal()
            assert hs_calls, "the adoption grew no HS"
            assert [len(p) for p in engine.store.partitions()] == sizes
            stats = engine.epoch_stats
            assert (stats.hs_builds, stats.hs_extends) == counts
            hs_calls.clear()
            engine.quantile(0.5, "quick")
            assert hs_calls == []
            stats = engine.epoch_stats
            assert (stats.hs_builds, stats.hs_extends) == counts
            assert_answers_from_scratch(engine)


def test_a_sync_seal_derives_the_layout_the_next_query_reads(monkeypatch):
    derived = count_derivations(monkeypatch)
    config = EngineConfig(epsilon=0.05, kappa=2, block_elems=16)
    rng = np.random.default_rng(23)
    with HybridQuantileEngine(config=config) as engine:
        engine.stream_update_many(rng.integers(0, 10**6, 300))
        engine.quantile(0.5, "quick")  # from now on the memo is read
        for _ in range(4):  # kappa = 2: the second and fourth seals merge
            derived.clear()
            engine.end_time_step()
            assert derived == [engine]
            engine.stream_update_many(rng.integers(0, 10**6, 300))
            engine.quantile(0.5, "quick")
            assert derived == [engine]
            assert_answers_from_scratch(engine)


def test_adopting_what_a_query_staged_grows_nothing():
    """A query that staged the pending batches already holds the set
    each adoption reaches: the adoptions add no entry, and the TS that
    query fused stays retained for the next one."""
    config = EngineConfig(
        epsilon=0.05, kappa=10, block_elems=16, ingest_mode="background"
    )
    rng = np.random.default_rng(29)
    with HybridQuantileEngine(config=config) as engine:
        engine.stream_update_many(rng.integers(0, 10**6, 300))
        engine.end_time_step()
        engine.flush()
        engine.quantile(0.5, "quick")
        engine._archiver.pause()
        try:
            for _ in range(2):
                engine.stream_update_many(rng.integers(0, 10**6, 300))
                engine.end_time_step()
            engine.stream_update_many(rng.integers(0, 10**6, 100))
            engine.quantile(0.5, "quick")  # stages both pending batches
        finally:
            engine._archiver.resume()
        engine.flush()
        before = engine.epoch_stats
        assert (before.hs_builds, before.hs_extends) == (1, 1)
        engine.quantile(0.5, "quick")
        after = engine.epoch_stats
        assert (after.hs_builds, after.hs_extends) == (1, 1)
        assert after.ts_reuses == before.ts_reuses + 1
        assert_answers_from_scratch(engine)


def test_shard_memos_stay_empty():
    """A cluster answers from its own memo: its shards' are never read,
    so no seal grows them."""
    config = EngineConfig(
        epsilon=0.02, kappa=3, block_elems=64, sketch_backend="kll"
    )
    rng = np.random.default_rng(3)
    with ClusterEngine(shards=3, config=config) as cluster:
        for _ in range(6):
            cluster.stream_update_many(rng.integers(0, 10**6, 1500))
            cluster.quantile(0.5, "quick")
            cluster.quantile(0.9, "accurate")
            cluster.end_time_step()
        assert cluster._historical_memo._entries
        for shard in cluster.shards:
            assert not shard._historical_memo._entries
            stats = shard.epoch_stats
            assert (stats.hs_builds, stats.hs_extends) == (0, 0)


@pytest.mark.parametrize("mode", ["sync", "background"])
def test_an_unqueried_engine_builds_nothing_at_its_seals(mode, monkeypatch):
    derived = count_derivations(monkeypatch)
    config = EngineConfig(
        epsilon=0.05, kappa=3, block_elems=16, ingest_mode=mode
    )
    rng = np.random.default_rng(5)
    with HybridQuantileEngine(config=config) as engine:
        for _ in range(10):
            engine.stream_update_many(rng.integers(0, 10**6, 300))
            engine.end_time_step()
        engine.flush()
        stats = engine.epoch_stats
        assert (stats.hs_builds, stats.hs_extends) == (0, 0)
        assert not engine._historical_memo._entries
        assert derived == []
