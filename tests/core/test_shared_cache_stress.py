"""Invalidation-correctness stress tests for the shared cache tier.

The satellite requirement: interleave compaction, background adoption
and pinned accurate queries, and assert the shared tier changes neither
the answers nor the accounting — bit-identical quantile values and
block-charge counts versus a serial replay of the same workload with
the shared cache disabled.

Prefetch is held at 0 in the parity tests: prefetching deliberately
trades a few extra cold block reads for ranged I/O, so exact
charge-count parity with the historical accounting is only promised for
the pure read-through configuration (the prefetch answer-identity test
covers the other half).
"""

import threading

import numpy as np
import pytest

from repro import HybridQuantileEngine
from repro.core.config import EngineConfig

PHIS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def make_engine(shared_blocks, prefetch=0, **overrides):
    config = EngineConfig(
        epsilon=0.05,
        kappa=3,
        block_elems=16,
        compaction="leveled",
        shared_cache_blocks=shared_blocks,
        prefetch_blocks=prefetch,
        **overrides,
    )
    return HybridQuantileEngine(config=config)


def batches(seed, steps, batch=1200):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 1_000_000, batch, dtype=np.int64)
        for _ in range(steps)
    ]


def feed(engine, data):
    for chunk in data:
        engine.stream_update_many(chunk)
        engine.end_time_step()


def pinned_answers(engine, window_steps=None):
    """(value, disk_accesses) per phi against one pinned snapshot."""
    with engine.pin() as handle:
        results = [
            handle.quantile(phi, mode="accurate", window_steps=window_steps)
            for phi in PHIS
        ]
    return [(r.value, r.disk_accesses) for r in results]


class TestCompactionInterleaving:
    """Pinned queries race compaction merges that retire their runs."""

    def test_pinned_pre_merge_snapshot_matches_disabled_replay(self):
        shared = make_engine(shared_blocks=128)
        plain = make_engine(shared_blocks=0)
        head, tail = batches(7, 4), batches(11, 8)
        feed(shared, head)
        feed(plain, head)
        with shared.pin() as s_handle, plain.pin() as p_handle:
            # Compaction merges under the pins retire the pinned runs
            # (and invalidate them in the shared tier).
            feed(shared, tail)
            feed(plain, tail)
            assert shared.shared_cache.stats().invalidated_runs > 0
            for phi in PHIS:
                s = s_handle.quantile(phi, mode="accurate")
                p = p_handle.quantile(phi, mode="accurate")
                # Probing retired runs just misses: identical answer,
                # identical charge count.
                assert s.value == p.value
                assert s.disk_accesses == p.disk_accesses

    def test_post_merge_cold_queries_match_disabled_replay(self):
        shared = make_engine(shared_blocks=128)
        plain = make_engine(shared_blocks=0)
        data = batches(13, 10)
        feed(shared, data)
        feed(plain, data)
        assert shared.shared_cache.stats().invalidated_runs > 0
        # Every surviving run's blocks were invalidated or never read:
        # the first post-merge sweep is cold and pays exactly the
        # historical accounting.
        assert pinned_answers(shared) == pinned_answers(plain)

    def test_warm_sweep_identical_answers_fewer_charges(self):
        shared = make_engine(shared_blocks=256)
        plain = make_engine(shared_blocks=0)
        data = batches(17, 6)
        feed(shared, data)
        feed(plain, data)
        cold = pinned_answers(shared)
        warm = pinned_answers(shared)
        replay = pinned_answers(plain)
        assert [v for v, _ in cold] == [v for v, _ in replay]
        assert [v for v, _ in warm] == [v for v, _ in replay]
        assert sum(c for _, c in warm) < sum(c for _, c in replay)

    def test_windowed_queries_also_match(self):
        shared = make_engine(shared_blocks=128)
        plain = make_engine(shared_blocks=0)
        data = batches(19, 6)
        feed(shared, data)
        feed(plain, data)
        window = shared.available_window_sizes()[-1]
        assert pinned_answers(shared, window) == pinned_answers(plain, window)


class TestBackgroundAdoptionInterleaving:
    """Accurate queries race background archiving (adoptions)."""

    def run_concurrent(self, seed):
        engine = make_engine(
            shared_blocks=128, ingest_mode="background"
        )
        data = batches(seed, 8)
        errors = []
        answers = []

        def querier():
            try:
                for _ in range(12):
                    with engine.pin() as handle:
                        if handle.n_total == 0:
                            continue
                        handle.quantile(0.5, mode="accurate")
                        handle.quantile(0.95, mode="accurate")
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        threads = [threading.Thread(target=querier) for _ in range(3)]
        for thread in threads:
            thread.start()
        feed(engine, data)
        engine.flush()
        for thread in threads:
            thread.join()
        assert not errors
        # Quiesced: the final state must answer exactly like a serial
        # replay of the same batches with the shared tier disabled.
        answers = pinned_answers(engine)
        stats = engine.shared_cache.stats()
        engine.close()
        return data, answers, stats

    def test_final_state_matches_serial_disabled_replay(self):
        data, answers, stats = self.run_concurrent(seed=23)
        plain = make_engine(shared_blocks=0)
        feed(plain, data)
        replay = pinned_answers(plain)
        assert [v for v, _ in answers] == [v for v, _ in replay]
        # Adoptions retired the per-step runs the queries raced.
        assert stats.invalidated_runs > 0

    def test_repeated_seeded_runs_are_deterministic(self):
        _, first, _ = self.run_concurrent(seed=29)
        _, second, _ = self.run_concurrent(seed=29)
        assert first == second


class TestDisabledSharedCacheRegression:
    """``shared_cache_blocks=0`` is exactly the historical accounting."""

    def test_default_config_has_no_shared_tier(self):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        assert engine.shared_cache is None

    def test_per_query_accounting_has_no_cross_query_state(self):
        engine = make_engine(shared_blocks=0)
        feed(engine, batches(31, 6))
        first = pinned_answers(engine)
        second = pinned_answers(engine)
        # Without the shared tier every query pays its own full block
        # set: repeating the sweep repeats the charges exactly.
        assert first == second

    def test_epoch_stats_cache_counters_stay_zero(self):
        engine = make_engine(shared_blocks=0)
        feed(engine, batches(37, 4))
        answers = pinned_answers(engine)
        # No tier exists to hit or miss: every block a query was
        # charged for reached the disk.
        assert engine.shared_cache is None
        assert engine.disk.stats.counters.random_reads == sum(
            accesses for _, accesses in answers
        )


class TestPrefetchIdentity:
    """Prefetching narrows I/O patterns, never answers."""

    @pytest.mark.parametrize("prefetch", [1, 4, 16])
    def test_answers_identical_with_prefetch(self, prefetch):
        shared = make_engine(shared_blocks=256, prefetch=prefetch)
        plain = make_engine(shared_blocks=0)
        data = batches(41, 6)
        feed(shared, data)
        feed(plain, data)
        with_prefetch = pinned_answers(shared)
        replay = pinned_answers(plain)
        assert [v for v, _ in with_prefetch] == [v for v, _ in replay]

    def test_prefetch_charges_are_deterministic(self):
        def sweep():
            engine = make_engine(shared_blocks=256, prefetch=4)
            feed(engine, batches(43, 6))
            cold = pinned_answers(engine)
            warm = pinned_answers(engine)
            prefetched = engine.shared_cache.stats().prefetched_blocks
            return cold, warm, prefetched

        assert sweep() == sweep()
