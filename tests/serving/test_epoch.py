"""Epoch registry and pinned snapshot-handle semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EpochRegistry

from .conftest import build_filled_engine


class TestEpochRegistry:
    def test_bump_reasons_counted_separately(self):
        registry = EpochRegistry()
        assert registry.current == 0
        registry.bump("seal")
        registry.bump("seal")
        registry.bump("adopt")
        stats = registry.stats()
        assert stats.current_epoch == 3
        assert stats.seal_bumps == 2
        assert stats.adopt_bumps == 1

    def test_pin_release_refcounts(self):
        registry = EpochRegistry()
        registry.pin(0)
        registry.pin(0)
        stats = registry.stats()
        assert stats.live_pins == 2
        assert stats.peak_pins == 2
        registry.release(0)
        registry.release(0)
        stats = registry.stats()
        assert stats.live_pins == 0
        # Epoch 0 is still current, so it is not retired.
        assert stats.epochs_retired == 0

    def test_stale_epoch_retires_when_last_pin_releases(self):
        registry = EpochRegistry()
        registry.pin(0)
        registry.bump("seal")
        assert registry.stats().epochs_retired == 0
        registry.release(0)
        assert registry.stats().epochs_retired == 1

    def test_ts_merges_counter(self):
        registry = EpochRegistry()
        registry.note_ts_merge()
        registry.note_ts_merge()
        assert registry.stats().ts_merges == 2


class TestEngineEpochs:
    def test_seal_bumps_epoch(self):
        engine = build_filled_engine(steps=3, live=0)
        try:
            stats = engine.epoch_stats
            assert stats.seal_bumps == 3
            assert stats.current_epoch == 3
        finally:
            engine.close()

    def test_background_adoption_bumps_epoch(self):
        engine = build_filled_engine(
            steps=3, live=0, ingest_mode="background"
        )
        try:
            stats = engine.epoch_stats
            assert stats.seal_bumps == 3
            assert stats.adopt_bumps == 3
        finally:
            engine.close()

    def test_stream_updates_do_not_bump_epoch(self):
        engine = build_filled_engine(steps=2, live=0)
        try:
            before = engine.epoch_stats.current_epoch
            engine.stream_update_many(np.arange(100, dtype=np.int64))
            assert engine.epoch_stats.current_epoch == before
        finally:
            engine.close()


class TestSnapshotHandle:
    def test_pinned_view_is_frozen_under_ingest(self, filled_engine):
        rng = np.random.default_rng(5)
        with filled_engine.pin() as handle:
            n_before = handle.n_total
            value_before = handle.quantile(0.5, mode="quick").value
            filled_engine.stream_update_many(
                rng.integers(0, 1_000_000, 2000, dtype=np.int64)
            )
            filled_engine.end_time_step()
            # The pinned handle still answers from its frozen view.
            assert handle.n_total == n_before
            assert handle.quantile(0.5, mode="quick").value == value_before
        with filled_engine.pin() as fresh:
            assert fresh.n_total == n_before + 2000
            assert fresh.epoch > handle.epoch

    def test_full_scope_merge_is_cached(self, filled_engine):
        with filled_engine.pin() as handle:
            handle.quantile_many((0.25, 0.5, 0.75), mode="quick")
            handle.quantile(0.9, mode="quick")
            assert handle.ts_merges_built == 1
            # A window scope needs its own merge.
            handle.quantile(0.5, mode="quick", window_steps=1)
            assert handle.ts_merges_built == 2

    def test_quantile_many_matches_per_phi_quick(self, filled_engine):
        phis = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        with filled_engine.pin() as handle:
            batch = handle.quantile_many(phis, mode="quick")
            singles = [
                handle.quantile(phi, mode="quick") for phi in phis
            ]
        for got, want in zip(batch, singles):
            assert got.value == want.value
            assert got.target_rank == want.target_rank
            assert got.total_size == want.total_size

    def test_released_handle_still_answers(self, filled_engine):
        handle = filled_engine.pin()
        value = handle.quantile(0.5, mode="quick").value
        handle.release()
        assert handle.released
        assert handle.quantile(0.5, mode="quick").value == value
        # Idempotent: a second release must not double-decrement.
        handle.release()
        assert filled_engine.epoch_stats.live_pins == 0

    def test_empty_engine_rejects_queries(self):
        engine = build_filled_engine(steps=0, live=0)
        try:
            with engine.pin() as handle:
                with pytest.raises(ValueError):
                    handle.quantile(0.5)
                with pytest.raises(ValueError):
                    handle.quantile_many([0.5])
        finally:
            engine.close()

    def test_invalid_mode_rejected(self, filled_engine):
        with filled_engine.pin() as handle:
            with pytest.raises(ValueError):
                handle.quantile(0.5, mode="fast")
            with pytest.raises(ValueError):
                handle.quantile_many([0.5], mode="fast")
