"""Tests for the hybrid heavy-hitters engine."""

import numpy as np
import pytest

from repro.frequent import HeavyHittersEngine


def planted_workload(rng, heavy_values, heavy_share, size):
    """A batch where each heavy value takes ``heavy_share`` of traffic."""
    heavy_total = int(heavy_share * size) * len(heavy_values)
    noise = rng.integers(10**6, 10**9, size - heavy_total)
    planted = np.repeat(
        np.asarray(heavy_values, dtype=np.int64), int(heavy_share * size)
    )
    combined = np.concatenate([noise, planted])
    rng.shuffle(combined)
    return combined


def build(rng, heavy_values=(111, 222), heavy_share=0.1, steps=5,
          batch=2000, epsilon=0.02):
    engine = HeavyHittersEngine(epsilon=epsilon, kappa=3, block_elems=16)
    all_data = []
    for _ in range(steps):
        data = planted_workload(rng, heavy_values, heavy_share, batch)
        all_data.append(data)
        engine.stream_update_many(data)
        engine.end_time_step()
    live = planted_workload(rng, heavy_values, heavy_share, batch)
    all_data.append(live)
    engine.stream_update_many(live)
    return engine, np.concatenate(all_data)


class TestHeavyHitters:
    def test_recall_of_planted_values(self, rng):
        engine, data = build(rng)
        report = engine.heavy_hitters(phi=0.05)
        found = {h.value for h in report.hitters}
        assert {111, 222} <= found

    def test_no_false_positives_below_slack(self, rng):
        engine, data = build(rng)
        phi = 0.05
        report = engine.heavy_hitters(phi)
        slack = engine.config.epsilon2 * engine.m_stream + 1
        for hitter in report.hitters:
            true = int(np.sum(data == hitter.value))
            assert true >= phi * len(data) - slack, (hitter, true)

    def test_count_brackets_contain_truth(self, rng):
        engine, data = build(rng)
        report = engine.heavy_hitters(phi=0.05)
        for hitter in report.hitters:
            true = int(np.sum(data == hitter.value))
            assert hitter.count_low <= true <= hitter.count_high

    def test_bracket_width_is_stream_bounded(self, rng):
        engine, data = build(rng)
        report = engine.heavy_hitters(phi=0.05)
        width_bound = engine.config.epsilon2 * engine.m_stream + 1
        for hitter in report.hitters:
            assert hitter.count_high - hitter.count_low <= width_bound

    def test_disk_accesses_counted(self, rng):
        engine, _ = build(rng)
        report = engine.heavy_hitters(phi=0.05)
        assert report.disk_accesses > 0
        assert report.candidates_checked > 0

    def test_probes_charge_to_query_inside_the_callers_phase(self, rng):
        engine, _ = build(rng)
        stats = engine.disk.stats
        before = stats.query.snapshot()
        with stats.phase_scope("sort"):
            report = engine.heavy_hitters(phi=0.05)
            assert stats.current_phase == "sort"
        charged = stats.query.delta_since(before)
        assert charged.random_reads == report.disk_accesses > 0

    def test_stream_only(self, rng):
        engine = HeavyHittersEngine(epsilon=0.02, kappa=3, block_elems=16)
        data = planted_workload(rng, (42,), 0.2, 3000)
        engine.stream_update_many(data)
        report = engine.heavy_hitters(phi=0.1)
        assert 42 in {h.value for h in report.hitters}
        assert report.disk_accesses == 0

    def test_historical_only(self, rng):
        engine = HeavyHittersEngine(epsilon=0.02, kappa=3, block_elems=16)
        data = planted_workload(rng, (42,), 0.2, 3000)
        engine.stream_update_many(data)
        engine.end_time_step()
        report = engine.heavy_hitters(phi=0.1)
        hitters = {h.value: h for h in report.hitters}
        assert 42 in hitters
        # historical counts are exact
        true = int(np.sum(data == 42))
        assert hitters[42].count_low == hitters[42].count_high == true

    def test_phi_validation(self, rng):
        engine, _ = build(rng)
        with pytest.raises(ValueError):
            engine.heavy_hitters(0.0)

    def test_ordering_by_count(self, rng):
        engine = HeavyHittersEngine(epsilon=0.02, kappa=3, block_elems=16)
        data = np.concatenate(
            [np.full(500, 7), np.full(300, 9),
             np.random.default_rng(3).integers(100, 10**6, 1200)]
        )
        engine.stream_update_many(data)
        engine.end_time_step()
        report = engine.heavy_hitters(phi=0.1)
        assert [h.value for h in report.hitters[:2]] == [7, 9]

    def test_memory_far_below_data(self, rng):
        engine, data = build(rng)
        assert engine.memory_words() < len(data) / 4

    def test_beats_pure_streaming_mg(self, rng):
        """Hybrid counts are stream-bounded; a pure-stream MG at equal
        memory undercounts by eps * N."""
        from repro.frequent import MisraGriesSketch

        engine, data = build(rng, steps=8, batch=3000)
        pure = MisraGriesSketch(
            max(1, engine.memory_words() // 2)  # generous equal memory
        )
        pure.update_many(data)
        report = engine.heavy_hitters(phi=0.05)
        hybrid = {h.value: h for h in report.hitters}
        for value in (111, 222):
            true = int(np.sum(data == value))
            hybrid_err = max(
                hybrid[value].count_high - true,
                true - hybrid[value].count_low,
            )
            pure_err = true - pure.estimate(value)
            assert hybrid_err <= max(pure_err, hybrid_err)  # sanity
            assert hybrid_err <= engine.config.epsilon2 * engine.m_stream + 1
