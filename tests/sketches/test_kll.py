"""KLL sketch: protocol, accuracy, merging, and durability.

The cluster layer leans on three properties no other backend offers
together: a principled ``merge`` (rank error of the merged sketch stays
within the larger epsilon's bound), deterministic seeded compaction
(same seed + same feed => bit-identical state, so replays and
checkpoint restores reproduce answers exactly), and the standard sketch
protocol (drop-in behind ``EngineConfig.sketch_backend = "kll"``).
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.persistence import load_engine, save_engine
from repro.persistence.serialization import dump_kll, load_kll
from repro.sketches.kll import KLLSketch, k_for_epsilon


def true_rank(sorted_values, value):
    return int(np.searchsorted(sorted_values, value, side="right"))


def state_of(sketch):
    return (
        [list(level) for level in sketch._levels],
        sketch._n,
        sketch._min,
        sketch._max,
        sketch._rng.bit_generator.state,
    )


def seeded_stream(seed, size, kind="uniform"):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.integers(0, 2**30, size=size, dtype=np.int64)
    if kind == "normal":
        return np.clip(
            np.rint(rng.normal(2**20, 2**16, size=size)), 0, 2**30
        ).astype(np.int64)
    if kind == "zipf":
        return np.minimum(
            rng.zipf(1.3, size=size).astype(np.int64), 2**30
        )
    raise ValueError(kind)


class TestProtocol:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            KLLSketch(0.0)
        with pytest.raises(ValueError):
            KLLSketch(1.5)
        with pytest.raises(ValueError):
            KLLSketch(0.01, k=1)

    def test_empty_queries_raise(self):
        sketch = KLLSketch(0.01)
        assert sketch.n == 0
        with pytest.raises(ValueError):
            sketch.query_rank(1)
        with pytest.raises(ValueError):
            sketch.min_value()
        with pytest.raises(ValueError):
            sketch.max_value()

    def test_small_stream_is_exact(self):
        sketch = KLLSketch(0.01, seed=3)
        for value in (50, 10, 40, 20, 30):
            sketch.update(value)
        assert sketch.n == 5
        assert sketch.min_value() == 10
        assert sketch.max_value() == 50
        # Nothing compacted yet: every rank answers exactly.
        assert [sketch.query_rank(r) for r in range(1, 6)] == [
            10, 20, 30, 40, 50,
        ]

    def test_rank_clamping(self):
        sketch = KLLSketch(0.01, seed=3)
        sketch.update_many(np.arange(100, dtype=np.int64))
        assert sketch.query_rank(-5) == sketch.query_rank(1)
        assert sketch.query_rank(10**9) == sketch.query_rank(100)

    def test_k_for_epsilon_monotone(self):
        ks = [k_for_epsilon(eps) for eps in (0.1, 0.05, 0.01, 0.001)]
        assert ks == sorted(ks)
        assert all(k >= 8 for k in ks)

    def test_query_ranks_matches_scalar(self):
        sketch = KLLSketch(0.02, seed=11)
        sketch.update_many(seeded_stream(1, 50_000))
        targets = np.asarray([1, 7, 500, 25_000, 49_999, 50_000])
        batch = sketch.query_ranks(targets)
        scalar = [sketch.query_rank(int(t)) for t in targets]
        assert batch.tolist() == scalar

    def test_memory_tracks_retained(self):
        sketch = KLLSketch(0.01, seed=0)
        sketch.update_many(seeded_stream(2, 200_000))
        assert sketch.retained() < 200_000 // 10
        assert sketch.memory_words() == sketch.retained() + 6


class TestDeterminism:
    def test_update_many_bit_identical_to_scalar(self):
        data = seeded_stream(17, 30_000)
        scalar = KLLSketch(0.01, seed=9)
        for value in data.tolist():
            scalar.update(value)
        chunked = KLLSketch(0.01, seed=9)
        for lo in range(0, data.size, 997):
            chunked.update_many(data[lo : lo + 997])
        one_shot = KLLSketch(0.01, seed=9)
        one_shot.update_many(data)
        assert state_of(scalar) == state_of(chunked) == state_of(one_shot)

    def test_snapshot_is_independent(self):
        sketch = KLLSketch(0.01, seed=5)
        sketch.update_many(seeded_stream(3, 10_000))
        frozen = sketch.snapshot()
        answers = [frozen.query_rank(r) for r in (1, 5_000, 10_000)]
        sketch.update_many(seeded_stream(4, 10_000))
        assert frozen.n == 10_000
        assert [
            frozen.query_rank(r) for r in (1, 5_000, 10_000)
        ] == answers
        # The snapshot continues the original RNG schedule: feeding the
        # same tail to snapshot and a fresh replay agrees bit for bit.
        replay = KLLSketch(0.01, seed=5)
        replay.update_many(seeded_stream(3, 10_000))
        replay.update_many(seeded_stream(4, 10_000))
        assert state_of(sketch) == state_of(replay)


def pinned_feed(epsilon):
    """A seeded history crossing several compactions: bulk and scalar
    feeds, a snapshot, a duplicate-heavy tail on the source, a Zipf tail
    on the snapshot, and a three-way merge at a coarser third sketch."""
    rng = np.random.default_rng(29)
    sketch = KLLSketch(epsilon, seed=7)
    for size in (1, 3, 997, 12_289, 40_000, 70_001):
        sketch.update_many(rng.integers(-(2**40), 2**40, size))
    for value in (5, -5, 2**40):
        sketch.update(value)
    frozen = sketch.snapshot()
    sketch.update_many(rng.integers(0, 64, 30_000))
    frozen.update_many(np.minimum(rng.zipf(1.3, 5_000), 2**40))
    other = KLLSketch(epsilon * 2, seed=3)
    other.update_many(rng.integers(0, 2**20, 20_000))
    merged = KLLSketch.merge_many([sketch, frozen, other], seed=11)
    return sketch, frozen, merged


class TestPinnedBits:
    """The sketch's bits are a contract across versions: coin flips,
    compaction schedule, level contents and the ``dump_kll`` format."""

    @pytest.mark.parametrize(
        "epsilon, digest",
        [
            (0.01, "b9ac4885fe6e8eaa7210aac1eddb4677b5419eb9b9fee92f5e3c3632ca410d00"),
            (1.25e-4, "fc9c99138c479f9fd1069558622608e9911017687cd94729dfad2d9159cc93e8"),
            (0.05, "b275d01e926fa75e35225bf0a9128cf749d4a0e7ca1930ee4cb6abb1e7499176"),
            (0.002, "4c86411fd2e30518d9dd0a719f4f1681d58548b3e2876be88fda179875540cd9"),
        ],
    )
    def test_dump_digest_is_pinned(self, epsilon, digest):
        dumped = b"".join(dump_kll(s) for s in pinned_feed(epsilon))
        assert hashlib.sha256(dumped).hexdigest() == digest

    def test_levels_are_int64_arrays_a_snapshot_shares(self):
        sketch, frozen, merged = pinned_feed(0.01)
        restored = load_kll(dump_kll(merged))
        for held in (sketch, frozen, merged, restored, sketch.snapshot()):
            assert len(held._levels) > 2
            for level in held._levels:
                assert isinstance(level, np.ndarray)
                assert level.dtype == np.int64
        shared = sketch.snapshot()
        assert shared._levels is not sketch._levels
        assert all(a is b for a, b in zip(shared._levels, sketch._levels))
        # A level is replaced, never written: the snapshot keeps its own.
        before = [level.copy() for level in shared._levels]
        sketch.update_many(np.arange(5_000))
        assert all(map(np.array_equal, shared._levels, before))


class TestAccuracy:
    @pytest.mark.parametrize("kind", ["uniform", "normal", "zipf"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_rank_error_within_bound(self, kind, seed):
        epsilon = 0.01
        data = seeded_stream(seed, 100_000, kind)
        sketch = KLLSketch(epsilon, seed=seed)
        sketch.update_many(data)
        srt = np.sort(data)
        n = data.size
        allowed = epsilon * n
        for rank in (1, n // 100, n // 4, n // 2, 3 * n // 4, n):
            value = sketch.query_rank(rank)
            # true rank of the returned value brackets [rank_lo, rank_hi]
            lo = int(np.searchsorted(srt, value, side="left")) + 1
            hi = int(np.searchsorted(srt, value, side="right"))
            error = 0 if lo <= rank <= hi else min(
                abs(rank - lo), abs(rank - hi)
            )
            assert error <= allowed, (kind, seed, rank, error, allowed)

    def test_rank_bounds_contain_truth(self):
        epsilon = 0.02
        data = seeded_stream(23, 50_000)
        sketch = KLLSketch(epsilon, seed=23)
        sketch.update_many(data)
        srt = np.sort(data)
        for value in np.percentile(data, [1, 25, 50, 75, 99]).astype(int):
            lower, upper = sketch.rank_bounds(int(value))
            truth = true_rank(srt, int(value))
            assert lower <= truth <= upper, (value, lower, truth, upper)


class TestMerge:
    @pytest.mark.parametrize("parts", [2, 4, 8])
    def test_merged_error_within_bound(self, parts):
        epsilon = 0.01
        data = seeded_stream(31, 120_000)
        chunks = np.array_split(data, parts)
        sketches = []
        for index, chunk in enumerate(chunks):
            sketch = KLLSketch(epsilon, seed=index)
            sketch.update_many(chunk)
            sketches.append(sketch)
        merged = KLLSketch.merge_many(sketches, seed=99)
        assert merged.n == data.size
        srt = np.sort(data)
        n = data.size
        allowed = epsilon * n
        for rank in (1, n // 10, n // 2, 9 * n // 10, n):
            value = merged.query_rank(rank)
            lo = int(np.searchsorted(srt, value, side="left")) + 1
            hi = int(np.searchsorted(srt, value, side="right"))
            error = 0 if lo <= rank <= hi else min(
                abs(rank - lo), abs(rank - hi)
            )
            assert error <= allowed, (parts, rank, error, allowed)
        assert merged.min_value() == int(srt[0])
        assert merged.max_value() == int(srt[-1])

    def test_merge_commutative_bit_exact(self):
        a = KLLSketch(0.01, seed=1)
        a.update_many(seeded_stream(41, 40_000))
        b = KLLSketch(0.01, seed=2)
        b.update_many(seeded_stream(42, 60_000, "normal"))
        ab = a.merge(b, seed=7)
        ba = b.merge(a, seed=7)
        assert state_of(ab) == state_of(ba)

    def test_merge_associative_within_bound(self):
        epsilon = 0.01
        streams = [
            seeded_stream(50 + i, 30_000, kind)
            for i, kind in enumerate(["uniform", "normal", "zipf"])
        ]
        sketches = []
        for index, stream in enumerate(streams):
            sketch = KLLSketch(epsilon, seed=index)
            sketch.update_many(stream)
            sketches.append(sketch)
        left = sketches[0].merge(sketches[1], seed=5).merge(
            sketches[2], seed=5
        )
        right = sketches[0].merge(
            sketches[1].merge(sketches[2], seed=5), seed=5
        )
        flat = KLLSketch.merge_many(sketches, seed=5)
        data = np.sort(np.concatenate(streams))
        n = data.size
        allowed = epsilon * n
        for variant in (left, right, flat):
            assert variant.n == n
            for rank in (1, n // 4, n // 2, 3 * n // 4, n):
                value = variant.query_rank(rank)
                lo = int(np.searchsorted(data, value, side="left")) + 1
                hi = int(np.searchsorted(data, value, side="right"))
                error = 0 if lo <= rank <= hi else min(
                    abs(rank - lo), abs(rank - hi)
                )
                assert error <= allowed, (rank, error, allowed)

    def test_merge_adopts_widest_epsilon(self):
        coarse = KLLSketch(0.05, seed=1)
        fine = KLLSketch(0.01, seed=2)
        coarse.update_many(seeded_stream(61, 5_000))
        fine.update_many(seeded_stream(62, 5_000))
        merged = coarse.merge(fine)
        assert merged.epsilon == 0.05

    def test_merge_with_empty_is_identity_modulo_compaction(self):
        filled = KLLSketch(0.01, seed=3)
        filled.update_many(seeded_stream(71, 20_000))
        empty = KLLSketch(0.01, seed=4)
        merged = filled.merge(empty, seed=3)
        assert merged.n == 20_000
        assert merged.min_value() == filled.min_value()
        assert merged.max_value() == filled.max_value()


class TestDurability:
    def test_round_trip_preserves_state_and_rng(self):
        sketch = KLLSketch(0.01, seed=13)
        sketch.update_many(seeded_stream(81, 50_000))
        restored = load_kll(dump_kll(sketch))
        assert state_of(restored) == state_of(sketch)
        # Post-restore ingest replays the same compaction coin flips.
        tail = seeded_stream(82, 20_000)
        sketch.update_many(tail)
        restored.update_many(tail)
        assert state_of(restored) == state_of(sketch)

    def test_engine_checkpoint_round_trip_with_kll_backend(self, tmp_path):
        config = EngineConfig(
            epsilon=0.02, block_elems=100, sketch_backend="kll"
        )
        engine = HybridQuantileEngine(config=config)
        rng = np.random.default_rng(5)
        for _ in range(3):
            engine.stream_update_many(
                rng.integers(0, 2**28, 4_000, dtype=np.int64)
            )
            engine.end_time_step()
        live = rng.integers(0, 2**28, 2_000, dtype=np.int64)
        engine.stream_update_many(live)
        save_engine(engine, tmp_path / "wh")
        restored = load_engine(tmp_path / "wh")
        assert restored.config.sketch_backend == "kll"
        assert restored.m_stream == engine.m_stream
        for phi in (0.1, 0.5, 0.9):
            for mode in ("quick", "accurate"):
                assert (
                    restored.quantile(phi, mode=mode).value
                    == engine.quantile(phi, mode=mode).value
                ), (phi, mode)
        engine.close()
        restored.close()
