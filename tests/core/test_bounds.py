"""Property tests for TS and the Lemma 2 rank bounds."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, HybridQuantileEngine
from repro.core.bounds import CombinedSummary, HistoricalSummary
from repro.core.epoch import HistoricalMemo
from repro.core.summaries import PartitionSummary, StreamSummary
from repro.persistence import load_engine, save_engine
from repro.sketches import GKSketch
from repro.storage import SimulatedDisk, SortedRun
from repro.warehouse import Partition


def build_scene(partition_datas, stream_data, eps1=0.25, eps2=0.125):
    """Construct summaries plus the flattened exact dataset."""
    disk = SimulatedDisk(block_elems=8)
    summaries = []
    for data in partition_datas:
        run = SortedRun(disk, np.sort(np.asarray(data, dtype=np.int64)))
        p = Partition(level=0, start_step=1, end_step=1, run=run)
        summaries.append(PartitionSummary.build(p, eps1))
    gk = GKSketch(eps2 / 2.0)
    stream = np.asarray(stream_data, dtype=np.int64)
    if stream.size:
        gk.update_many(stream)
    ss = StreamSummary.extract(gk, eps2)
    combined = CombinedSummary.build(summaries, ss)
    everything = np.sort(
        np.concatenate(
            [np.asarray(d, dtype=np.int64) for d in partition_datas]
            + [stream]
        )
    )
    return combined, everything


class TestCombinedSummary:
    def test_empty_everything_raises(self):
        with pytest.raises(ValueError):
            build_scene([], [])

    def test_total_size(self):
        combined, everything = build_scene(
            [range(100), range(50)], range(200)
        )
        assert combined.total_size == len(everything) == 350

    def test_values_sorted(self):
        combined, _ = build_scene([range(100)], range(50, 150))
        assert np.all(np.diff(combined.values) >= 0)

    def test_bounds_monotone(self):
        combined, _ = build_scene(
            [range(100), range(200, 300)], range(150, 250)
        )
        assert np.all(np.diff(combined.lower) >= -1e-9)
        assert np.all(np.diff(combined.upper) >= -1e-9)

    def test_stream_only(self):
        combined, everything = build_scene([], range(1000))
        assert combined.total_size == 1000
        assert combined.from_stream.all()

    def test_historical_only(self):
        combined, everything = build_scene([range(1000)], [])
        assert combined.total_size == 1000
        assert not combined.from_stream.any()

    def test_lemma2_gap_bound(self):
        """Lemma 2 part 2: U_i - L_i <= eps * N with eps = 2*eps1 = 4*eps2."""
        rng = np.random.default_rng(0)
        parts = [rng.integers(0, 10**6, 700) for _ in range(3)]
        stream = rng.integers(0, 10**6, 700)
        eps1, eps2 = 0.25, 0.125
        combined, everything = build_scene(parts, stream, eps1, eps2)
        epsilon = max(2 * eps1, 4 * eps2)
        gaps = combined.upper - combined.lower
        assert gaps.max() <= epsilon * combined.total_size + 1e-6


class TestFilters:
    def test_filters_bracket_rank(self):
        rng = np.random.default_rng(1)
        parts = [rng.integers(0, 10**6, 500) for _ in range(2)]
        stream = rng.integers(0, 10**6, 400)
        combined, everything = build_scene(parts, stream)
        for r in (1, 10, 350, 700, 1400):
            u, v = combined.generate_filters(r)
            rank_u = int(np.searchsorted(everything, u, side="right"))
            rank_v = int(np.searchsorted(everything, v, side="right"))
            assert rank_u <= r <= rank_v, (r, u, v, rank_u, rank_v)

    def test_filter_gap_bound(self):
        """Lemma 4: rank(v) - rank(u) < 4 eps N."""
        rng = np.random.default_rng(2)
        parts = [rng.integers(0, 10**6, 600) for _ in range(3)]
        stream = rng.integers(0, 10**6, 600)
        eps1, eps2 = 0.25, 0.125
        combined, everything = build_scene(parts, stream, eps1, eps2)
        epsilon = max(2 * eps1, 4 * eps2)
        for r in range(1, combined.total_size, 97):
            u, v = combined.generate_filters(r)
            rank_u = int(np.searchsorted(everything, u, side="right"))
            rank_v = int(np.searchsorted(everything, v, side="right"))
            assert rank_v - rank_u <= 4 * epsilon * combined.total_size + 1


class TestBoundsProperty:
    @given(
        parts=st.lists(
            st.lists(st.integers(0, 10**5), min_size=1, max_size=150),
            min_size=0,
            max_size=3,
        ),
        stream=st.lists(st.integers(0, 10**5), min_size=0, max_size=150),
        r_fraction=st.floats(0.01, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_lemma2_bracketing(self, parts, stream, r_fraction):
        """L_i <= rank(TS[i], T) <= U_i for every TS element."""
        if not parts and not stream:
            return
        combined, everything = build_scene(parts, stream, 0.25, 0.125)
        for value, lo, up in zip(
            combined.values, combined.lower, combined.upper
        ):
            true = int(np.searchsorted(everything, value, side="right"))
            assert lo <= true + 1e-9
            assert true <= up + 1e-9
        r = max(1, int(r_fraction * combined.total_size))
        u, v = combined.generate_filters(r)
        rank_u = int(np.searchsorted(everything, u, side="right"))
        rank_v = int(np.searchsorted(everything, v, side="right"))
        assert rank_u <= r <= rank_v


# ---------------------------------------------------------------------
# TS = HS half (per partition set) (+) SS half (per query)
# ---------------------------------------------------------------------

TS_FIELDS = ("values", "from_stream", "lower", "upper")


def reference_ts(partition_summaries, stream_summaries):
    """Lemma 2 one element at a time: the reference ``build`` must equal.

    Plain python over partitions and stream summaries, every float
    added in the order the paper's sums are written (partitions in
    order, then stream summaries in order), so the comparison is
    ``np.array_equal``, not ``allclose``.
    """
    histories = [s for s in partition_summaries if len(s) > 0]
    elements = []  # (value, 0 = stream first on ties, stream index)
    for summary in histories:
        elements += [(int(v), 1, -1) for v in summary.values]
    for k, ss in enumerate(stream_summaries):
        if ss.stream_size > 0:
            elements += [(int(v), 0, k) for v in ss.values]
    elements.sort()
    lower, upper = [], []
    for value, _, origin in elements:
        low = up = 0.0
        for summary in histories:
            alpha = sum(1 for x in summary.values if x <= value)
            if alpha == 0:
                continue
            size = summary.partition_size
            scale = summary.eps1 * size
            paper = min((alpha - 1) * scale, size)
            if scale <= 1:
                paper = max(paper, int(summary.positions[alpha - 1]))
            low += paper
            exact_next = (
                int(summary.positions[alpha]) - 1
                if alpha < len(summary.positions)
                else size
            )
            up += max(alpha * scale, exact_next)
        for k, ss in enumerate(stream_summaries):
            m = ss.stream_size
            alpha = sum(1 for x in ss.values if x <= value) if m > 0 else 0
            if alpha == 0:
                continue
            scale = ss.eps2 * m
            low += min((alpha - 1) * scale, m)
            if ss.strict_uppers is not None:
                up += float(
                    ss.strict_uppers[alpha] if alpha < len(ss.values) else m
                )
            else:
                up += (alpha if origin == k else alpha + 1) * scale
        lower.append(low)
        upper.append(up)
    return SimpleNamespace(
        values=np.asarray([e[0] for e in elements], dtype=np.int64),
        from_stream=np.asarray([e[1] == 0 for e in elements], dtype=bool),
        lower=np.asarray(lower, dtype=np.float64),
        upper=np.asarray(upper, dtype=np.float64),
        total_size=sum(s.partition_size for s in histories)
        + sum(ss.stream_size for ss in stream_summaries),
    )


def partition_summary_of(data, eps1):
    if not data:
        empty = np.empty(0, dtype=np.int64)
        return PartitionSummary(empty, empty.copy(), 0, eps1)
    run = SortedRun(
        SimulatedDisk(block_elems=8), np.sort(np.asarray(data, np.int64))
    )
    return PartitionSummary.build(
        Partition(level=0, start_step=1, end_step=1, run=run), eps1
    )


def stream_summary_of(data, eps2, strict):
    stream = np.asarray(data, dtype=np.int64)
    if strict or not stream.size:
        gk = GKSketch(eps2 / 2.0)
        if stream.size:
            gk.update_many(stream)
        return StreamSummary.extract(gk, eps2)
    # No brackets: a hand-built summary, as in the Figure 3 example.
    ranks = np.minimum(
        stream.size - 1, np.arange(int(1 / eps2) + 1) * eps2 * stream.size
    ).astype(np.int64)
    return StreamSummary(np.sort(stream)[ranks], int(stream.size), eps2)


def assert_same_ts(built, expected):
    for name in TS_FIELDS:
        got, want = getattr(built, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert built.total_size == expected.total_size


# Universe of 8 values: HS/HS, HS/SS and SS/SS ties in every case.
small_values = st.lists(st.integers(0, 7), min_size=0, max_size=40)


class TestHistoricalSplit:
    @given(
        parts=st.lists(small_values, min_size=0, max_size=6),
        stream=small_values,
        strict=st.booleans(),
        split=st.integers(0, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_scalar_lemma2(
        self, parts, stream, strict, split
    ):
        """eps1 = 1/4: partitions of up to 4 elements are tiny ones."""
        if not any(parts) and not stream:
            return
        summaries = [partition_summary_of(p, 0.25) for p in parts]
        ss = stream_summary_of(stream, 0.125, strict)
        expected = reference_ts(summaries, [ss])

        folded = HistoricalSummary.fold(summaries)
        grown = HistoricalSummary.fold(summaries[:split])
        for summary in summaries[split:]:
            grown = grown.extended(summary)
        for name in ("values", "lower", "upper"):
            assert np.array_equal(getattr(grown, name), getattr(folded, name))
        assert grown.total_size == folded.total_size

        # From scratch; through a memo that folds the set; through one
        # that grows it from a memoised prefix; and that one's retained
        # TS, handed the same stream summary objects again.
        folding, growing = HistoricalMemo(), HistoricalMemo()
        other = stream_summary_of([3], 0.125, strict)
        CombinedSummary.build(summaries[:split], other, growing)
        for memo in (None, folding, growing, growing, folding):
            assert_same_ts(CombinedSummary.build(summaries, ss, memo), expected)
        assert (folding.reuses, growing.reuses) == (1, 1)

    @given(
        parts=st.lists(
            st.tuples(
                st.lists(st.integers(0, 15), max_size=60),
                # Non-dyadic shares, so float sums depend on their order;
                # a partition of at most 1/eps1 elements is a tiny one.
                st.sampled_from([0.03, 0.1, 0.3]),
            ),
            max_size=8,
        ),
        split=st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_grouped_extension_is_one_at_a_time(self, parts, split):
        """Empty, tiny and tied partitions: ``extended(*s)`` takes every
        partition in one merge and yields the one-at-a-time bits."""
        summaries = [partition_summary_of(data, eps1) for data, eps1 in parts]
        folded = HistoricalSummary.fold(summaries)
        single = HistoricalSummary.fold(())
        for summary in summaries:
            single = single.extended(summary)
        grouped = HistoricalSummary.fold(summaries[:split]).extended(
            *summaries[split:]
        )
        for grown in (single, grouped):
            for name in ("values", "lower", "upper"):
                assert np.array_equal(getattr(grown, name), getattr(folded, name))
            assert grown.total_size == folded.total_size

    def test_build_does_not_alias_the_memoised_arrays(self):
        """Even with no stream entries to insert, TS gets its own arrays."""
        summaries = [partition_summary_of(list(range(50)), 0.25)]
        memo = HistoricalMemo()
        ss = stream_summary_of([], 0.125, strict=True)
        built = CombinedSummary.build(summaries, ss, memo)
        (entry,) = memo._entries.values()
        for name in ("values", "lower", "upper"):
            assert not np.shares_memory(
                getattr(built, name), getattr(entry.historical, name)
            )


def by_the_arrays(ts, rank):
    """Algorithms 5 and 7 as one ``searchsorted`` over materialised TS."""
    j = int(np.searchsorted(ts.lower, rank, side="left"))
    quick = int(ts.values[min(j, len(ts.values) - 1)])
    x = int(np.searchsorted(ts.upper, rank, side="right")) - 1
    u = int(ts.values[x]) if x >= 0 else int(ts.values[0]) - 1
    y = int(np.searchsorted(ts.lower, rank, side="left"))
    v = int(ts.values[y]) if y < len(ts.values) else int(ts.values[-1])
    return quick, ((v, u) if v < u else (u, v))


def assert_searched_as_the_arrays(ts):
    """Every door, at every rank where some slot's bound could flip."""
    bounds = np.rint(np.concatenate((ts.lower, ts.upper))).astype(np.int64)
    n = ts.total_size
    ranks = sorted(
        {-1, 0, 1, n - 1, n, n + 1}
        | {int(b) + step for b in bounds for step in (-1, 0, 1)}
    )
    expected = [by_the_arrays(ts, rank) for rank in ranks]
    assert [ts.quick_response(rank) for rank in ranks] == [
        quick for quick, _ in expected
    ]
    for batch in (ranks, ranks[:1], []):
        answers = ts.quick_responses(np.asarray(batch, dtype=np.int64))
        assert answers.dtype == np.int64
        assert answers.tolist() == [by_the_arrays(ts, r)[0] for r in batch]
    # Both bounds ascend, so a binary search over either is defined.
    assert np.all(np.diff(ts.lower) >= 0) and np.all(np.diff(ts.upper) >= 0)
    for rank, (_, filters) in zip(ranks, expected):
        assert ts.generate_filters(rank) == filters


class TestSearchedNotBuilt:
    """The doors search HS and the SS entries; the arrays are the spec."""

    @given(
        parts=st.lists(small_values, min_size=0, max_size=6),
        stream=small_values,
        strict=st.booleans(),
        split=st.integers(0, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_searched_answers_are_the_arrays_answers(
        self, parts, stream, strict, split
    ):
        """Empty HS, empty SS, brackets and the Lemma 1 coefficient,
        ties inside SS, inside HS and across both — from scratch and
        off a memo grown from a prefix."""
        if not any(parts) and not stream:
            return
        summaries = [partition_summary_of(p, 0.25) for p in parts]
        ss = stream_summary_of(stream, 0.125, strict)
        memo = HistoricalMemo()
        CombinedSummary.build(
            summaries[:split], stream_summary_of([3], 0.125, strict), memo
        )
        for built in (
            CombinedSummary.build(summaries, ss),
            CombinedSummary.build(summaries, ss, memo),
        ):
            assert_searched_as_the_arrays(built)

    def test_rounding_in_the_shortcut_cannot_pick_another_slot(self):
        """An HS slot whose bound is 88.2 + 496.79999999999995 = 585.0:
        ``L >= 585`` holds, yet 585 - 496.79999999999995 is *above*
        88.2, so looking the rank minus the term up in the memoised
        share would pick the next slot; the slot's own sum decides."""
        summary = partition_summary_of(list(range(0, 2100, 10)), 0.02)
        ss = StreamSummary(
            np.concatenate((np.arange(49), 1000 + np.arange(52))), 1035, 0.01
        )
        ts = CombinedSummary.build([summary], ss)
        base, term, _ = ts.lower_tables
        slot = int(np.searchsorted(ts.historical.values, 880))
        assert (base[slot], term[49]) == (88.2, 496.79999999999995)
        assert base[slot] + term[49] == 585.0
        assert base[slot] < 585 - term[49]
        assert ts.quick_response(585) == 880
        assert ts.generate_filters(585)[1] == 880
        assert_searched_as_the_arrays(ts)

    def make_engine(self):
        engine = HybridQuantileEngine(
            config=EngineConfig(epsilon=0.013, kappa=3, block_elems=16)
        )
        rng = np.random.default_rng(23)
        for step in range(7):
            # Every other step is duplicate-heavy: ties across HS and SS.
            draw = rng.zipf(1.3, 900 + 37 * step) if step % 2 else (
                rng.integers(0, 5000, 900 + 37 * step)
            )
            engine.stream_update_many(np.minimum(draw, 5000))
            if step < 6:
                engine.end_time_step()
        return engine

    def test_every_scope_of_a_pinned_engine(self):
        with self.make_engine() as engine, engine.pin() as handle:
            full = handle.combined()
            assert len(full.entries) > 0 and len(full.historical) > 0
            assert_searched_as_the_arrays(full)
            for window in engine.available_window_sizes():
                assert_searched_as_the_arrays(
                    handle.combined(window_steps=window)
                )
            # No live stream in a step range: k = 0, one gap = all of HS.
            ranged = handle.combined(step_range=(1, 5))
            assert len(ranged.entries) == 0
            assert ranged.gaps.tolist() == [0, len(ranged.historical)]
            assert_searched_as_the_arrays(ranged)

    def test_stream_only_fresh_engine(self):
        with HybridQuantileEngine(
            config=EngineConfig(epsilon=0.013)
        ) as engine:
            engine.stream_update_many(
                np.random.default_rng(3).integers(0, 50, 777)
            )
            with engine.pin() as handle:
                ts = handle.combined()
                assert len(ts.historical) == 0 and len(ts) == len(ts.entries)
                assert_searched_as_the_arrays(ts)


class TestTinyPartitions:
    """A partition shorter than 1/eps1 stores every element.

    ``alpha_P`` then counts elements, the paper's ``(alpha - 1) * eps1
    * m_P`` undercounts their rank by up to ``(1 - eps1 * m_P) * alpha``
    and Algorithm 5 overshoots; the stored exact rank is the bound.
    """

    def test_lower_is_the_stored_exact_rank(self):
        summary = partition_summary_of([10, 20, 30], 0.25)
        assert list(summary.positions) == [1, 2, 3]
        ss = stream_summary_of([], 0.125, strict=True)
        combined = CombinedSummary.build([summary], ss)
        assert list(combined.lower) == [1.0, 2.0, 3.0]
        assert list(combined.upper) == [1.0, 2.0, 3.0]

    def test_larger_partitions_keep_the_paper_formula(self):
        summary = partition_summary_of(list(range(100)), 0.25)
        ss = stream_summary_of([], 0.125, strict=True)
        combined = CombinedSummary.build([summary], ss)
        assert list(combined.lower) == [0.0, 25.0, 50.0, 75.0, 100.0]


def assert_memoless(handle, window_steps=None, step_range=None):
    """``handle.combined`` equals a build that never saw the memo."""
    partitions, ss = handle.scope(window_steps, step_range)
    assert_same_ts(
        handle.combined(window_steps, step_range),
        CombinedSummary.build(
            [p.summary for p in partitions if len(p) > 0], ss
        ),
    )


class TestHistoricalMemo:
    """Keyed by run ids: every change of scope is just another key."""

    def make(self, **overrides):
        config = dict(epsilon=0.05, kappa=2, block_elems=16)
        config.update(overrides)
        engine = HybridQuantileEngine(config=EngineConfig(**config))
        self.rng = np.random.default_rng(17)
        return engine

    def step(self, engine, size=300, seal=True):
        engine.stream_update_many(self.rng.integers(0, 10**6, size))
        if seal:
            engine.end_time_step()

    def test_seal_extends_and_cascade_merge_rebuilds(self):
        with self.make() as engine:
            self.step(engine)
            self.step(engine, seal=False)
            with engine.pin() as handle:
                assert_memoless(handle)
            assert engine.epoch_stats.hs_builds == 1
            engine.end_time_step()  # one more partition: a prefix + 1
            self.step(engine, seal=False)
            with engine.pin() as handle:
                assert_memoless(handle)
            stats = engine.epoch_stats
            assert (stats.hs_builds, stats.hs_extends) == (1, 1)
            # kappa = 2: the third seal merges the two older partitions
            # into a new run, so no memoised prefix survives
            engine.end_time_step()
            assert [len(p) for p in engine.store.partitions()] == [600, 300]
            self.step(engine, seal=False)
            with engine.pin() as handle:
                assert_memoless(handle)
            stats = engine.epoch_stats
            assert (stats.hs_builds, stats.hs_extends) == (2, 1)
            engine.check_invariants()

    def test_same_partition_set_is_built_once_across_pins(self):
        with self.make() as engine:
            for _ in range(2):
                self.step(engine)
            for _ in range(5):
                self.step(engine, size=50, seal=False)
                with engine.pin() as handle:
                    assert_memoless(handle)
            stats = engine.epoch_stats
            assert stats.ts_merges == 5
            assert (stats.hs_builds, stats.hs_extends) == (1, 0)

    def test_nothing_is_built_on_the_seal_path(self):
        with self.make() as engine:
            for _ in range(7):
                self.step(engine)
            stats = engine.epoch_stats
            assert (stats.hs_builds, stats.hs_extends) == (0, 0)

    def test_window_and_step_range_scopes(self):
        with self.make() as engine:
            for _ in range(5):
                self.step(engine)
            self.step(engine, seal=False)
            with engine.pin() as handle:
                assert_memoless(handle)
                for window in engine.available_window_sizes():
                    assert_memoless(handle, window_steps=window)
                assert_memoless(handle, step_range=(1, 4))
                assert_memoless(handle, step_range=(5, 5))
            engine.check_invariants()

    def test_handle_pinned_before_a_merge_and_queried_after(self):
        with self.make() as engine:
            for _ in range(2):
                self.step(engine)
            self.step(engine, seal=False)
            with engine.pin() as old:
                engine.end_time_step()  # merges both pinned partitions
                self.step(engine, seal=False)
                with engine.pin() as new:
                    assert_memoless(new)
                    assert [len(p) for p in new.partitions] == [600, 300]
                assert [len(p) for p in old.partitions] == [300, 300]
                assert_memoless(old)
            engine.check_invariants()

    def test_background_pending_batches(self):
        with self.make(ingest_mode="background") as engine:
            for _ in range(2):
                self.step(engine)
            engine.flush()
            with engine.pin() as handle:
                assert_memoless(handle)
            engine._ensure_archiver().pause()
            try:
                for _ in range(2):
                    self.step(engine)
                self.step(engine, seal=False)
                with engine.pin() as handle:
                    assert len(handle.partitions) == 4
                    assert_memoless(handle)
            finally:
                engine._ensure_archiver().resume()
            engine.flush()
            with engine.pin() as handle:
                assert_memoless(handle)
            engine.check_invariants()

    def test_checkpoint_restore(self, tmp_path):
        with self.make() as engine:
            for _ in range(2):
                self.step(engine)
            self.step(engine, seal=False)
            with engine.pin() as handle:
                before = handle.combined()
            save_engine(engine, tmp_path / "ckpt")
        with load_engine(tmp_path / "ckpt") as restored:
            with restored.pin() as handle:
                assert_memoless(handle)
                assert_same_ts(handle.combined(), before)
            assert restored.epoch_stats.hs_builds == 1
            restored.check_invariants()

    def test_lru_keeps_a_handful_of_sets(self):
        with self.make(kappa=10) as engine:
            for _ in range(8):
                self.step(engine)
            with engine.pin() as handle:
                for window in engine.available_window_sizes():
                    assert_memoless(handle, window_steps=window)
            memo = engine._historical_memo
            assert len(memo._entries) == memo.CAPACITY
            engine.check_invariants()

    def test_check_invariants_catches_a_stale_entry(self, half="historical"):
        with self.make() as engine:
            self.step(engine)
            with engine.pin() as handle:
                handle.combined()
            (entry,) = engine._historical_memo._entries.values()
            getattr(entry, half).lower[0] += 1.0
            with pytest.raises(AssertionError):
                engine.check_invariants()

    def test_check_invariants_catches_a_stale_retained_ts(self):
        self.test_check_invariants_catches_a_stale_entry(half="combined")

    def test_check_invariants_leaves_the_retained_ts_unbuilt(self):
        """The health probe runs it every tick: it may not hang the four
        |TS| arrays on a TS the doors have kept to its tables."""
        with self.make() as engine:
            self.step(engine)
            self.step(engine, seal=False)
            with engine.pin() as handle:
                ts = handle.combined()
            engine.check_invariants()
            assert "_arrays" not in vars(ts)
            *_, newest = engine._historical_memo._entries.values()
            assert newest.combined is ts

    def test_concurrent_queries_share_one_build(self):
        with self.make() as engine:
            for _ in range(2):
                self.step(engine)
            self.step(engine, seal=False)
            answers = []

            def query():
                answers.append(engine.quantile(0.5, mode="quick").value)

            threads = [threading.Thread(target=query) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(set(answers)) == 1 and len(answers) == 8
            assert engine.epoch_stats.hs_builds == 1
