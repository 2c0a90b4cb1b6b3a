"""Tests for the strawman (always fully sorted) baseline."""

import numpy as np

from repro import ExactQuantiles, StrawmanEngine


def run_strawman(rng, epsilon=0.05, steps=4, batch=1500):
    engine = StrawmanEngine(epsilon=epsilon, block_elems=10)
    oracle = ExactQuantiles()
    for _ in range(steps):
        data = rng.integers(0, 10**6, batch)
        engine.stream_update_many(data)
        oracle.update_many(data)
        engine.end_time_step()
    live = rng.integers(0, 10**6, batch)
    engine.stream_update_many(live)
    oracle.update_many(live)
    return engine, oracle


class TestStrawman:
    def test_accuracy_matches_hybrid_guarantee(self, rng):
        epsilon = 0.05
        engine, oracle = run_strawman(rng, epsilon)
        for phi in (0.1, 0.5, 0.9):
            result = engine.quantile(phi)
            high = oracle.rank(result.value)
            low = oracle.rank_strict(result.value) + 1
            err = max(0, low - result.target_rank, result.target_rank - high)
            assert err <= 1.5 * epsilon * engine.m_stream + 2

    def test_single_sorted_partition(self, rng):
        engine, _ = run_strawman(rng)
        assert engine.n_historical == 4 * 1500
        values = engine._partition.run.values
        assert np.all(np.diff(values) >= 0)

    def test_update_io_grows_linearly(self, rng):
        """Each step rewrites all history: the strawman's weakness."""
        engine = StrawmanEngine(epsilon=0.05, block_elems=10)
        totals = []
        for _ in range(5):
            engine.stream_update_many(rng.integers(0, 100, 1000))
            totals.append(engine.end_time_step().io_total)
        # first step: write 100 blocks; step k: read (k-1)*100 + write k*100
        assert totals[0] == 100
        assert totals[1] == 100 + 200
        assert totals[4] == 400 + 500
        assert totals == sorted(totals)

    def test_update_io_exceeds_hybrid(self, rng):
        from repro import HybridQuantileEngine

        strawman = StrawmanEngine(epsilon=0.05, block_elems=10)
        hybrid = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=10)
        strawman_io = 0
        hybrid_io = 0
        for _ in range(10):
            data = rng.integers(0, 10**6, 1000)
            strawman.stream_update_many(data)
            hybrid.stream_update_many(data)
            strawman_io += strawman.end_time_step().io_total
            hybrid_io += hybrid.end_time_step().io_total
        assert strawman_io > hybrid_io

    def test_query_uses_few_disk_accesses(self, rng):
        engine, _ = run_strawman(rng)
        result = engine.quantile(0.5)
        assert 0 < result.disk_accesses < 50

    def test_memory_words_positive(self, rng):
        engine, _ = run_strawman(rng)
        assert engine.memory_words() > 0


# Recorded on the PR 18 tree, where the strawman assembled its own
# search and result: (value, target_rank, total_size, estimated_rank,
# disk_accesses, iterations, truncated, sim_seconds) per phi.
PINNED_PHIS = (0.05, 0.25, 0.5, 0.75, 0.97)
PINNED_ANSWERS = [
    (49979, 700, 14000, 700.5, 7, 13, False, 0.007),
    (251193, 3500, 14000, 3500.5, 5, 14, False, 0.005),
    (498877, 7000, 14000, 7000.5, 6, 14, False, 0.006),
    (747211, 10500, 14000, 10508.5, 5, 13, False, 0.005),
    (970854, 13580, 14000, 13580.5, 7, 14, False, 0.007),
]
# (sequential_reads, sequential_writes, random_reads) per phase after
# the five queries.
PINNED_PHASE_TOTALS = {
    "load": (0, 125, 0),
    "sort": (0, 0, 0),
    "merge": (1875, 2500, 0),
    "query": (0, 0, 30),
}


def pinned_run():
    rng = np.random.default_rng(2016)
    engine = StrawmanEngine(epsilon=0.02, block_elems=16)
    for _ in range(6):
        engine.stream_update_many(rng.integers(0, 10**6, 2000))
        engine.end_time_step()
    engine.stream_update_many(rng.integers(0, 10**6, 2000))
    return engine, [engine.quantile(phi) for phi in PINNED_PHIS]


def test_answers_and_io_are_pinned():
    """The strawman answers through ``answer_rank`` what it answered
    through its own copy of the query path, block for block."""
    engine, results = pinned_run()
    assert [
        (r.value, r.target_rank, r.total_size, r.estimated_rank,
         r.disk_accesses, r.iterations, r.truncated, r.sim_seconds)
        for r in results
    ] == PINNED_ANSWERS
    stats = engine.disk.stats
    assert {
        phase: (
            getattr(stats, phase).sequential_reads,
            getattr(stats, phase).sequential_writes,
            getattr(stats, phase).random_reads,
        )
        for phase in PINNED_PHASE_TOTALS
    } == PINNED_PHASE_TOTALS


def test_result_is_an_accurate_answer_relabelled():
    engine, results = pinned_run()
    for result in results:
        assert result.mode == "strawman"
        assert result.rank_error_bound == (
            engine.config.query_epsilon * engine.m_stream
        )
